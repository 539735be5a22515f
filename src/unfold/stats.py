"""Counts of contract evaluations, collected per thread.

The engines count invariant and convergence checks and the cursor counts
permitted and complete checks, each into the stats of the innermost
:func:`collect_stats` block on the calling thread. This module imports no
other, so both layers can import it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class CheckStats:
    """Counts of contract evaluations, plus an optional trace of the
    invariant and convergence checks."""

    inv_checks: int = 0
    variant_checks: int = 0
    permitted_checks: int = 0
    complete_checks: int = 0
    trace: Optional[list] = None

    def record(self, kind: str, step: int, label: str) -> None:
        if kind == "inv":
            self.inv_checks += 1
        else:
            self.variant_checks += 1
        if self.trace is not None:
            self.trace.append((kind, step, label))


class _Current(threading.local):
    def __init__(self):
        self.stats = CheckStats()


CURRENT = _Current()


@contextmanager
def collect_stats(trace: bool = False):
    """Collect check counts (and optionally a trace) for the enclosed calls."""
    previous = CURRENT.stats
    stats = CheckStats(trace=[] if trace else None)
    CURRENT.stats = stats
    try:
        yield stats
    finally:
        CURRENT.stats = previous
