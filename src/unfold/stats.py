"""Counts of contract evaluations, collected per thread.

The cursor counts permitted and complete checks as they run, and each
engine loop counts its invariant and convergence checks in its own
counters and adds them once, when the loop ends or fails; both go to the
stats of the innermost :func:`collect_stats` block on the calling thread.
The trace of invariant and convergence checks is appended to as each check
runs. This module imports no other, so both layers can import it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class CheckStats:
    """Counts of contract evaluations, plus an optional trace of the
    invariant and convergence checks."""

    inv_checks: int = 0
    variant_checks: int = 0
    permitted_checks: int = 0
    complete_checks: int = 0
    trace: Optional[list] = None


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
