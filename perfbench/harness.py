"""Shared machinery: locating and importing the program, operations, the
closed-loop timed phase, the reference timing and the summary statistics."""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import oracles as O

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(Exception):
    """The checkout does not hold the program the benchmark measures."""


def import_program(fresh: bool = False):
    """Import ``unfold`` (and its CLI) from this checkout's ``src``.

    With ``fresh`` every already-imported ``unfold`` module is dropped first,
    so the import is paid again; set-up timing uses this.
    """
    if not (SRC / "unfold" / "__init__.py").is_file():
        raise MissingProgram(f"no unfold package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "unfold" or m.startswith("unfold.")]:
            del sys.modules[name]
    api = importlib.import_module("unfold")
    importlib.import_module("unfold.cli")
    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise MissingProgram(f"unfold was imported from {api.__file__}, "
                             f"not from {SRC}")
    return api


class Digest:
    """Running SHA-256 over the generated inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def __call__(self, *items) -> None:
        for item in items:
            self._h.update(repr(item).encode())
            self._h.update(b"\x00")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass
class Op:
    """One operation of a workload.

    ``run`` performs the call into the program and is the only timed part.
    ``observe`` turns its raw result into a comparable outcome, which must
    equal ``expected`` (computed by the oracles). ``reference`` computes the
    same result in plain Python, for ``overhead_x``; ``None`` leaves the op
    out of that ratio. Unfaulted ops that ``ladder`` their ``kind`` across
    sizes feed ``scaling_exp``.
    """

    kind: str
    size: int
    run: Callable[[], object]
    expected: object
    observe: Callable[[object], object] = lambda raw: ("ok", raw)
    reference: Optional[Callable[[], object]] = None
    ladder: bool = True
    checks: Optional[Callable[[object], tuple]] = None


@dataclass
class Sample:
    op: Op
    ns: int
    ok: bool
    checks: tuple
    outcome: object = None  # kept only when wrong, for the report


def run_op(api, op: Op, tracer=None, op_id: int = 0) -> Sample:
    """Run one operation in the closed loop and judge its outcome.

    A contract violation is an outcome like any other; any other exception
    escaping the program is recorded as an outcome that matches nothing.
    """
    raw = outcome = None
    with api.collect_stats() as stats:
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = time.perf_counter_ns()
        try:
            raw = op.run()
        except api.ContractViolation as exc:
            outcome = ("violation", exc.kind.value, exc.step)
        except Exception as exc:  # counted as an error, the run goes on
            outcome = ("exception", f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op()
    checks = (stats.inv_checks, stats.variant_checks)
    if outcome is None:
        try:
            outcome = op.observe(raw)
            if op.checks is not None:
                checks = op.checks(raw)
        except Exception as exc:  # malformed output is an error, not a crash
            outcome = ("unobservable", f"{type(exc).__name__}: {exc}")
    ok = outcome == op.expected
    return Sample(op, t1 - t0, ok, checks, None if ok else outcome)


MAX_WRONG_KEPT = 5


@dataclass
class Phase:
    """What a timed phase keeps. Op times are 8 bytes each, in run order
    (time ``i`` belongs to ``ops[i % len(ops)]``), and only the first few
    wrong outcomes keep their Sample, so the harness's memory barely grows
    with the program's throughput and ``peak_rss_mb`` follows the program."""
    ops: list
    ns: array = field(default_factory=lambda: array("q"))
    failed: int = 0
    wrong: list = field(default_factory=list)  # the first MAX_WRONG_KEPT
    cycles: int = 0
    cycle_checks: list = field(default_factory=list)  # (inv, variant) per cycle

    def timed(self):
        """(op, ns) for every op run, in run order."""
        n = len(self.ops)
        return ((self.ops[i % n], t) for i, t in enumerate(self.ns))

    @property
    def storage_bytes(self) -> int:
        return self.ns.itemsize * len(self.ns)


MIN_OPS = 100  # p90 then has at least ten samples beyond it


def timed_phase(api, ops: list, seconds: float, tracer=None,
                cycles: Optional[int] = None, after_op=None) -> Phase:
    """Closed loop, one client: run the whole op list again and again until
    ``seconds`` have passed (or exactly ``cycles`` times), always finishing
    a pass so that every pass has the same mix. ``after_op`` runs after
    each op, and its time does not count towards ``seconds``."""
    phase = Phase(ops)
    deadline = time.perf_counter() + seconds
    while True:
        inv = variant = 0
        for op in ops:
            sample = run_op(api, op, tracer, len(phase.ns))
            phase.ns.append(sample.ns)
            if not sample.ok:
                phase.failed += 1
                if len(phase.wrong) < MAX_WRONG_KEPT:
                    phase.wrong.append(sample)
            inv += sample.checks[0]
            variant += sample.checks[1]
            if after_op is not None:
                paused = time.perf_counter()
                after_op(op)
                deadline += time.perf_counter() - paused
        phase.cycles += 1
        phase.cycle_checks.append((inv, variant))
        if cycles is not None:
            if phase.cycles >= cycles:
                return phase
        elif time.perf_counter() >= deadline and len(phase.ns) >= MIN_OPS:
            return phase


def reference_ns(fn: Callable[[], object]) -> float:
    """Fastest per-call time of a plain-Python computation over 3 loops of
    at least 1 ms each, with the garbage collector off (as ``timeit``
    does)."""
    per_call = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            calls = 0
            t0 = time.perf_counter_ns()
            while True:
                fn()
                calls += 1
                elapsed = time.perf_counter_ns() - t0
                if elapsed >= 1_000_000:
                    break
            per_call.append(elapsed / calls)
    finally:
        if enabled:
            gc.enable()
    return min(per_call)


class References:
    """Reference time of every op that has one, measured right after each
    run of the op, so that a drift in machine speed reaches both sides of
    ``overhead_x``; an op's reference is the median over its runs. Times
    are kept 8 bytes each, like the op times."""

    def __init__(self, ops: list):
        self._ns = {id(op): array("d") for op in ops if op.reference is not None}

    def measure(self, op: Op) -> None:
        if op in self:
            self._ns[id(op)].append(reference_ns(op.reference))

    def __contains__(self, op: Op) -> bool:
        return id(op) in self._ns

    def __getitem__(self, op: Op) -> float:
        return statistics.median(self._ns[id(op)])

    @property
    def storage_bytes(self) -> int:
        return sum(a.itemsize * len(a) for a in self._ns.values())


# A fixed plain-Python computation in the mix of the oracles: sequence
# folds, maps and filters, set-based graph operations and a path check.
# Timed right after each op run and each set-up, it gauges the machine's
# speed at that moment; the program under test takes no part in it.
_SPEED_XS = tuple((i * 37) % 101 - 50 for i in range(300))
_SPEED_G1 = {v: frozenset((v * 3 + k) % 8 for k in range(3)) for v in range(8)}
_SPEED_G2 = {v: frozenset((v * 5 + k) % 8 for k in range(2)) for v in range(8)}


def _speed_kernel() -> None:
    O.fold_sum(_SPEED_XS)
    O.map_incr(_SPEED_XS)
    O.filter_pos(_SPEED_XS)
    O.stack_contents(_SPEED_XS)
    O.g_union(_SPEED_G1, _SPEED_G2)
    O.g_complement(_SPEED_G1)
    O.path_ok(_SPEED_G1, (0, 3, 1, 4))


#: The kernel's time on the machine where the bounds were set (a 2-vCPU VM
#: of a shared host, CPython 3, in its faster spells).
NOMINAL_SPEED_NS = 50_000


def speed_factor() -> float:
    """NOMINAL_SPEED_NS over the kernel's time now. A wall time multiplied
    by it is the time the same work takes on the nominal machine, so the
    timed metrics do not follow the shared host's drift in speed, which
    reached a factor of 2 within minutes where the bounds were set."""
    return NOMINAL_SPEED_NS / reference_ns(_speed_kernel)


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def scaling_exponent(phase: Phase) -> float:
    """Mean over op kinds of the least-squares slope of log(median op time)
    against log(input size) across the sizes of that kind."""
    by_kind: dict = {}
    for op, ns in phase.timed():
        if op.ladder:
            by_kind.setdefault(op.kind, {}).setdefault(op.size, []).append(ns)
    slopes = []
    for sizes in by_kind.values():
        if len(sizes) < 2:
            continue
        xs = [math.log(n) for n in sizes]
        ys = [math.log(statistics.median(ts)) for ts in sizes.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                      / sum((x - mx) ** 2 for x in xs))
    return statistics.fmean(slopes)
