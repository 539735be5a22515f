"""Checked iteration engines: fold, iter, map and filter over cursors.

Each engine drives a cursor through the canonical first-order loop: check
the client invariant on the initial state, then per step measure the
convergence (must be nonnegative), produce an element, apply the consumer,
re-check the invariant and require the measure to have strictly decreased.

Invariant application order, per level: the visited sequence first, then the
accumulator (omitted for iter levels). When iterations nest, the inner
invariant additionally receives the (visited, accumulator) arguments of
every enclosing iteration, nearest level first, appended after whatever
arguments the client partially applied. Nesting context propagates
automatically to iterations started inside a consumer; it can also be
passed explicitly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .cursor import Cursor
from .errors import ContractViolation, EvaluationError, ViolationKind
from .stats import CURRENT as _STATS
from .stats import CheckStats, collect_stats  # part of this module's API
from .terms import Closure, apply_lambda
from .values import Value

NO_ACC = object()  # marks an iter-level frame, which carries no accumulator

SpecFn = Union[Closure, Callable[..., Value]]


@dataclass(frozen=True)
class Frame:
    """Snapshot of one enclosing iteration level."""

    visited: tuple
    acc: Value = NO_ACC

    @property
    def has_acc(self) -> bool:
        return self.acc is not NO_ACC

    def args(self) -> tuple:
        return (self.visited, self.acc) if self.has_acc else (self.visited,)


@dataclass(frozen=True)
class InvariantContext:
    """Stack of frames from enclosing checked iterations, innermost last."""

    frames: tuple[Frame, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.frames)

    def appended_args(self) -> list:
        """Arguments appended to an inner invariant, nearest level first."""
        out: list = []
        for frame in reversed(self.frames):
            out.extend(frame.args())
        return out


EMPTY_CONTEXT = InvariantContext()


def push_frame(ctx: InvariantContext, acc: Value, visited: tuple) -> InvariantContext:
    """Return ``ctx`` extended with one frame; pass NO_ACC for iter levels."""
    return InvariantContext(ctx.frames + (Frame(tuple(visited), acc),))


def pop_frame(ctx: InvariantContext) -> InvariantContext:
    assert ctx.frames, "pop_frame on empty context"
    return InvariantContext(ctx.frames[:-1])


class _Ambient(threading.local):
    def __init__(self):
        self.context = EMPTY_CONTEXT


_AMBIENT = _Ambient()


def current_context() -> InvariantContext:
    """Nesting context of the innermost checked iteration on this thread."""
    return _AMBIENT.context


@dataclass
class ClientContract:
    """Call-site specification: invariant, convergence measure, collection.

    ``inv`` takes (visited, acc) for fold/map/filter and (visited) for iter,
    followed by propagated outer-level arguments when nested. ``convergence``
    takes (collection, visited) and returns an integer.
    """

    inv: SpecFn
    convergence: SpecFn
    collection: Value
    inv_label: str = ""
    convergence_label: str = ""


def _apply_spec(f: SpecFn, args: list, what: str) -> Value:
    if isinstance(f, Closure):
        if f.remaining != len(args):
            raise EvaluationError(
                f"{what} arity mismatch: lambda expects {f.remaining} more "
                f"argument(s), engine supplies {len(args)}"
            )
        return apply_lambda(f, args)
    if callable(f):
        return f(*args)
    raise EvaluationError(f"{what} is not applicable: {f!r}")


class _Loop:
    """Shared engine loop; the four public entry points differ only in how
    the consumer transforms the accumulator."""

    def __init__(self, cursor: Cursor, contract: ClientContract,
                 ctx: Optional[InvariantContext], has_acc: bool):
        self.cursor = cursor
        self.contract = contract
        self.ctx = ctx if ctx is not None else _AMBIENT.context
        self.has_acc = has_acc
        self.outer_args = self.ctx.appended_args()

    def _check_inv(self, visited: tuple, acc: Value, kind: ViolationKind) -> None:
        own = (visited, acc) if self.has_acc else (visited,)
        args = list(own) + self.outer_args
        step = len(visited)
        try:
            result = _apply_spec(self.contract.inv, args, "invariant")
        except EvaluationError as exc:
            raise EvaluationError(f"invariant at step {step}: {exc}") from exc
        _STATS.stats.record("inv", step, self.contract.inv_label)
        if not isinstance(result, bool):
            raise EvaluationError(
                f"invariant at step {step}: returned non-boolean {result!r}")
        if not result:
            raise ContractViolation(
                kind, step,
                f"invariant failed on visited={visited!r}, acc={acc!r}",
            )

    def _measure(self, visited: tuple) -> int:
        step = len(visited)
        try:
            m = _apply_spec(self.contract.convergence,
                            [self.contract.collection, visited], "convergence")
        except EvaluationError as exc:
            raise EvaluationError(f"convergence at step {step}: {exc}") from exc
        _STATS.stats.record("variant", step, self.contract.convergence_label)
        if isinstance(m, bool) or not isinstance(m, int):
            raise EvaluationError(
                f"convergence at step {step}: returned non-integer {m!r}")
        return m

    def run(self, step_fn: Callable, init: Value) -> Value:
        acc = init
        self._check_inv(self.cursor.visited, acc,
                        ViolationKind.INVARIANT_VIOLATED_INITIALLY)
        while self.cursor.has_next():
            before = self.cursor.visited
            m0 = self._measure(before)
            if m0 < 0:
                raise ContractViolation(
                    ViolationKind.CONVERGENCE_NEGATIVE, len(before),
                    f"measure {m0} < 0 on visited={before!r}, acc={acc!r}",
                )
            x = self.cursor.next()
            now = self.cursor.visited
            inner_ctx = push_frame(self.ctx, acc if self.has_acc else NO_ACC, now)
            saved = _AMBIENT.context
            _AMBIENT.context = inner_ctx
            try:
                acc = step_fn(acc, x)
            finally:
                _AMBIENT.context = saved
            self._check_inv(now, acc, ViolationKind.INVARIANT_VIOLATED)
            m1 = self._measure(now)
            if not m1 < m0:
                raise ContractViolation(
                    ViolationKind.CONVERGENCE_NOT_DECREASING, len(now),
                    f"measure did not decrease: {m0} -> {m1} on "
                    f"visited={now!r}, acc={acc!r}",
                )
        # loop exit is only reachable with the exhaustion contract satisfied
        assert self.cursor._complete_checked
        return acc


def checked_fold(consumer: Callable[[Value, Value], Value], init: Value,
                 cursor: Cursor, contract: ClientContract,
                 ctx: Optional[InvariantContext] = None) -> Value:
    """Fold the cursor's elements through ``consumer``, checking the contract
    at every step. Consumer exceptions propagate unchanged."""
    loop = _Loop(cursor, contract, ctx, has_acc=True)
    return loop.run(lambda acc, x: consumer(acc, x), init)


def checked_iter(consumer: Callable[[Value], None], cursor: Cursor,
                 contract: ClientContract,
                 ctx: Optional[InvariantContext] = None) -> None:
    """Run an effectful consumer over the cursor; the invariant takes the
    visited sequence only and is evaluated against the consumer's effects."""
    loop = _Loop(cursor, contract, ctx, has_acc=False)
    loop.run(lambda _acc, x: consumer(x), None)


def checked_map(f: Callable[[Value], Value], cursor: Cursor,
                contract: ClientContract,
                ctx: Optional[InvariantContext] = None) -> tuple:
    """Fold building the elementwise image of the input; returns a sequence
    of the same length."""
    loop = _Loop(cursor, contract, ctx, has_acc=True)
    return loop.run(lambda out, x: out + (f(x),), ())


def checked_filter(p: Callable[[Value], bool], cursor: Cursor,
                   contract: ClientContract,
                   ctx: Optional[InvariantContext] = None) -> tuple:
    """Fold keeping the elements satisfying ``p``; returns an order-preserving
    subsequence of the input."""
    loop = _Loop(cursor, contract, ctx, has_acc=True)
    return loop.run(lambda out, x: out + (x,) if p(x) else out, ())
