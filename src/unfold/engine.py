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

Bookkeeping costs O(1) per step: the visited sequence and the output of a
map or filter are views of append-only logs (see
:class:`~unfold.values.SeqView`), handed to every reader without a copy;
the output becomes a tuple once, when the call returns. Each loop counts its
invariant and convergence checks itself and adds them to the current
:class:`CheckStats` once, when it ends or fails.
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
from .values import SeqView, Value, bounded_repr

NO_ACC = object()  # marks an iter-level frame, which carries no accumulator

SpecFn = Union[Closure, Callable[..., Value]]


class Frame:
    """Snapshot of one enclosing iteration level: its visited sequence (the
    cursor's view of that step, shared, not copied) and its accumulator,
    NO_ACC for an iter level. Frames compare by value."""

    __slots__ = ("visited", "acc")

    def __init__(self, visited: tuple, acc: Value = NO_ACC):
        self.visited = visited
        self.acc = acc

    @property
    def has_acc(self) -> bool:
        return self.acc is not NO_ACC

    def args(self) -> tuple:
        return (self.visited, self.acc) if self.has_acc else (self.visited,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.visited, self.acc) == (other.visited, other.acc)

    def __hash__(self) -> int:
        return hash((self.visited, self.acc))

    def __repr__(self) -> str:
        return f"Frame(visited={self.visited!r}, acc={self.acc!r})"


class InvariantContext:
    """Stack of frames from enclosing checked iterations, innermost last.
    Contexts compare by value."""

    __slots__ = ("frames",)

    def __init__(self, frames: tuple = ()):
        self.frames = frames

    @property
    def depth(self) -> int:
        return len(self.frames)

    def appended_args(self) -> list:
        """Arguments appended to an inner invariant, nearest level first."""
        out: list = []
        for frame in reversed(self.frames):
            out.extend(frame.args())
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvariantContext):
            return NotImplemented
        return self.frames == other.frames

    def __hash__(self) -> int:
        return hash(self.frames)

    def __repr__(self) -> str:
        return f"InvariantContext(frames={self.frames!r})"


EMPTY_CONTEXT = InvariantContext()


def push_frame(ctx: InvariantContext, acc: Value, visited: tuple) -> InvariantContext:
    """Return ``ctx`` extended with one frame; pass NO_ACC for iter levels.
    The frame shares ``visited``."""
    return InvariantContext(ctx.frames + (Frame(visited, acc),))


def pop_frame(ctx: InvariantContext) -> InvariantContext:
    if not ctx.frames:
        raise AssertionError("pop_frame on empty context")
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
    raise EvaluationError(f"{what} is not applicable: {bounded_repr(f)}")


class _Loop:
    """Shared engine loop; the four public entry points differ only in how
    the consumer transforms the accumulator.

    The loop counts its own checks and adds the counts to the stats that are
    current when it starts, once, when it ends or fails; whether to trace
    each check is decided then too. Checks are traced as they run, so the
    trace keeps the order of nested loops' checks."""

    __slots__ = ("cursor", "contract", "ctx", "has_acc", "outer_args",
                 "trace", "inv_checks", "variant_checks")

    def __init__(self, cursor: Cursor, contract: ClientContract,
                 ctx: Optional[InvariantContext], has_acc: bool):
        self.cursor = cursor
        self.contract = contract
        self.ctx = ctx if ctx is not None else _AMBIENT.context
        self.has_acc = has_acc
        self.outer_args = self.ctx.appended_args()
        self.trace = None
        self.inv_checks = self.variant_checks = 0

    def _check_inv(self, visited: tuple, acc: Value, kind: ViolationKind) -> None:
        if self.has_acc:
            args = [visited, acc, *self.outer_args]
        else:
            args = [visited, *self.outer_args]
        try:
            result = _apply_spec(self.contract.inv, args, "invariant")
        except EvaluationError as exc:
            raise EvaluationError(f"invariant at step {len(visited)}: {exc}") from exc
        self.inv_checks += 1
        if self.trace is not None:
            self.trace.append(("inv", len(visited), self.contract.inv_label))
        if result is not True:
            step = len(visited)
            if result is not False:
                raise EvaluationError(f"invariant at step {step}: returned "
                                      f"non-boolean {bounded_repr(result)}")
            raise ContractViolation(
                kind, step, f"invariant failed on visited={bounded_repr(visited)}, "
                            f"acc={bounded_repr(acc)}",
            )

    def _measure(self, visited: tuple) -> int:
        try:
            m = _apply_spec(self.contract.convergence,
                            [self.contract.collection, visited], "convergence")
        except EvaluationError as exc:
            raise EvaluationError(f"convergence at step {len(visited)}: {exc}") from exc
        self.variant_checks += 1
        if self.trace is not None:
            self.trace.append(("variant", len(visited), self.contract.convergence_label))
        if type(m) is not int and (isinstance(m, bool) or not isinstance(m, int)):
            raise EvaluationError(f"convergence at step {len(visited)}: "
                                  f"returned non-integer {bounded_repr(m)}")
        return m

    def run(self, step_fn: Callable, init: Value) -> Value:
        cursor, ctx, has_acc = self.cursor, self.ctx, self.has_acc
        stats = _STATS.stats
        self.trace = stats.trace
        acc = init
        try:
            visited = cursor.visited
            self._check_inv(visited, acc, ViolationKind.INVARIANT_VIOLATED_INITIALLY)
            while cursor.has_next():
                if cursor._visited is not visited:  # the consumer moved the cursor
                    visited = cursor.visited
                m0 = self._measure(visited)
                if m0 < 0:
                    raise ContractViolation(
                        ViolationKind.CONVERGENCE_NEGATIVE, len(visited),
                        f"measure {m0} < 0 on visited={bounded_repr(visited)}, "
                        f"acc={bounded_repr(acc)}",
                    )
                x = cursor.next()
                visited = cursor.visited
                inner_ctx = push_frame(ctx, acc if has_acc else NO_ACC, visited)
                saved = _AMBIENT.context
                _AMBIENT.context = inner_ctx
                try:
                    acc = step_fn(acc, x)
                finally:
                    _AMBIENT.context = saved
                self._check_inv(visited, acc, ViolationKind.INVARIANT_VIOLATED)
                m1 = self._measure(visited)
                if not m1 < m0:
                    raise ContractViolation(
                        ViolationKind.CONVERGENCE_NOT_DECREASING, len(visited),
                        f"measure did not decrease: {m0} -> {m1} on "
                        f"visited={bounded_repr(visited)}, acc={bounded_repr(acc)}",
                    )
        finally:
            stats.inv_checks += self.inv_checks
            stats.variant_checks += self.variant_checks
        # loop exit is only reachable with the exhaustion contract satisfied
        assert cursor._complete_checked
        return acc


def checked_fold(consumer: Callable[[Value, Value], Value], init: Value,
                 cursor: Cursor, contract: ClientContract,
                 ctx: Optional[InvariantContext] = None) -> Value:
    """Fold the cursor's elements through ``consumer``, checking the contract
    at every step. Consumer exceptions propagate unchanged."""
    return _Loop(cursor, contract, ctx, has_acc=True).run(consumer, init)


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
    of the same length, as a tuple. During the loop the accumulator is a
    view of the output built so far."""
    out: list = []

    def step(_acc, x):
        out.append(f(x))
        return SeqView(out, len(out))
    _Loop(cursor, contract, ctx, has_acc=True).run(step, SeqView(out, 0))
    return tuple(out)


def checked_filter(p: Callable[[Value], bool], cursor: Cursor,
                   contract: ClientContract,
                   ctx: Optional[InvariantContext] = None) -> tuple:
    """Fold keeping the elements satisfying ``p``; returns an order-preserving
    subsequence of the input, as a tuple. During the loop the accumulator is
    a view of the output built so far."""
    out: list = []

    def step(acc, x):
        if p(x):
            out.append(x)
            return SeqView(out, len(out))
        return acc
    _Loop(cursor, contract, ctx, has_acc=True).run(step, SeqView(out, 0))
    return tuple(out)
