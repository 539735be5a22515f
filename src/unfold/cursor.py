"""Step-by-step iterators that carry their own admissibility contracts.

A cursor owns the sequence of elements produced so far (``visited``) plus
two predicates over it: ``permitted`` must hold at every observation point,
and ``complete`` must hold once the producer is exhausted. Violations raise
:class:`~unfold.errors.ContractViolation` with the step index at which they
were detected.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Union

from .errors import ContractViolation, EvaluationError, ViolationKind
from .stats import CURRENT as _STATS
from .terms import Closure, apply_lambda
from .values import Value

SeqPredicate = Union[Closure, Callable[[tuple], bool]]

_NO_LOOKAHEAD = object()


def _eval_predicate(pred: SeqPredicate, visited: tuple, what: str,
                    stepwise: bool = False) -> bool:
    """Evaluate ``pred`` on ``visited``; every permitted/complete check goes
    through here, and each one that returns is counted in the current
    :class:`~unfold.stats.CheckStats`. With ``stepwise``, ``pred`` is a step
    form (see :class:`Cursor`) and only the last element of ``visited`` is
    passed."""
    try:
        if stepwise:
            result = pred(len(visited) - 1, visited[-1])
        elif isinstance(pred, Closure):
            result = apply_lambda(pred, [visited])
        else:
            result = pred(visited)
    except EvaluationError as exc:
        raise EvaluationError(
            f"{what} predicate at step {len(visited)}: {exc}") from exc
    if what == "permitted":
        _STATS.stats.permitted_checks += 1
    else:
        _STATS.stats.complete_checks += 1
    if not isinstance(result, bool):
        raise EvaluationError(f"{what} predicate at step {len(visited)}: "
                              f"returned non-boolean {result!r}")
    return result


class Cursor:
    """External iterator with checked permitted/complete predicates.

    Single-owner: not safe to share during iteration. ``has_next`` keeps a
    one-element lookahead so that exhaustion (and with it the ``complete``
    predicate) is decided at the has_next boundary.

    ``visited`` is one immutable tuple, replaced by an extended tuple once
    per step; every reader shares it. A ``permitted`` object that is not a
    term-language closure may offer a step form ``permitted.step(k, x)``
    with ``step(len(v), x) == permitted(v + (x,))`` whenever
    ``permitted(v)`` holds. The cursor then evaluates ``permitted(())`` in
    full at construction and only the step form after each element.
    """

    def __init__(self, producer: Iterator[Value],
                 permitted: SeqPredicate, complete: SeqPredicate):
        self._producer = producer
        self.permitted = permitted
        self.complete = complete
        self._permitted_step = getattr(permitted, "step", None)
        self._visited: tuple = ()
        self._lookahead: Value = _NO_LOOKAHEAD
        self._exhausted = False
        self._complete_checked = False
        self._check_permitted()

    @property
    def step(self) -> int:
        return len(self._visited)

    def _check_permitted(self) -> None:
        visited = self._visited
        if self._permitted_step is not None and visited:
            ok = _eval_predicate(self._permitted_step, visited, "permitted",
                                 stepwise=True)
        else:
            ok = _eval_predicate(self.permitted, visited, "permitted")
        if not ok:
            raise ContractViolation(
                ViolationKind.PERMITTED_VIOLATED, len(visited),
                f"permitted rejected visited prefix {visited!r}",
            )

    def _check_complete(self) -> None:
        if self._complete_checked:
            return
        visited = self._visited
        if not _eval_predicate(self.complete, visited, "complete"):
            raise ContractViolation(
                ViolationKind.COMPLETE_VIOLATED_AT_EXHAUSTION, len(visited),
                f"producer exhausted but complete rejected visited {visited!r}",
            )
        self._complete_checked = True

    def has_next(self) -> bool:
        """True iff the producer can yield another element.

        Does not modify ``visited``. A false answer implies the complete
        predicate held on the full visited sequence (checked once).
        """
        if self._lookahead is not _NO_LOOKAHEAD:
            return True
        if not self._exhausted:
            try:
                self._lookahead = next(self._producer)
                return True
            except StopIteration:
                self._exhausted = True
        self._check_complete()
        return False

    def next(self) -> Value:
        """Produce the next element, growing ``visited`` by exactly one."""
        if self._lookahead is _NO_LOOKAHEAD and not self.has_next():
            raise ContractViolation(
                ViolationKind.NEXT_ON_EXHAUSTED, len(self._visited),
                f"next called on exhausted cursor with visited {self._visited!r}",
            )
        x = self._lookahead
        self._lookahead = _NO_LOOKAHEAD
        self._visited += (x,)
        self._check_permitted()
        return x

    @property
    def visited(self) -> tuple:
        """The visited sequence: a shared immutable snapshot, read in O(1).
        ``next`` replaces it with a new tuple, so a value read earlier never
        changes."""
        return self._visited


def create_cursor(producer: Union[Iterator[Value], Iterable[Value]],
                  permitted: SeqPredicate, complete: SeqPredicate) -> Cursor:
    """Build a cursor over a step source; permitted([]) is checked immediately."""
    return Cursor(iter(producer), permitted, complete)


def has_next(c: Cursor) -> bool:
    return c.has_next()


def next_elem(c: Cursor) -> Value:
    return c.next()


def visited_of(c: Cursor) -> tuple:
    return c.visited
