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
from .values import SeqView, Value, bounded_repr

SeqPredicate = Union[Closure, Callable[[tuple], bool]]

_NO_LOOKAHEAD = object()


def _eval_predicate(pred: SeqPredicate, visited: SeqView, what: str,
                    k: int = -1, x: Value = None) -> Value:
    """Evaluate ``pred``, the ``what`` ("permitted" or "complete")
    predicate, on ``visited``. Every permitted/complete check goes through
    here; the caller counts each one that returns and then judges the
    result (:func:`_non_boolean`). Given the index ``k`` and value ``x`` of
    the last element of ``visited``, ``pred`` is a step form (see
    :class:`Cursor`) and is passed only those."""
    try:
        if k >= 0:
            result = pred(k, x)
        elif isinstance(pred, Closure):
            result = apply_lambda(pred, [visited])
        else:
            result = pred(visited)
    except EvaluationError as exc:
        raise EvaluationError(
            f"{what} predicate at step {len(visited)}: {exc}") from exc
    return result


def _non_boolean(result: Value, what: str, visited: SeqView) -> EvaluationError:
    return EvaluationError(f"{what} predicate at step {len(visited)}: "
                           f"returned non-boolean {bounded_repr(result)}")


class Cursor:
    """External iterator with checked permitted/complete predicates.

    Single-owner: not safe to share during iteration. ``has_next`` keeps a
    one-element lookahead so that exhaustion (and with it the ``complete``
    predicate) is decided at the has_next boundary.

    The cursor owns one private append-only list of the elements produced
    so far. ``visited`` is a :class:`~unfold.values.SeqView` of it, made
    once per step and shared by every reader of that step: an immutable
    sequence that behaves as the equal tuple, so a view read earlier never
    changes, and no step copies the prefix. A ``permitted`` object that is
    not a term-language closure may offer a step form
    ``permitted.step(k, x)`` with ``step(len(v), x) == permitted(v + (x,))``
    whenever ``permitted(v)`` holds. The cursor then evaluates
    ``permitted(())`` in full at construction and only the step form after
    each element. Every permitted and complete check that returns is
    counted in the current :class:`~unfold.stats.CheckStats` as it runs.
    """

    def __init__(self, producer: Iterator[Value],
                 permitted: SeqPredicate, complete: SeqPredicate):
        self._producer = producer
        self.permitted = permitted
        self.complete = complete
        self._permitted_step = getattr(permitted, "step", None)
        self._log: list = []
        self._visited = SeqView(self._log, 0)
        self._lookahead: Value = _NO_LOOKAHEAD
        self._exhausted = False
        self._complete_checked = False
        self._check_permitted()

    @property
    def step(self) -> int:
        return len(self._log)

    def _check_permitted(self, k: int = -1, x: Value = None) -> None:
        """Check ``permitted`` after ``x`` was added at index ``k`` (or,
        without ``k``, on the empty visited sequence)."""
        visited = self._visited
        if k >= 0 and self._permitted_step is not None:
            ok = _eval_predicate(self._permitted_step, visited, "permitted",
                                 k, x)
        else:
            ok = _eval_predicate(self.permitted, visited, "permitted")
        _STATS.stats.permitted_checks += 1
        if ok is not True:
            if ok is not False:
                raise _non_boolean(ok, "permitted", visited)
            raise ContractViolation(
                ViolationKind.PERMITTED_VIOLATED, len(visited),
                f"permitted rejected visited prefix {bounded_repr(visited)}",
            )

    def _check_complete(self) -> None:
        if self._complete_checked:
            return
        visited = self._visited
        ok = _eval_predicate(self.complete, visited, "complete")
        _STATS.stats.complete_checks += 1
        if ok is not True:
            if ok is not False:
                raise _non_boolean(ok, "complete", visited)
            raise ContractViolation(
                ViolationKind.COMPLETE_VIOLATED_AT_EXHAUSTION, len(visited),
                "producer exhausted but complete rejected visited "
                f"{bounded_repr(visited)}",
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
                ViolationKind.NEXT_ON_EXHAUSTED, len(self._log),
                "next called on exhausted cursor with visited "
                f"{bounded_repr(self._visited)}",
            )
        x = self._lookahead
        self._lookahead = _NO_LOOKAHEAD
        log = self._log
        k = len(log)
        log.append(x)
        self._visited = SeqView(log, k + 1)
        self._check_permitted(k, x)
        return x

    @property
    def visited(self) -> SeqView:
        """The visited sequence: this step's shared view, read in O(1).
        ``next`` makes a new view, so a value read earlier never changes."""
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
    """The visited sequence as a tuple, built once per step (``c.visited``
    is the view itself)."""
    return c.visited.as_tuple()
