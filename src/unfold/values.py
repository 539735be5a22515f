"""Runtime values for the specification term language.

Plain Python carriers are used wherever they fit: ``int`` (and ``bool``),
``None`` for unit, ``tuple`` for both sequences and tuples. Finite sets get
their own class so that enumeration order is canonical (structural order on
values) and therefore reproducible across runs. Mutable reference cells
(stacks, queues, plain cells) live here too; specification terms see their
logical contents, never the reference itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .errors import EvaluationError

Value = Any


def value_key(v: Value) -> tuple:
    """Total structural order key. Equal keys define value equality."""
    if type(v) is int:
        return (0, v)
    if isinstance(v, (bool, int)):
        return (0, int(v))
    if v is None:
        return (1,)
    if isinstance(v, tuple):
        return (2, len(v), tuple(value_key(x) for x in v))
    key = getattr(v, "_value_key_", None)
    if key is not None:
        return key()
    raise EvaluationError(
        f"value of type {type(v).__name__} has no structural order")


def value_eq(a: Value, b: Value) -> bool:
    """Structural equality, total over all value kinds (distinct kinds
    compare unequal rather than raising)."""
    try:
        return value_key(a) == value_key(b)
    except EvaluationError:
        return a is b


class FiniteSet:
    """Immutable finite set of values, stored in canonical structural order.

    Equality ignores construction order; iteration is always canonical.
    """

    __slots__ = ("_elems", "_keys")

    def __init__(self, iterable: Iterable[Value] = ()):
        seen = {}
        for v in iterable:
            seen.setdefault(value_key(v), v)
        keys = tuple(sorted(seen))
        self._keys = keys
        self._elems = tuple(seen[k] for k in keys)

    @property
    def elems(self) -> tuple:
        return self._elems

    def __contains__(self, v: Value) -> bool:
        return value_key(v) in self._keys

    def __iter__(self) -> Iterator[Value]:
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteSet) and self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self._elems) + "}"

    def _value_key_(self) -> tuple:
        return (3, self._keys)

    def union(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(self._elems + other._elems)

    def inter(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(e for e in self._elems if e in other)

    def diff(self, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet(e for e in self._elems if e not in other)

    def add(self, v: Value) -> "FiniteSet":
        return FiniteSet(self._elems + (v,))

    def subset(self, other: "FiniteSet") -> bool:
        return all(e in other for e in self._elems)


EMPTY_SET = FiniteSet()


class _Ref:
    """Base of the mutable reference cells below."""


class StackRef(_Ref):
    """Mutable LIFO sink. Logical contents are viewed top-first."""

    def __init__(self):
        self._items: list = []

    def push(self, v: Value) -> None:
        self._items.append(v)

    def contents(self) -> tuple:
        return tuple(reversed(self._items))

    def __repr__(self) -> str:
        return f"StackRef{self.contents()!r}"


class QueueRef(_Ref):
    """Mutable FIFO sink. Logical contents are viewed front-first."""

    def __init__(self):
        self._items: list = []

    def push(self, v: Value) -> None:
        self._items.append(v)

    def contents(self) -> tuple:
        return tuple(self._items)

    def __repr__(self) -> str:
        return f"QueueRef{self.contents()!r}"


class CellRef(_Ref):
    """Mutable single-value cell (counters, flags, previous-element holders)."""

    def __init__(self, value: Value = None):
        self.value = value

    def __repr__(self) -> str:
        return f"CellRef({self.value!r})"


def deref(v: Value) -> Value:
    """Logical view of a value: mutable references read as their contents."""
    if not isinstance(v, _Ref):
        return v
    if isinstance(v, (StackRef, QueueRef)):
        return v.contents()
    if isinstance(v, CellRef):
        return v.value
    return v
