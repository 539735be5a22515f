"""Runtime values for the specification term language.

Plain Python carriers are used wherever they fit: ``int`` (and ``bool``),
``None`` for unit, ``tuple`` for both sequences and tuples. A sequence that
grows one element at a time (a cursor's visited sequence, the output of a
checked map or filter) is a :class:`SeqView` of an append-only log instead,
which behaves as the equal tuple; :func:`is_seq` accepts both. Finite sets get
their own class so that enumeration order is canonical (structural order on
values) and therefore reproducible across runs. Mutable reference cells
(stacks, queues, plain cells) live here too; specification terms see their
logical contents, never the reference itself.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from itertools import islice
from typing import Any, Iterable, Iterator

from .errors import EvaluationError

Value = Any

REPR_LIMIT = 200  # characters of one state's repr in a violation message


class SeqView:
    """The first ``n`` elements of an append-only list ``log``: an immutable
    sequence value, read in O(1) however long it is.

    The owner of ``log`` only ever appends to it, so a view never changes,
    and views of one log taken at successive lengths share its elements
    instead of copying them. A view behaves as the equal tuple for ``len``,
    indexing (negative too), slicing (which returns a tuple), iteration,
    ``in``, ``==``, ``hash``, ``repr`` and :func:`value_key`; for anything
    else, such as ``+``, take :meth:`as_tuple`. ``==``, ``hash`` and
    ``repr`` use the equal tuple, and :func:`set_of` the set of the
    elements, each built once per view and kept. A view keeps its whole log
    alive.
    """

    __slots__ = ("_log", "_n", "_tuple", "_set")

    def __init__(self, log: list, n: int):
        self._log = log
        self._n = n
        self._tuple = None
        self._set = None

    def extends(self, other: Value) -> bool:
        """``other`` is a view of the same log, no longer than this one."""
        return (isinstance(other, SeqView) and other._log is self._log
                and other._n <= self._n)

    def as_tuple(self) -> tuple:
        """The equal tuple, built on first use and kept."""
        t = self._tuple
        if t is None:
            t = self._tuple = tuple(islice(self._log, self._n))
        return t

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Value]:
        return islice(self._log, self._n)

    def __getitem__(self, i):
        n = self._n
        if type(i) is not int:
            if isinstance(i, slice):
                start, stop, step = i.indices(n)
                if step > 0:
                    return tuple(self._log[start:stop:step])
                return self.as_tuple()[i]
            try:
                i = operator.index(i)
            except TypeError:
                raise TypeError("tuple indices must be integers or slices, "
                                f"not {type(i).__name__}") from None
        if i < 0:
            i += n
        if 0 <= i < n:
            return self._log[i]
        raise IndexError("tuple index out of range")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeqView):
            if other._log is self._log:
                return other._n == self._n
            other = other.as_tuple()
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(other) == self._n and self.as_tuple() == other

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return repr(self.as_tuple())


_SEQUENCES = (tuple, SeqView)


def is_seq(v: Value) -> bool:
    """Whether ``v`` is a sequence value: a tuple or a :class:`SeqView`."""
    return isinstance(v, _SEQUENCES)


def set_of(s) -> "FiniteSet":
    """The set of the elements of sequence ``s``; a view builds it once and
    keeps it, so every check that reads the same visited view shares it."""
    if type(s) is not SeqView:
        return FiniteSet(s)
    if s._set is None:
        s._set = FiniteSet(s)
    return s._set


def bounded_repr(v: Value, limit: int = REPR_LIMIT) -> str:
    """``repr(v)`` when it has at most ``limit`` characters, else its first
    ``limit`` characters and an elision marker. A view's repr is built one
    element at a time and stops once past the limit, so a long view is
    never turned into a tuple just to be printed."""
    if isinstance(v, SeqView):
        parts, size = [], 0  # size: length of the repr of parts, as a tuple
        for x in v:
            parts.append(repr(x))
            size += len(parts[-1]) + 2
            if size > limit:
                break
        text = "(" + ", ".join(parts) + ("," if len(v) == 1 else "") + ")"
    else:
        text = repr(v)
    if len(text) <= limit:
        return text
    return text[:limit] + " ...[elided]"


def value_key(v: Value) -> tuple:
    """Total structural order key. Equal keys define value equality."""
    if type(v) is int:
        return (0, v)
    if isinstance(v, (bool, int)):
        return (0, int(v))
    if v is None:
        return (1,)
    if is_seq(v):
        return (2, len(v), tuple(value_key(x) for x in v))
    key = getattr(v, "_value_key_", None)
    if key is not None:
        return key()
    raise EvaluationError(
        f"value of type {type(v).__name__} has no structural order")


def value_eq(a: Value, b: Value) -> bool:
    """Structural equality, total over all value kinds (distinct kinds
    compare unequal rather than raising). A value outside the domain of
    :func:`value_key` equals only itself."""
    if a is b:
        return True
    t = type(a)
    if t is type(b) and (t is int or t is bool):
        return a == b
    try:
        return value_key(a) == value_key(b)
    except EvaluationError:
        return False


class FiniteSet:
    """Immutable finite set of values, stored in canonical structural order.

    Equality ignores construction order; iteration is always canonical.
    Membership is a hash lookup in ``_index``, the dict from each key to its
    element that construction builds anyway, kept instead of hashing the
    keys a second time. On equal keys the element met first is kept, so the
    left operand's element wins in :meth:`union` and :meth:`add`.

    The set algebra works on the operands' sorted keys and index: it never
    recomputes a :func:`value_key` of an operand's element, ``inter`` and
    ``diff`` keep the left operand's order instead of sorting, and a result
    equal to an operand (with the same elements) is that operand, so
    unchanged sets stay the identical object from one step to the next.
    A set holds only values with a structural key and never changes, so it
    is closed (``_closed_``). The keys at which two sets differ in membership
    are the symmetric difference of their key sets (:meth:`_delta_`).
    """

    __slots__ = ("_elems", "_keys", "_index")
    _closed_ = True

    def __init__(self, iterable: Iterable[Value] = ()):
        seen = {}
        for v in iterable:
            seen.setdefault(value_key(v), v)
        keys = tuple(sorted(seen))
        self._keys = keys
        self._index = seen
        self._elems = tuple(seen[k] for k in keys)

    @classmethod
    def _of(cls, keys: tuple, index: dict) -> "FiniteSet":
        """The set of ``index``'s elements, ``keys`` being its keys sorted."""
        s = object.__new__(cls)
        s._keys, s._index = keys, index
        s._elems = tuple(map(index.__getitem__, keys))
        return s

    def _with_keys(self, keys: list) -> "FiniteSet":
        """The subset of ``self`` with ``keys``, a sublist of its keys."""
        if len(keys) == len(self._keys):
            return self
        if not keys:
            return EMPTY_SET
        index = self._index
        return FiniteSet._of(tuple(keys), {k: index[k] for k in keys})

    def _same_elements(self, other: "FiniteSet", keys) -> bool:
        """Each of ``keys`` maps to the identical element in both sets."""
        index, other_index = self._index, other._index
        return all(index[k] is other_index[k] for k in keys)

    @property
    def elems(self) -> tuple:
        return self._elems

    def __contains__(self, v: Value) -> bool:
        return value_key(v) in self._index

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
        index = self._index
        extra = [k for k in other._keys if k not in index]
        if not extra:
            return self
        if (len(index) + len(extra) == len(other._keys)
                and self._same_elements(other, self._keys)):
            return other
        merged = dict(index)
        other_index = other._index
        for k in extra:
            merged[k] = other_index[k]
        return FiniteSet._of(tuple(sorted(self._keys + tuple(extra))), merged)

    def inter(self, other: "FiniteSet") -> "FiniteSet":
        other_index = other._index
        keys = [k for k in self._keys if k in other_index]
        if (len(keys) == len(other_index) < len(self._keys)
                and self._same_elements(other, keys)):
            return other
        return self._with_keys(keys)

    def diff(self, other: "FiniteSet") -> "FiniteSet":
        other_index = other._index
        return self._with_keys([k for k in self._keys if k not in other_index])

    def add(self, v: Value) -> "FiniteSet":
        k = value_key(v)
        index = self._index
        if k in index:
            return self
        keys = self._keys
        at = bisect_right(keys, k)
        index = dict(index)
        index[k] = v
        return FiniteSet._of(keys[:at] + (k,) + keys[at:], index)

    def subset(self, other: "FiniteSet") -> bool:
        other_index = other._index
        return all(k in other_index for k in self._keys)

    def _delta_(self, other: "FiniteSet") -> set:
        """The keys of the values that are members of one set but not the
        other: where ``mem x`` may read the two sets differently."""
        return self._index.keys() ^ other._index.keys()


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
