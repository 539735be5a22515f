"""Concrete cursor constructors for the iterated structures.

Sequences, finite sets, binary trees (element-by-element and level-by-level)
each get a cursor whose permitted/complete predicates encode the canonical
iteration contract for that structure. The native predicates used here are
semantically identical to the term-language formulas the surface syntax
uses; the test suite checks that equivalence
(``TestNativePredicatesMatchTheirFormulas`` in ``tests/test_containers.py``).

The two permitted predicates are small classes. Each evaluates in full when
called on a visited sequence, and each also offers the step form that
:class:`~unfold.cursor.Cursor` uses after every element, which checks only
the new element against what the earlier steps established:

- prefix of ``source`` (sequence, tree and level cursors): the element at
  index ``k`` equals ``source[k]``, decided as tuple equality decides it;
- distinct members of ``s`` (set cursor): the element is in ``s`` and its
  value key is not among those of the elements before it. This form keeps
  the keys seen so far, so each set cursor gets its own predicate.

``complete`` predicates run once, at exhaustion, and stay in full form.

The stack and queue builders' invariant has the same step form: the sink's
push-order items equal the visited prefix. A builder's sink is fresh and only
``push`` reaches the loop, so the items only grow, and a check compares by
the prefix step just the items pushed since the last check that held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .cursor import Cursor, create_cursor
from .engine import EMPTY_CONTEXT, ClientContract, checked_iter
from .values import FiniteSet, QueueRef, StackRef, Value, value_key


def _in_order(tree: "BinaryTree") -> tuple:
    """Iterative, so a deep spine does not exhaust the Python stack."""
    out: list = []
    pending: list = []
    node = tree
    while pending or not isinstance(node, Leaf):
        while not isinstance(node, Leaf):
            pending.append(node)
            node = node.left
        node = pending.pop()
        out.append(node.value)
        node = node.right
    return tuple(out)


def _by_level(tree: "BinaryTree") -> tuple:
    out: list = []
    layer = [tree] if not isinstance(tree, Leaf) else []
    while layer:
        out.append(tuple(node.value for node in layer))
        layer = [child
                 for node in layer
                 for child in (node.left, node.right)
                 if not isinstance(child, Leaf)]
    return tuple(out)


class BinaryTree:
    """A tree never changes after it is built, so each node walks itself at
    most once for ``flatten`` and once for ``levels``, and keeps the result
    beside its fields (equality and hashing read the fields only)."""

    __slots__ = ()

    def flatten(self) -> tuple:
        """All values, left-to-right (node value between its subtrees)."""
        return self._flat

    def levels(self) -> tuple:
        """One sequence per depth, each left-to-right; root is level 0."""
        return self._levels

    @cached_property
    def _flat(self) -> tuple:
        return _in_order(self)

    @cached_property
    def _levels(self) -> tuple:
        return _by_level(self)

    def size(self) -> int:
        return len(self.flatten())

    def height(self) -> int:
        """Number of levels; 0 for the empty tree."""
        return len(self.levels())


@dataclass(frozen=True)
class Leaf(BinaryTree):
    def _value_key_(self) -> tuple:
        return (4, ())


@dataclass(frozen=True)
class Node(BinaryTree):
    left: BinaryTree
    value: Value
    right: BinaryTree

    def _value_key_(self) -> tuple:
        """``(4, (left key, value key, right key))``, computed without
        recursion, so a deep spine does not exhaust the Python stack."""
        keys: list = []
        pending: list = [self]
        while pending:
            item = pending.pop()
            if item is _JOIN:
                right, value, left = keys.pop(), keys.pop(), keys.pop()
                keys.append((4, (left, value, right)))
            elif isinstance(item, _KeyOf):
                keys.append(value_key(item.value))
            elif isinstance(item, Node):
                pending += (_JOIN, item.right, _KeyOf(item.value), item.left)
            else:
                keys.append(item._value_key_())
        return keys[0]

    def __repr__(self) -> str:
        """The dataclass repr, built without recursion."""
        out: list = []
        pending: list = [self]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Node):
                pending += (")", item.right, f", value={item.value!r}, right=",
                            item.left, f"{type(item).__qualname__}(left=")
            else:
                out.append(repr(item))
        return "".join(out)


class _KeyOf:
    """A node value whose key a walk computes when it pops this."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


_JOIN = object()  # a walk combines its last three keys into a node key


LEAF = Leaf()


class _PrefixOf:
    """permitted for a prefix cursor: visited is a prefix of ``source``."""

    __slots__ = ("source",)

    def __init__(self, source: tuple):
        self.source = source

    def __call__(self, v: tuple) -> bool:
        return v == self.source[:len(v)]

    def step(self, k: int, x: Value) -> bool:
        source = self.source
        return k < len(source) and (x is source[k] or bool(x == source[k]))


class _DistinctMembers:
    """permitted for a set cursor: visited lists distinct members of ``s``.

    The step form records the value key of every element it accepts; a
    step at index 0 starts a fresh record. Serve one cursor at a time.
    """

    __slots__ = ("members", "_member_keys", "_seen")

    def __init__(self, members: FiniteSet):
        self.members = members
        self._member_keys = frozenset(map(value_key, members))
        self._seen: set = set()

    def __call__(self, v: tuple) -> bool:
        vs = FiniteSet(v)
        return len(vs) == len(v) and vs.subset(self.members)

    def step(self, k: int, x: Value) -> bool:
        if k == 0:
            self._seen = set()
        key = value_key(x)
        if key in self._seen or key not in self._member_keys:
            return False
        self._seen.add(key)
        return True


class _PushedPrefix:
    """inv for a sink builder: the sink's push-order ``items`` equal the
    visited prefix of ``source``, in step form after ``agreed`` items; a
    visited prefix shorter than ``agreed`` starts again from index 0."""

    __slots__ = ("items", "prefix", "agreed")

    def __init__(self, items: list, source: tuple):
        self.items = items
        self.prefix = _PrefixOf(source)
        self.agreed = 0

    def __call__(self, v: tuple) -> bool:
        items, step = self.items, self.prefix.step
        n = min(len(v), len(self.prefix.source))
        if len(items) != n:
            return False
        for k in range(self.agreed if self.agreed <= n else 0, n):
            if not step(k, items[k]):
                return False
        self.agreed = n
        return True


def _prefix_cursor(source: tuple) -> Cursor:
    """Cursor whose permitted is prefix-of-source and complete is
    length equality."""
    return create_cursor(
        iter(source),
        permitted=_PrefixOf(source),
        complete=lambda v: len(v) == len(source),
    )


def seq_cursor(s: tuple) -> Cursor:
    """Iterate a sequence in order; visited must remain a prefix of it."""
    return _prefix_cursor(tuple(s))


def set_cursor(s: FiniteSet, rng: Optional[random.Random] = None) -> Cursor:
    """Iterate a finite set; visited must stay a distinct subsequence of its
    members, and iteration completes when all members were produced.

    Enumeration order is canonical unless an ``rng`` is supplied to permute
    it; the predicates never depend on the order.
    """
    elems = list(s.elems)
    if rng is not None:
        rng.shuffle(elems)

    return create_cursor(iter(elems), _DistinctMembers(s),
                         complete=lambda v: FiniteSet(v) == s)


def tree_cursor(t: BinaryTree) -> Cursor:
    """Iterate a binary tree's values; the tree is read as the sequence it
    flattens to, and visited must remain a prefix of that sequence."""
    return _prefix_cursor(t.flatten())


def level_cursor(t: BinaryTree) -> Cursor:
    """Iterate a binary tree level by level; each produced element is the
    whole sequence of values at one depth."""
    return _prefix_cursor(t.levels())


def _push_all(sink, s: tuple):
    """Push every element of ``s`` onto ``sink``, checking at each step that
    its push-order items equal the visited prefix. The sink is fresh and
    only ``push`` is handed to the loop, so its items only grow and each
    check compares just the items pushed since the last check that held.
    The loop is a level of its own, as every graph operation is: inside the
    consumer of another checked loop, its invariant still sees only its own
    visited prefix."""
    s = tuple(s)
    checked_iter(sink.push, seq_cursor(s), ClientContract(
        inv=_PushedPrefix(sink._items, s),
        convergence=lambda c, v: len(c) - len(v), collection=s),
        ctx=EMPTY_CONTEXT)
    return sink


def stack_of_seq(s: tuple) -> StackRef:
    """Push every element of ``s`` onto a fresh stack; the pushed items,
    bottom first (the reversed contents), must equal the visited prefix at
    each step, checked in step form (``_push_all``)."""
    return _push_all(StackRef(), s)


def queue_of_seq(s: tuple) -> QueueRef:
    """Push every element of ``s`` onto a fresh queue; the queue contents
    must equal the visited prefix at each step, checked in step form
    (``_push_all``)."""
    return _push_all(QueueRef(), s)
