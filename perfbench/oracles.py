"""Plain-Python oracles and expected-outcome rules.

Nothing here imports the program under test: every expected outcome the
benchmark compares against is computed from the generated inputs alone.

Value shapes used on the oracle side:

- sequences are tuples of ints;
- trees are nested tuples ``(left, value, right)`` with ``None`` for a leaf;
- graphs are dicts mapping every vertex to a frozenset of successors.
"""

from __future__ import annotations

# -- sequences -----------------------------------------------------------------


def prefix_sums(xs) -> list:
    """``out[k]`` is the sum of the first ``k`` elements."""
    out = [0]
    for x in xs:
        out.append(out[-1] + x)
    return out


def fold_sum(xs) -> int:
    total = 0
    for x in xs:
        total += x
    return total


def map_incr(xs) -> tuple:
    return tuple(x + 1 for x in xs)


def filter_pos(xs) -> tuple:
    return tuple(x for x in xs if x > 0)


def kept_prefix(xs) -> tuple[list, list]:
    """Per prefix length ``k``: how many elements of ``xs[:k]`` are positive,
    and the last positive one (``None`` before the first)."""
    counts, lasts = [0], [None]
    for x in xs:
        counts.append(counts[-1] + (x > 0))
        lasts.append(x if x > 0 else lasts[-1])
    return counts, lasts


def stack_contents(xs) -> tuple:
    """A stack after pushing ``xs`` in order, viewed top-first."""
    out = list(xs)
    out.reverse()
    return tuple(out)


def queue_contents(xs) -> tuple:
    """A queue after pushing ``xs`` in order, viewed front-first."""
    return tuple(xs)


# -- trees -----------------------------------------------------------------------


def flatten(tree) -> tuple:
    """In-order values, with an explicit worklist."""
    out, stack, node = [], [], tree
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node[0]
        node = stack.pop()
        out.append(node[1])
        node = node[2]
    return tuple(out)


def levels(tree) -> tuple:
    """One tuple of values per depth, left to right, breadth first."""
    out, layer = [], [tree] if tree is not None else []
    while layer:
        out.append(tuple(node[1] for node in layer))
        layer = [child for node in layer for child in (node[0], node[2])
                 if child is not None]
    return tuple(out)


# -- graphs ----------------------------------------------------------------------


def edges_of(g: dict) -> frozenset:
    return frozenset((v, w) for v, succ in g.items() for w in succ)


def graph_outcome(g: dict) -> tuple:
    """Comparable form of a graph: (vertex set, edge set)."""
    return frozenset(g), edges_of(g)


def g_union(a: dict, b: dict) -> dict:
    empty = frozenset()
    return {v: a.get(v, empty) | b.get(v, empty) for v in a.keys() | b.keys()}


def g_intersect(a: dict, b: dict) -> dict:
    return {v: a[v] & b[v] for v in a.keys() & b.keys()}


def g_complement(a: dict) -> dict:
    dom = frozenset(a)
    return {v: dom - a[v] for v in a}


def g_mirror(a: dict) -> dict:
    out = {v: set() for v in a}
    for v, succ in a.items():
        for w in succ:
            out[w].add(v)
    return {v: frozenset(s) for v, s in out.items()}


def g_copy_vertices(a: dict) -> dict:
    return {v: frozenset() for v in a}


def g_union_vertex_pass(a: dict, b: dict) -> dict:
    """After union's vertex pass: all vertices, only ``b``'s edges."""
    empty = frozenset()
    return {v: b.get(v, empty) for v in a.keys() | b.keys()}


def g_intersect_vertex_pass(a: dict, b: dict) -> dict:
    """After intersect's vertex pass: shared vertices, no edges."""
    return {v: frozenset() for v in a.keys() & b.keys()}


def path_ok(g: dict, path) -> bool:
    """Every element a vertex, every consecutive pair an edge."""
    for i, x in enumerate(path):
        if x not in g:
            return False
        if i and x not in g[path[i - 1]]:
            return False
    return True


# -- expected violations -----------------------------------------------------------
#
# Each fault shape is built so that its first detectable symptom is known.
# The rules below give the violation kind and the step (the length of the
# visited sequence when it is detected) from the construction parameters.


def first_mismatch(produced, source) -> int:
    """Index of the first element of ``produced`` that breaks being a prefix
    of ``source`` (a longer ``produced`` breaks at ``len(source)``)."""
    for i, x in enumerate(produced):
        if i >= len(source) or x != source[i]:
            return i
    raise ValueError("produced sequence is a prefix of the source")


def expect_wrong_init() -> tuple:
    """Fold started from a wrong accumulator: caught before any step."""
    return ("violation", "InvariantViolatedInitially", 0)


def expect_dropped_effect(drop_at: int) -> tuple:
    """Iteration whose consumer skips the effect of element ``drop_at``:
    the sink diverges once that element has been visited."""
    return ("violation", "InvariantViolated", drop_at + 1)


def expect_reyield(produced, source) -> tuple:
    """Producer that yields an element twice, under a prefix-of-source
    ``permitted``: rejected once the first wrong element is visited."""
    return ("violation", "PermittedViolated",
            first_mismatch(produced, source) + 1)


def expect_model_mismatch(at: int) -> tuple:
    """Sum invariant stated over a model differing from the input only at
    index ``at``: fails once that element has been folded."""
    return ("violation", "InvariantViolated", at + 1)


def expect_permitted_mismatch(at: int) -> tuple:
    """``permitted`` compares with a reference differing only at ``at``."""
    return ("violation", "PermittedViolated", at + 1)


def expect_double_step_measure(n: int) -> tuple:
    """Measure ``len c - 2 * len v`` on ``n`` elements: first negative
    before the step taken with ``n // 2 + 1`` elements visited."""
    return ("violation", "ConvergenceNegative", n // 2 + 1)
