r"""Finite directed graphs as a logical model, with checked iteration.

A graph is a finite vertex set ``dom`` plus a total successor map ``suc``
that is empty outside ``dom`` and closed inside it. All operations are
value-semantic: builders return new graphs.

The derived operations (union, intersect, complement, mirror, copy_vertices,
check_path) are deliberately implemented as checked folds/iterations, so
every intermediate state is validated while the operation runs. Their step
invariants are written in the annotation language and parsed once, at
import; ``UNION_INNER``, the inner level of union's edge completion, reads::

    (fun g1 g2 src visited' acc' visited acc ->
           acc'.dom = union g1.dom g2.dom
        /\ (forall u. mem u (diff acc'.dom (setof visited)) ->
              acc'.suc u = g2.suc u)
        /\ (forall u. mem u visited -> not u = src ->
              acc'.suc u = union (g1.suc u) (g2.suc u))
        /\ acc'.suc src = union (setof visited') (g2.suc src))

Each operation needing edge insertion first completes the result's vertex
set with a plain fold (add_edge requires both endpoints present), then runs
the nested edge-completing fold.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Mapping

from .containers import seq_cursor, set_cursor
from .dsl.parser import parse_term_text
from .engine import EMPTY_CONTEXT, ClientContract, checked_fold, checked_iter
from .errors import PreconditionError
from .terms import Closure, apply_lambda, eval_term
from .values import CellRef, EMPTY_SET, FiniteSet, Value, value_key


class GraphModel:
    """Immutable graph: vertex set ``dom`` and successor map ``suc``.

    A graph's successor map is one row (a :class:`FiniteSet`) per vertex
    with successors, kept both in key order (``_suc``) and by vertex key
    (``_suc_by_key``). Builders share what they do not change:
    :func:`add_vertex` and :meth:`copy` share both, and :func:`add_edge`
    replaces one row and shares the others, so an unchanged row is the
    identical object in every later graph. ``g.suc`` in the term language
    is one callable per successor map. A graph holds only values with a
    structural key and never changes, so it is closed (``_closed_``).

    Graphs built from one another share a change log, as the views of a
    visited sequence share their log: ``_log`` is an append-only list of
    ``(source key, target key)`` pairs, one per edge that :func:`add_edge`
    added, and the graph has the first ``_at`` of them. :func:`add_vertex`
    and :meth:`copy` change no row, so they keep their graph's place.
    :func:`add_edge` appends to the log when its graph is the log's last
    member; a graph forked from an older member starts a log of its own.
    The edges by which two members of one log differ are a slice of it
    (:meth:`_delta_`), so a check that read some rows of one graph can tell
    which of them differ in the other without reading any. Each graph keeps
    its whole log alive.
    """

    __slots__ = ("dom", "_suc", "_suc_by_key", "_suc_fn", "_log", "_at")
    _closed_ = True

    def __init__(self, dom: Iterable[Value] = (),
                 suc: Mapping[Value, Iterable[Value]] | None = None):
        self.dom = dom if isinstance(dom, FiniteSet) else FiniteSet(dom)
        entries = []
        for v, targets in (suc or {}).items():
            targets = targets if isinstance(targets, FiniteSet) else FiniteSet(targets)
            if not targets:
                continue
            if v not in self.dom:
                raise ValueError(
                    f"graph invariant violated: {v!r} has successors but is "
                    f"outside the vertex set"
                )
            for t in targets:
                if t not in self.dom:
                    raise ValueError(
                        f"graph invariant violated: successor {t!r} of {v!r} "
                        f"is outside the vertex set"
                    )
            entries.append((v, targets))
        entries.sort(key=_row_key)
        self._suc = tuple(entries)
        self._suc_by_key = {value_key(v): targets for v, targets in entries}
        self._suc_fn = None
        self._log, self._at = [], 0

    @classmethod
    def _sharing(cls, dom: FiniteSet, suc: tuple, suc_by_key: dict,
                 suc_fn: "Successors | None", log: list, at: int) -> "GraphModel":
        """A graph made of these parts, shared, not copied or checked, at
        place ``at`` of change log ``log``."""
        g = object.__new__(cls)
        g.dom, g._suc, g._suc_by_key, g._suc_fn = dom, suc, suc_by_key, suc_fn
        g._log, g._at = log, at
        return g

    def suc(self, v: Value) -> FiniteSet:
        return self._suc_by_key.get(value_key(v), EMPTY_SET)

    # accessors used by the term evaluator for ``g.dom`` / ``g.suc``
    def field_dom(self) -> FiniteSet:
        return self.dom

    def field_suc(self) -> "Successors":
        fn = self._suc_fn
        if fn is None:
            fn = self._suc_fn = Successors(self._suc_by_key)
        return fn

    def copy(self) -> "GraphModel":
        return GraphModel._sharing(self.dom, self._suc, self._suc_by_key,
                                   self.field_suc(), self._log, self._at)

    def _delta_(self, other: "GraphModel") -> "set | None":
        """The edges ``(source key, target key)`` that one of the two graphs
        has and the other lacks, when both are members of one change log;
        None when they are not."""
        if other._log is not self._log:
            return None
        lo, hi = sorted((self._at, other._at))
        return set(self._log[lo:hi])

    def edges(self) -> tuple:
        return tuple((v, t) for v, targets in self._suc for t in targets)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GraphModel)
                and self.dom == other.dom and self._suc == other._suc)

    def __hash__(self) -> int:
        return hash((self.dom, self._suc))

    def _value_key_(self) -> tuple:
        return (5, value_key(self.dom),
                tuple((value_key(v), value_key(t)) for v, t in self._suc))

    def __repr__(self) -> str:
        edges = ", ".join(f"{v!r}->{t!r}" for v, t in self.edges())
        return f"GraphModel(dom={self.dom!r}, edges=[{edges}])"


class Successors:
    """The successor function of one successor map: the value of ``g.suc``.
    It reads a dict that no one changes, so it is closed (``_closed_``)."""

    __slots__ = ("_by_key",)
    _closed_ = True

    def __init__(self, by_key: dict):
        self._by_key = by_key

    def __call__(self, v: Value) -> FiniteSet:
        return self._by_key.get(value_key(v), EMPTY_SET)

    def __repr__(self) -> str:
        return f"<successors of {len(self._by_key)} vertices>"


def _row_key(row: tuple) -> tuple:
    return value_key(row[0])


def empty_graph() -> GraphModel:
    return GraphModel()


def add_vertex(g: GraphModel, v: Value) -> GraphModel:
    """New graph with ``v`` in the vertex set; successors unchanged (and
    shared). ``g`` itself when ``v`` is already a vertex."""
    dom = g.dom.add(v)
    if dom is g.dom:
        return g
    return GraphModel._sharing(dom, g._suc, g._suc_by_key, g.field_suc(),
                               g._log, g._at)


def add_edge(g: GraphModel, v: Value, w: Value) -> GraphModel:
    """New graph with the edge v->w added. Both endpoints must already be
    vertices, otherwise the closure invariant would break. Only the row of
    ``v``, found by its key, is replaced; ``g`` itself when the edge is
    already there. The edge goes into ``g``'s change log, or into a new one
    when ``g`` is not the last member of its log."""
    if v not in g.dom:
        raise PreconditionError(f"add_edge: source {v!r} is not a vertex")
    if w not in g.dom:
        raise PreconditionError(f"add_edge: target {w!r} is not a vertex")
    key = value_key(v)
    row = g._suc_by_key.get(key, EMPTY_SET)
    new_row = row.add(w)
    if new_row is row:
        return g
    suc = g._suc
    at = bisect_left(suc, key, key=_row_key)
    if row:  # keep the row's vertex, as a dict update keeps its key
        suc = suc[:at] + ((suc[at][0], new_row),) + suc[at + 1:]
    else:
        suc = suc[:at] + ((v, new_row),) + suc[at:]
    suc_by_key = dict(g._suc_by_key)
    suc_by_key[key] = new_row
    log = g._log
    if g._at != len(log):
        log = []
    log.append((key, value_key(w)))
    return GraphModel._sharing(g.dom, suc, suc_by_key, None, log, len(log))


def copy(g: GraphModel) -> GraphModel:
    return g.copy()


def graph_of(vertices: Iterable[Value],
             edges: Iterable[tuple] = ()) -> GraphModel:
    """Convenience builder going through add_vertex/add_edge."""
    g = empty_graph()
    for v in vertices:
        g = add_vertex(g, v)
    for v, w in edges:
        g = add_edge(g, v, w)
    return g


# -- checked iteration over graphs --------------------------------------------

def _remaining_vertices(c: GraphModel, v: tuple) -> int:
    return len(c.dom) - len(v)


def _remaining_successors(c: tuple, v: tuple) -> int:
    g, s = c
    return len(g.suc(s)) - len(v)


_TRUE_INV = lambda *args: True


def fold_vertex(consumer: Callable[[Value, Value], Value], g: GraphModel,
                init: Value, *, inv=None, ctx=None) -> Value:
    """Checked fold over the graph's vertices (as a set cursor over dom)."""
    return checked_fold(
        consumer, init, set_cursor(g.dom),
        ClientContract(
            inv=inv if inv is not None else _TRUE_INV,
            convergence=_remaining_vertices,
            collection=g,
        ),
        ctx=ctx,
    )


def fold_succ(consumer: Callable[[Value, Value], Value], init: Value,
              g: GraphModel, s: Value, *, inv=None, ctx=None) -> Value:
    """Checked fold over the successors of ``s`` in ``g``; the collection
    being iterated is the pair (g, s)."""
    if s not in g.dom:
        raise PreconditionError(f"fold_succ: {s!r} is not a vertex")
    return checked_fold(
        consumer, init, set_cursor(g.suc(s)),
        ClientContract(
            inv=inv if inv is not None else _TRUE_INV,
            convergence=_remaining_successors,
            collection=(g, s),
        ),
        ctx=ctx,
    )


# -- step invariants, in the annotation language -----------------------------
#
# Parameter convention matches the engine: per level the visited sequence
# comes first, then the accumulator; enclosing levels follow, nearest first.
# Leading graph/vertex parameters are fixed by partial application.

def _spec(text: str) -> Closure:
    return eval_term(parse_term_text(text), {})


# vertex-completion pass of union: dom grows with the visited vertices,
# successors still exactly those of g2
UNION_VERTICES = _spec(r"""(fun g1 g2 visited acc ->
       acc.dom = union (setof visited) g2.dom
    /\ (forall u. mem u acc.dom -> acc.suc u = g2.suc u))""")

# edge-completion pass of union, outer level
UNION_OUTER = _spec(r"""(fun g1 g2 visited acc ->
       acc.dom = union g1.dom g2.dom
    /\ (forall u. mem u visited -> acc.suc u = union (g1.suc u) (g2.suc u))
    /\ (forall u. mem u (diff acc.dom (setof visited)) ->
          acc.suc u = g2.suc u))""")

# edge-completion pass of union, inner level: the current source vertex
# accumulates its successors one by one
UNION_INNER = _spec(r"""(fun g1 g2 src visited' acc' visited acc ->
       acc'.dom = union g1.dom g2.dom
    /\ (forall u. mem u (diff acc'.dom (setof visited)) ->
          acc'.suc u = g2.suc u)
    /\ (forall u. mem u visited -> not u = src ->
          acc'.suc u = union (g1.suc u) (g2.suc u))
    /\ acc'.suc src = union (setof visited') (g2.suc src))""")

INTERSECT_VERTICES = _spec(r"""(fun g1 g2 visited acc ->
       acc.dom = inter (setof visited) g2.dom
    /\ (forall u. mem u acc.dom -> acc.suc u = emptyset))""")

INTERSECT_OUTER = _spec(r"""(fun g1 g2 visited acc ->
       acc.dom = inter g1.dom g2.dom
    /\ (forall u. mem u (inter (setof visited) acc.dom) ->
          acc.suc u = inter (g1.suc u) (g2.suc u))
    /\ (forall u. mem u (diff acc.dom (setof visited)) ->
          acc.suc u = emptyset))""")

INTERSECT_INNER = _spec(r"""(fun g1 g2 src visited' acc' visited acc ->
       acc'.dom = inter g1.dom g2.dom
    /\ acc'.suc src = inter (setof visited') (g2.suc src)
    /\ (forall u. mem u (inter (setof visited) acc'.dom) -> not u = src ->
          acc'.suc u = inter (g1.suc u) (g2.suc u))
    /\ (forall u. mem u (diff acc'.dom (setof visited)) ->
          acc'.suc u = emptyset))""")

# building an edgeless copy of the vertex set (used standalone by
# copy_vertices and as the seeding pass of complement and mirror)
VERTEX_COPY = _spec(r"""(fun visited acc ->
       acc.dom = setof visited
    /\ (forall u. mem u acc.dom -> acc.suc u = emptyset))""")

COMPLEMENT_OUTER = _spec(r"""(fun g visited acc ->
       acc.dom = g.dom
    /\ (forall u. mem u visited -> acc.suc u = diff g.dom (g.suc u))
    /\ (forall u. mem u (diff g.dom (setof visited)) ->
          acc.suc u = emptyset))""")

COMPLEMENT_INNER = _spec(r"""(fun g src visited' acc' visited acc ->
       acc'.dom = g.dom
    /\ acc'.suc src = diff (setof visited') (g.suc src)
    /\ (forall u. mem u visited -> not u = src ->
          acc'.suc u = diff g.dom (g.suc u))
    /\ (forall u. mem u (diff g.dom (setof visited)) ->
          acc'.suc u = emptyset))""")

MIRROR_OUTER = _spec(r"""(fun g visited acc ->
       acc.dom = g.dom
    /\ (forall u. mem u g.dom -> forall w. mem w g.dom ->
          mem w (acc.suc u) = (mem w (setof visited) /\ mem u (g.suc w))))""")

MIRROR_INNER = _spec(r"""(fun g src visited' acc' visited acc ->
       acc'.dom = g.dom
    /\ (forall u. mem u g.dom -> forall w. mem w g.dom ->
          mem w (acc'.suc u)
          = (mem w (setof visited) /\ not w = src /\ mem u (g.suc w)
             \/ w = src /\ mem u (setof visited'))))""")

# flag mirrors whether the visited prefix is a valid path in g
CHECK_PATH_INV = _spec(r"""(fun g flag visited ->
    flag = ((forall i. 0 <= i < len visited -> mem visited[i] g.dom)
            /\ (forall i. 1 <= i < len visited ->
                  mem visited[i] (g.suc visited[i - 1]))))""")

#: named step predicates, exposed to scenario environments
GRAPH_PREDICATES = {
    "union_vertices": UNION_VERTICES,
    "union_outer": UNION_OUTER,
    "union_inner": UNION_INNER,
    "intersect_vertices": INTERSECT_VERTICES,
    "intersect_outer": INTERSECT_OUTER,
    "intersect_inner": INTERSECT_INNER,
    "vertex_copy": VERTEX_COPY,
    "complement_outer": COMPLEMENT_OUTER,
    "complement_inner": COMPLEMENT_INNER,
    "mirror_outer": MIRROR_OUTER,
    "mirror_inner": MIRROR_INNER,
    "check_path_inv": CHECK_PATH_INV,
}


def union_outer(g1: GraphModel, g2: GraphModel) -> Closure:
    """Outer-level step invariant of union, awaiting (visited, acc)."""
    return apply_lambda(UNION_OUTER, [g1, g2])


def union_inner(g1: GraphModel, g2: GraphModel, src: Value) -> Closure:
    """Inner-level step invariant of union, awaiting
    (visited', acc', visited, acc)."""
    return apply_lambda(UNION_INNER, [g1, g2, src])


# -- edge-completion steps -----------------------------------------------------
# For each vertex v of the outer fold: add v, then complete its edges with a
# nested checked fold under the operation's inner step predicate.

Step = Callable[[GraphModel, Value], GraphModel]


def union_step(g1: GraphModel, g2: GraphModel) -> Step:
    def step(acc, v):
        return fold_succ(lambda a, e: add_edge(a, v, e),
                         add_vertex(acc, v), g1, v,
                         inv=apply_lambda(UNION_INNER, [g1, g2, v]))
    return step


def intersect_step(g1: GraphModel, g2: GraphModel) -> Step:
    def step(acc, v):
        if v not in acc.dom:
            return acc
        return fold_succ(
            lambda a, e: add_edge(a, v, e) if e in g2.suc(v) else a,
            add_vertex(acc, v), g1, v,
            inv=apply_lambda(INTERSECT_INNER, [g1, g2, v]))
    return step


def complement_step(g: GraphModel) -> Step:
    def step(acc, v):
        return fold_vertex(
            lambda a, u: a if u in g.suc(v) else add_edge(a, v, u),
            g, add_vertex(acc, v),
            inv=apply_lambda(COMPLEMENT_INNER, [g, v]))
    return step


def mirror_step(g: GraphModel) -> Step:
    def step(acc, v):
        return fold_succ(lambda a, e: add_edge(a, e, v),
                         add_vertex(acc, v), g, v,
                         inv=apply_lambda(MIRROR_INNER, [g, v]))
    return step


def path_step(g: GraphModel, flag: CellRef) -> Callable[[Value], None]:
    """Iteration step of check_path: ``flag`` stays true while the elements
    seen so far are vertices and consecutive ones are edges."""
    prev, started = CellRef(None), CellRef(False)

    def step(x):
        ok = x in g.dom and (not started.value or x in g.suc(prev.value))
        flag.value = flag.value and ok
        prev.value, started.value = x, True
    return step


# -- derived operations --------------------------------------------------------

def union(g1: GraphModel, g2: GraphModel) -> GraphModel:
    """Graph with the union of both vertex sets and, per vertex, the union
    of both successor sets."""
    base = fold_vertex(add_vertex, g1, copy(g2),
                       inv=apply_lambda(UNION_VERTICES, [g1, g2]),
                       ctx=EMPTY_CONTEXT)
    return fold_vertex(union_step(g1, g2), g1, base,
                       inv=apply_lambda(UNION_OUTER, [g1, g2]),
                       ctx=EMPTY_CONTEXT)


def intersect(g1: GraphModel, g2: GraphModel) -> GraphModel:
    """Graph with the intersection of both vertex sets and, per kept vertex,
    the intersection of both successor sets."""
    base = fold_vertex(
        lambda a, v: add_vertex(a, v) if v in g2.dom else a,
        g1, empty_graph(),
        inv=apply_lambda(INTERSECT_VERTICES, [g1, g2]),
        ctx=EMPTY_CONTEXT)
    return fold_vertex(intersect_step(g1, g2), g1, base,
                       inv=apply_lambda(INTERSECT_OUTER, [g1, g2]),
                       ctx=EMPTY_CONTEXT)


def copy_vertices(g: GraphModel) -> GraphModel:
    """Edgeless graph on the same vertex set."""
    return fold_vertex(add_vertex, g, empty_graph(), inv=VERTEX_COPY,
                       ctx=EMPTY_CONTEXT)


def complement(g: GraphModel) -> GraphModel:
    """Graph on the same vertices whose successor sets are the set
    difference dom minus the original successors (plain difference, so a
    vertex without a self-loop gains one)."""
    return fold_vertex(complement_step(g), g, copy_vertices(g),
                       inv=apply_lambda(COMPLEMENT_OUTER, [g]),
                       ctx=EMPTY_CONTEXT)


def mirror(g: GraphModel) -> GraphModel:
    """Graph with every edge reversed."""
    return fold_vertex(mirror_step(g), g, copy_vertices(g),
                       inv=apply_lambda(MIRROR_OUTER, [g]),
                       ctx=EMPTY_CONTEXT)


def check_path(g: GraphModel, path: tuple) -> bool:
    """True iff every element of ``path`` is a vertex and every consecutive
    pair is an edge. Empty and singleton-vertex paths are valid."""
    path = tuple(path)
    flag = CellRef(True)
    checked_iter(
        path_step(g, flag), seq_cursor(path),
        ClientContract(
            inv=apply_lambda(CHECK_PATH_INV, [g, flag]),
            convergence=lambda c, v: len(c) - len(v),
            collection=path,
        ),
        ctx=EMPTY_CONTEXT,
    )
    return flag.value
