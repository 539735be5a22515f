"""Incremental graph invariants: key-level set algebra, structurally shared
graphs, derived values kept on the values they come from, and the binding
memo of ``forall x in S``.

A set operation must give the set, the elements and the text that
rebuilding through ``FiniteSet(...)`` gives. A graph builder must share the
rows it does not change. A set quantifier that remembers its bindings must
agree with the reference interpreter however its inputs change between
checks, and the graph operations must report every planted fault exactly as
they do when each invariant is evaluated afresh by that interpreter.
"""

import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from unfold import (
    ClientContract, ContractViolation, EvaluationError, checked_fold,
    collect_stats, containers, create_cursor, engine, graphs, seq_cursor, terms,
)
from unfold.containers import LEAF, Node
from unfold.dsl.parser import parse_term_text
from unfold.graphs import GraphModel, Successors, add_edge, add_vertex, graph_of
from unfold.terms import (
    App, Cmp, Field, ForallMem, ForallRange, Implies, Index, IntLit, Len, Mem,
    SetOf, Var,
)
from unfold.values import EMPTY_SET, CellRef, FiniteSet, SeqView

import reference_eval

# -- set algebra on keys ----------------------------------------------------------------

ELEMS = st.one_of(st.integers(-3, 3), st.booleans(), st.integers(250, 262),
                  st.tuples(st.integers(0, 2), st.booleans()))


def assert_same_set(got: FiniteSet, want: FiniteSet) -> None:
    assert got._keys == want._keys
    assert len(got.elems) == len(want.elems)
    assert all(map(operator.is_, got.elems, want.elems))
    assert got._index.keys() == want._index.keys()
    assert all(got._index[k] is want._index[k] for k in want._index)
    assert repr(got) == repr(want)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=400, deadline=None)
@given(st.lists(ELEMS, max_size=8), st.lists(ELEMS, max_size=8), ELEMS)
def test_set_algebra_equals_the_rebuild(xs, ys, v):
    a, b = FiniteSet(xs), FiniteSet(ys)
    cases = (
        (a.union(b), FiniteSet(a.elems + b.elems)),
        (a.inter(b), FiniteSet(e for e in a.elems if e in b)),
        (a.diff(b), FiniteSet(e for e in a.elems if e not in b)),
        (a.add(v), FiniteSet(a.elems + (v,))),
    )
    for got, want in cases:
        assert_same_set(got, want)
        for probe in xs + ys + [v]:
            assert (probe in got) == (probe in want)


def test_an_unchanged_set_is_the_operand_itself():
    a, b = FiniteSet([1, 2, 3]), FiniteSet([2, 3])
    assert a.union(b) is a and b.union(a) is a
    assert a.inter(b) is b and b.inter(a) is b
    assert a.diff(FiniteSet([7])) is a
    assert a.add(2) is a
    # on equal keys the left operand's element wins
    assert FiniteSet([1]).union(FiniteSet([True])).elems[0] is 1
    assert FiniteSet([True]).union(FiniteSet([1, 2])).elems[0] is True
    assert FiniteSet([True, 2]).inter(FiniteSet([1, 2])).elems[0] is True


# -- graphs that share their rows ---------------------------------------------------------

def test_add_edge_replaces_one_row_and_shares_the_others():
    g = graph_of(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    h = add_edge(g, 2, 4)
    assert h.dom is g.dom
    assert all(h.suc(v) is g.suc(v) for v in (0, 1, 3, 4))
    assert h.suc(2) == FiniteSet([3, 4]) and g.suc(2) == FiniteSet([3])
    assert h == GraphModel(range(5), {0: [1], 1: [2], 2: [3, 4], 3: [4]})
    assert add_edge(h, 2, 4) is h
    # a new row goes in key order
    k = add_edge(h, 4, 0)
    assert k.edges() == ((0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (4, 0))
    # add_vertex and copy share every row and the successor function
    for shared in (add_vertex(h, 9), h.copy()):
        assert all(shared.suc(v) is h.suc(v) for v in range(5))
        assert shared.field_suc() is h.field_suc()
    assert add_vertex(h, 3) is h
    assert h.field_suc() is h.field_suc()
    assert isinstance(h.field_suc(), Successors)


def test_two_vertices_sharing_one_row_object_keep_their_own_rows():
    row = FiniteSet([2])
    g = GraphModel([0, 1, 2], {0: row, 1: row})
    h = add_edge(g, 1, 0)
    assert h.suc(0) is row and h.suc(1) == FiniteSet([0, 2])
    assert h.edges() == ((0, 2), (1, 0), (1, 2))
    k = add_edge(g, 0, 1)
    assert k.suc(1) is row and k.suc(0) == FiniteSet([1, 2])
    assert k.edges() == ((0, 1), (0, 2), (1, 2))
    assert g.edges() == ((0, 2), (1, 2))


def test_a_graphs_suc_is_equal_only_to_the_suc_of_the_same_successor_map():
    # a function value equals only itself, and ``g.suc`` is one function per
    # successor map, shared by the graphs that share the map
    g = graph_of(range(3), [(0, 1)])
    same = Cmp("=", Field(Var("g"), "suc"), Field(Var("h"), "suc"))
    for h, equal in ((g, True), (g.copy(), True), (add_vertex(g, 7), True),
                     (add_edge(g, 1, 2), False), (add_edge(g, 0, 1), True),
                     (graph_of(range(3), [(0, 1)]), False)):
        assert agree(same, {"g": g, "h": h}) == ("value", equal)


# -- the binding memo -----------------------------------------------------------------------

def agree(t, env):
    """Evaluate ``t`` compiled and by the reference interpreter."""
    def outcome(evaluate):
        try:
            return ("value", evaluate(t, env))
        except EvaluationError as exc:
            return ("raised", str(exc))
    got = outcome(terms.eval_term)
    assert got == outcome(reference_eval.eval_term)
    return got


def test_a_cell_read_by_an_observation_is_read_again_after_a_change():
    # "mem x c" is an observation; its value is a closed boolean, but the
    # cell it reads may change between checks
    t = ForallMem("x", Var("S"), Mem(Var("x"), Var("c")))
    cell = CellRef(FiniteSet([1, 2, 3]))
    env = {"S": FiniteSet([1, 2, 3]), "c": cell}
    assert agree(t, env) == ("value", True)
    cell.value = FiniteSet([1, 2])
    assert agree(t, env) == ("value", False)
    cell.value = (1, 2, 3)
    assert agree(t, env) == ("value", True)
    cell.value = (3,)
    assert agree(t, env) == ("value", False)


def test_a_cell_read_directly_by_the_body_is_never_trusted():
    t = ForallMem("x", Var("S"), Cmp("<", Var("x"), Var("c")))
    cell = CellRef(9)
    env = {"S": FiniteSet([1, 5]), "c": cell}
    assert agree(t, env) == ("value", True)
    cell.value = 5
    assert agree(t, env) == ("value", False)


class _Tagged:
    """A value whose field ``tag`` maps every argument to its current tag."""

    def __init__(self, tag):
        self.tag = tag

    def field_tag(self):
        return lambda x: self.tag


def test_an_equal_but_distinct_string_is_evaluated_again():
    # strings compare by identity (value_eq), so the memo must not take an
    # equal string for the one it saw
    first = "".join(["tag"] * 20)
    second = "".join(["tag"] * 20)
    assert first == second and first is not second
    obj = _Tagged(first)
    t = ForallMem("x", Var("S"), Cmp("=", App(Field(Var("o"), "tag"), (Var("x"),)),
                                     Var("k")))
    env = {"S": FiniteSet([1, 2]), "o": obj, "k": first}
    assert agree(t, env) == ("value", True)
    obj.tag = second
    assert agree(t, env) == ("value", False)
    obj.tag = first
    assert agree(t, env) == ("value", True)


def test_a_hoisted_subterm_is_read_again_by_each_binding():
    # "setof t" reads no binder: a slot of the quantifier's own memo
    t = ForallMem("x", Var("S"), ForallMem("y", SetOf(Var("t")),
                                           Cmp("<", Var("x"), Var("y"))))
    env = {"S": FiniteSet([1, 2]), "t": (5, 6)}
    assert agree(t, env) == ("value", True)
    env["t"] = (3, 1)
    assert agree(t, env) == ("value", False)


def test_a_hoisted_subterm_of_a_cell_is_never_kept():
    cell = CellRef((1, 2, 3))
    over_set = ForallMem("x", Var("S"), Cmp("<", Var("x"), Len(Var("c"))))
    over_prefix = ForallRange("i", IntLit(0), Len(Var("v")), Cmp(
        "<", Index(Var("v"), Var("i")), Len(Var("c"))))
    env = {"S": FiniteSet([1, 2]), "v": (1, 2), "c": cell}
    for t in (over_set, over_prefix):
        cell.value = (1, 2, 3)
        assert agree(t, env) == ("value", True)
        cell.value = (1,)
        assert agree(t, env) == ("value", False)


class _Lookup:
    """A value whose field ``at`` is one function, reading mutable data."""

    def __init__(self, data):
        self.data = data
        self._at = lambda y: self.data[y]

    def field_at(self):
        return self._at


def test_a_function_read_by_a_binding_is_never_kept():
    obj = _Lookup({1: 1})
    t = ForallMem("x", Var("S"), ForallMem("y", Var("T"), Cmp(
        "<", App(Field(Var("o"), "at"), (Var("y"),)), Var("x"))))
    env = {"S": FiniteSet([5]), "T": FiniteSet([1]), "o": obj}
    assert agree(t, env) == ("value", True)
    obj.data[1] = 9
    assert agree(t, env) == ("value", False)


def test_a_failing_binding_is_evaluated_again_with_the_same_message():
    g = graph_of([0, 1, 2], [(0, 1), (1, 2)])
    # binding 1 raises (index out of range), bindings 0 and 2 hold
    raising = ForallMem("u", Field(Var("g"), "dom"), Implies(
        Mem(Var("u"), App(Field(Var("g"), "suc"), (IntLit(0),))),
        Cmp("=", Index(Var("s"), Var("u")), IntLit(0))))
    env = {"g": g, "s": (0,)}
    failing = ("raised", "index 1 out of range for sequence of length 1")
    assert agree(raising, env) == failing
    assert agree(raising, env) == failing
    # a false binding stays false
    false = ForallMem("u", Field(Var("g"), "dom"),
                      Cmp("<", Len(App(Field(Var("g"), "suc"), (Var("u"),))),
                          IntLit(1)))
    assert agree(false, env) == ("value", False)
    assert agree(false, env) == ("value", False)
    assert agree(false, {"g": graph_of([0, 1, 2])}) == ("value", True)


def test_an_unchanged_binding_reads_nothing_and_a_new_edge_only_its_pair(
        monkeypatch):
    from unfold.graphs import MIRROR_INNER

    g = graph_of([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    acc = graph_of([0, 1, 2], [(1, 0), (2, 0), (2, 1)])
    calls = []
    call = Successors.__call__
    monkeypatch.setattr(Successors, "__call__",
                        lambda self, v: calls.append(v) or call(self, v))
    inv = terms.apply_lambda(MIRROR_INNER, [g, 1])
    assert terms.apply_lambda(inv, [(2,), acc, (0,), acc]) is True
    assert len(calls) > 3
    calls.clear()
    # nothing changed: no binding is evaluated, no row is read
    assert terms.apply_lambda(inv, [(2,), acc, (0,), acc]) is True
    assert calls == []
    # acc' gains the edge 0 -> 0: only the pair (u, w) = (0, 0) probed it,
    # and it reads acc'.suc 0 and g.suc 0 and fails
    wrong = add_edge(acc, 0, 0)
    args = [(2,), wrong, (0,), acc]
    assert terms.apply_lambda(inv, args) is False
    assert calls == [0, 0]
    assert reference_eval.apply_lambda(
        reference_eval.apply_lambda(MIRROR_INNER, [g, 1]), args) is False


def test_a_rebound_or_non_set_quantifier_agrees_too():
    s = FiniteSet([0, 1, 2])
    shadowed = ForallMem("x", Var("S"), ForallMem("x", Var("S"),
                                                  Cmp("<", Var("x"), IntLit(2))))
    ranged = ForallRange("i", IntLit(0), IntLit(3), ForallMem(
        "x", Var("S"), Cmp("<", Var("x"), Var("i"))))
    for t in (shadowed, ranged):
        for env in ({"S": s}, {"S": FiniteSet([0, 1])}, {"S": s}):
            agree(t, env)


# -- change sets: only the bindings a change reached are evaluated again ----------------------

def outcome(t, env, evaluate) -> tuple:
    try:
        return ("value", evaluate(t, env))
    except Exception as exc:  # noqa: BLE001 - both evaluators must agree on it
        return ("raised", type(exc), str(exc))


# invariants parsed afresh for each example, so that each binding memo
# starts empty and sees that example's inputs only
DELTA_TEXTS = (
    # the pair form, as in mirror: every probe shape
    r"""forall u. mem u g.dom -> forall w. mem w g.dom ->
          mem w (h.suc u) = (mem w S /\ not w = src /\ mem u (g.suc w)
                             \/ w = src /\ mem u c)""",
    # one binder, rows read whole, a domain that shrinks and grows
    r"forall u. mem u (diff h.dom S) -> h.suc u = g.suc u",
    r"forall u. mem u v -> not u = src -> len (h.suc u) <= len (g.suc u) + 1",
    # the inner domain reads the outer variable: not the pair form
    r"forall u. mem u S -> forall w. mem w (h.suc u) -> mem u (g.suc w) \/ w = src",
    # the outer domain may be empty, the inner one may not be a set, and a
    # false pair may come before a raising one
    r"forall u. mem u S -> forall w. mem w T -> u < w \/ v[w] = u",
    # a cell read through a probe, and a domain that is a sequence
    r"forall u. mem u v -> mem u c \/ u = src",
    # a binding that may be a cell, read by no probe
    r"forall u. mem u v -> u < 4",
)

VERTICES = st.integers(0, 4)
STEPS = st.one_of(
    st.tuples(st.just("edge"), VERTICES, VERTICES),
    st.tuples(st.just("fork"), st.integers(0, 8), VERTICES, VERTICES),
    st.tuples(st.just("shared"), st.lists(VERTICES, max_size=3)),
    st.tuples(st.just("g edge"), VERTICES, VERTICES),
    st.tuples(st.just("vertex"), st.integers(6, 8)),
    st.tuples(st.just("S"), st.frozensets(VERTICES, max_size=6)),
    st.tuples(st.just("T"), st.one_of(st.frozensets(VERTICES, max_size=4),
                                      st.integers(0, 3))),
    st.tuples(st.just("src"), VERTICES),
    st.tuples(st.just("grow"), st.one_of(VERTICES, st.just("k"))),
    st.tuples(st.just("k"), st.integers(0, 6)),
    st.tuples(st.just("tuple")),
    st.tuples(st.just("cell"), st.one_of(st.frozensets(VERTICES, max_size=4),
                                         st.lists(VERTICES, max_size=3))),
)


def _apply_step(env: dict, history: list, log: list, step: tuple) -> None:
    kind, *args = step
    if kind == "edge":
        env["h"] = add_edge(env["h"], *args)
        history.append(env["h"])
    elif kind == "fork":  # a graph forked from an older member of its log
        env["h"] = add_edge(history[args[0] % len(history)], *args[1:])
        history.append(env["h"])
    elif kind == "shared":  # one row object for two vertices
        row = FiniteSet(args[0])
        env["h"] = GraphModel(range(6), {0: row, 1: row, 2: FiniteSet([3])})
        history.append(env["h"])
    elif kind == "g edge":
        env["g"] = add_edge(env["g"], *args)
    elif kind == "vertex":
        env["h"] = add_vertex(env["h"], *args)
        history.append(env["h"])
    elif kind == "S":
        env["S"] = FiniteSet(args[0])
    elif kind == "T":
        env["T"] = args[0] if isinstance(args[0], int) else FiniteSet(args[0])
    elif kind == "src":
        env["src"] = args[0]
    elif kind == "grow":  # a longer view of the same append-only log
        log.append(env["k"] if args[0] == "k" else args[0])
        env["v"] = SeqView(log, len(log))
    elif kind == "k":
        env["k"].value = args[0]
    elif kind == "tuple":  # an equal tuple in place of the view
        env["v"] = tuple(env["v"])
    else:
        env["c"].value = (FiniteSet(args[0]) if isinstance(args[0], frozenset)
                          else tuple(args[0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(STEPS, st.booleans()), max_size=25))
# a fork from the first graph with its next edge, then with another edge
@example([(("edge", 0, 3), True), (("fork", 0, 0, 3), True),
          (("fork", 0, 4, 0), True), (("edge", 4, 4), True)])
# one row object shared by two vertices, which then part
@example([(("shared", [2]), True), (("edge", 1, 0), True), (("edge", 0, 4), True)])
# a view that grows, then an equal tuple, then a view again
@example([(("grow", 3), True), (("grow", 4), True), (("tuple",), True),
          (("grow", 1), True)])
# a dirty binding after a failing one, which is not evaluated, then the
# failing one mended
@example([(("edge", 0, 2), False), (("edge", 0, 3), False), (("edge", 2, 3), False),
          (("edge", 2, 4), True), (("src", 0), True)])
# a binding dirty when its domain changes, and again later
@example([(("edge", 0, 2), False), (("grow", 3), True), (("edge", 0, 3), True)])
# a cell read through a probe, and a cell as a binding
@example([(("cell", frozenset([0, 1, 2, 3])), True), (("cell", [2]), True),
          (("grow", "k"), True), (("k", 5), True), (("k", 1), True)])
def test_change_sets_agree_with_the_reference_over_call_sequences(steps):
    # each step changes one input; the terms are checked after the steps
    # marked True, so that several inputs may change between two checks
    log = [0, 2]
    h = graph_of(range(6), [(0, 1), (1, 2), (2, 0), (3, 3)])
    env = {"g": graph_of(range(6), [(0, 1), (2, 0), (4, 5)]), "h": h,
           "S": FiniteSet([0, 1]), "T": FiniteSet([1, 2]), "src": 1,
           "v": SeqView(log, 2), "c": CellRef(FiniteSet([1])), "k": CellRef(1)}
    history, delta_terms = [h], [parse_term_text(text) for text in DELTA_TEXTS]
    for step, check in [(None, True)] + steps:
        if step is not None:
            _apply_step(env, history, log, step)
        for t in delta_terms if check else ():
            want = outcome(t, env, reference_eval.eval_term)
            assert outcome(t, env, terms.eval_term) == want, (t, step)


def test_a_graph_forked_from_an_older_member_starts_a_log_of_its_own():
    g0 = graph_of(range(4), [(0, 1)])
    g1 = add_edge(g0, 1, 2)
    g2 = add_edge(g1, 2, 3)
    assert g1._delta_(g0) == {((0, 1), (0, 2))} == g0._delta_(g1)
    assert g2._delta_(g0) == {((0, 1), (0, 2)), ((0, 2), (0, 3))}
    assert add_vertex(g2, 9)._delta_(g2) == set() == g2.copy()._delta_(g2)
    # the same edge again and a different edge, each from an older member
    same, other = add_edge(g0, 1, 2), add_edge(g1, 3, 0)
    assert same == g1 and same._delta_(g1) is None
    assert other._delta_(g1) is None and other._delta_(g2) is None
    assert add_edge(same, 0, 3)._delta_(same) == {((0, 0), (0, 3))}
    assert FiniteSet([1, 2])._delta_(FiniteSet([2, 3])) == {(0, 1), (0, 3)}


@pytest.mark.parametrize("text, env, want", [
    # the outer domain is empty: the inner one, not a set, is never read
    ("forall u. mem u S -> forall w. mem w T -> u < w", {"T": 3}, ("value", True)),
    # the outer domain is not: the inner one raises at the first u
    ("forall u. mem u S -> forall w. mem w T -> u < w",
     {"S": FiniteSet([1]), "T": 3},
     ("raised", EvaluationError, "quantifier domain must be a set or "
                                 "sequence, got 3")),
    # the pair (1, 0) is false before the pair (1, 2) would raise
    (r"forall u. mem u S -> forall w. mem w S -> u < w \/ v[w] = u",
     {"S": FiniteSet([0, 1, 2]), "v": (0,)}, ("value", False)),
    (r"forall u. mem u S -> forall w. mem w S -> u < w \/ v[w] = w",
     {"S": FiniteSet([0, 1, 2]), "v": (0,)},
     ("raised", EvaluationError, "index 1 out of range for sequence of length 1")),
])
def test_the_pair_form_reads_and_fails_as_the_nested_quantifiers_do(text, env, want):
    t = parse_term_text(text)
    env = dict({"S": EMPTY_SET}, **env)
    for _ in range(2):
        assert outcome(t, env, terms.eval_term) == want
        assert outcome(t, env, reference_eval.eval_term) == want


# -- model reads of the graph operations ----------------------------------------------------

def _seeded_graph(rng, vertices: list, density: float) -> GraphModel:
    """Every vertex gets ``round(density * n)`` distinct random successors."""
    degree = max(round(density * len(vertices)), 1)
    return GraphModel(vertices, {v: sorted(rng.sample(vertices, degree))
                                 for v in vertices})


# Model reads at 16 and 32 vertices: calls of Successors.__call__ and
# FiniteSet.__contains__, the only ways a check reads a row or tests
# membership. Before the change sets they were 32840/255184 (mirror),
# 7816/55760 (complement) and 7200/46536 (union).
MODEL_READS = {"mirror": (5504, 22208), "complement": (1261, 4765),
               "union": (603, 1851)}
READS_BEFORE = {"mirror": 255184, "complement": 55760, "union": 46536}


def test_model_reads_grow_about_quadratically_with_the_vertices(monkeypatch):
    reads = [0]
    call, contains = Successors.__call__, FiniteSet.__contains__

    def counted(method):
        def read(self, v):
            reads[0] += 1
            return method(self, v)
        return read
    monkeypatch.setattr(Successors, "__call__", counted(call))
    monkeypatch.setattr(FiniteSet, "__contains__", counted(contains))
    got = {}
    for n in (16, 32):
        rng = random.Random(7)
        g1 = _seeded_graph(rng, list(range(n)), 0.31)
        g2 = _seeded_graph(rng, list(range(n // 2, n + n // 2)), 0.31)
        for name, run in (("mirror", lambda: graphs.mirror(g1)),
                          ("complement", lambda: graphs.complement(g1)),
                          ("union", lambda: graphs.union(g1, g2))):
            reads[0] = 0
            run()
            got[name] = got.get(name, ()) + (reads[0],)
    assert got == MODEL_READS
    for name, (small, large) in got.items():
        assert large <= 4.5 * small and 4 * large <= READS_BEFORE[name]


# -- derived values kept on the tree a range form reads -------------------------------------

def test_a_tree_permitted_flattens_the_tree_once_per_fold(monkeypatch):
    # every check flattens the same tree, which walks itself once and keeps
    # the result
    walked = []
    in_order = containers._in_order
    monkeypatch.setattr(containers, "_in_order",
                        lambda t: walked.append(t) or in_order(t))
    tree = LEAF
    for k in range(40):
        tree = Node(tree, k, LEAF) if k % 3 else Node(LEAF, k, tree)
    elems = tree.flatten()
    permitted = terms.eval_term(parse_term_text(
        "(fun v -> forall i. 0 <= i < len v -> v[i] = (flatten collection)[i])"),
        {"collection": tree})
    cursor = create_cursor(elems, permitted, lambda v: len(v) == len(elems))
    total = checked_fold(lambda a, x: a + x, 0, cursor, ClientContract(
        inv=lambda v, a: True, convergence=lambda c, v: len(c) - len(v),
        collection=elems))
    assert total == sum(elems)
    assert walked == [tree]


def test_a_set_quantifier_indexing_visited_reads_each_element_once(monkeypatch):
    # the body reads the visited view by index, so the view is a source the
    # memo reads again at every check; a longer view of the same log is
    # checked only past the part already checked, never walked from its
    # start, even though every check starts afresh as "len v" changes
    n = 3000
    inv = terms.eval_term(parse_term_text(
        "(fun v a -> forall x. mem x S -> x < len v -> v[x] >= 0)"),
        {"S": FiniteSet([0, 1, 2])})
    walked = []
    iterate = SeqView.__iter__
    monkeypatch.setattr(SeqView, "__iter__",
                        lambda self: walked.append(len(self)) or iterate(self))
    s = tuple(range(n))
    total = checked_fold(lambda a, x: a + x, 0, seq_cursor(s), ClientContract(
        inv=inv, convergence=lambda c, v: len(c) - len(v), collection=s))
    assert total == sum(s)
    assert sum(walked) <= 2 * n


def test_a_set_quantifier_indexing_an_identical_tuple_checks_it_closed_once(monkeypatch):
    # the tuple is read by index, so it is a source the memo reads again at
    # every check; the same object is known closed and is not walked again
    n = 3000
    big = tuple(range(n))
    inv = terms.eval_term(parse_term_text(
        "(fun v a -> forall x. mem x S -> big[x] >= 0)"),
        {"S": FiniteSet([0, 1, 2]), "big": big})
    walked = []
    closed = terms._closed
    monkeypatch.setattr(terms, "_closed", lambda v: walked.append(
        len(v) if isinstance(v, tuple) else 1) or closed(v))
    s = tuple(range(n))
    total = checked_fold(lambda a, x: a + x, 0, seq_cursor(s), ClientContract(
        inv=inv, convergence=lambda c, v: len(c) - len(v), collection=s))
    assert total == sum(s)
    assert sum(walked) <= 2 * n


def test_an_equal_integer_read_whole_changes_nothing(monkeypatch):
    # "len s" is a hoisted slot; past the small ints, each check computes it
    # as a new int object, which must read as unchanged
    n = 600
    s = tuple(range(n))
    env = {"s": s, "S": FiniteSet(range(20)), "row": SeqView(list(s), n)}
    reads = []
    getitem = SeqView.__getitem__
    monkeypatch.setattr(SeqView, "__getitem__", lambda view, i: (
        type(i) is int and reads.append(i)) or getitem(view, i))
    for text, want in (
            ("(fun v a -> forall i. 0 <= i < len v -> v[i] < len s)", n),
            ("(fun v a -> forall x. mem x S -> row[x] < len s)", 20)):
        inv = terms.eval_term(parse_term_text(text), env)
        reads.clear()
        total = checked_fold(lambda a, x: a + x, 0, seq_cursor(s), ClientContract(
            inv=inv, convergence=lambda c, v: len(c) - len(v), collection=s))
        assert total == sum(s)
        # each binding evaluated once: in full it is n(n + 1)/2, or 20n
        assert len(reads) == want


# -- bounded evaluation errors -----------------------------------------------------------------

def _int_fold(s: tuple, inv_text: str):
    inv = terms.eval_term(parse_term_text(inv_text), {})
    return checked_fold(lambda a, x: a + x, 0, seq_cursor(s), ClientContract(
        inv=inv, convergence=lambda c, v: len(c) - len(v), collection=s))


def test_a_late_evaluation_error_in_a_long_fold_has_a_short_message():
    with pytest.raises(EvaluationError) as exc:
        _int_fold(tuple(range(20000)), r"(fun v a -> len v < 19999 \/ v + 1 = a)")
    text = str(exc.value)
    assert len(text) <= 1024
    assert text.startswith("invariant at step 19999: '+' expected an integer, "
                           "got (0, 1, 2, ")
    assert text.endswith(" ...[elided]")


def test_a_short_evaluation_error_is_unchanged():
    with pytest.raises(EvaluationError) as exc:
        _int_fold((1, 2, 3), r"(fun v a -> len v < 1 \/ v + 1 = a)")
    assert str(exc.value) == ("invariant at step 1: '+' expected an integer, "
                              "got (1,)")


# -- planted faults: the compiled checks against the reference interpreter -----------------

G1 = graph_of(range(5), [(0, 1), (0, 3), (1, 2), (2, 2), (3, 0), (4, 1), (4, 3)])
G2 = graph_of(range(2, 7), [(2, 3), (3, 3), (4, 6), (5, 2), (6, 4), (6, 5)])
# G1 again, forked from an older member of its change log, and G2 as an older
# member of its log, so that the first edge union adds to a copy of it forks
_OLDER = graph_of(range(5), [(0, 1), (0, 3), (1, 2), (2, 2), (3, 0), (4, 1)])
add_edge(_OLDER, 0, 4)
G1_FORKED = add_edge(_OLDER, 4, 3)
G2_OLDER = graph_of(range(2, 7), [(2, 3), (3, 3), (4, 6), (5, 2), (6, 4), (6, 5)])
add_edge(G2_OLDER, 2, 2)
OPERATIONS = {
    "union": lambda: graphs.union(G1, G2),
    "intersect": lambda: graphs.intersect(G1, G2),
    "complement": lambda: graphs.complement(G1),
    "mirror": lambda: graphs.mirror(G1),
    "union_forked": lambda: graphs.union(G1_FORKED, G2_OLDER),
    "mirror_forked": lambda: graphs.mirror(G1_FORKED),
}


def _faulty(monkeypatch, fault_at: int) -> list:
    """Make the ``fault_at``-th graph step (counting add_vertex and add_edge
    calls from 0) drop its change, or add a reversed edge as well."""
    calls = [0]
    vertex, edge = graphs.add_vertex, graphs.add_edge

    def add_vertex(g, v):
        k, calls[0] = calls[0], calls[0] + 1
        return g if k == fault_at else vertex(g, v)

    def add_edge(g, v, w):
        k, calls[0] = calls[0], calls[0] + 1
        if k != fault_at:
            return edge(g, v, w)
        return g if k % 2 else edge(edge(g, v, w), w, v)
    monkeypatch.setattr(graphs, "add_vertex", add_vertex)
    monkeypatch.setattr(graphs, "add_edge", add_edge)
    return calls


def _run(monkeypatch, name: str, fault_at: int, reference: bool) -> tuple:
    with monkeypatch.context() as patch:
        calls = _faulty(patch, fault_at)
        if reference:
            patch.setattr(engine, "apply_lambda", reference_eval.apply_lambda)
        with collect_stats() as stats:
            try:
                g = OPERATIONS[name]()
                result = ("ok", g.dom.elems, g.edges())
            except ContractViolation as exc:
                result = ("violation", exc.kind, exc.step, str(exc))
            except Exception as exc:  # noqa: BLE001 - compared with the reference's
                result = ("raised", type(exc), str(exc))
    return result, stats.inv_checks, stats.variant_checks, calls[0]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_a_fault_at_every_graph_step_is_reported_as_the_reference_reports_it(
        monkeypatch, name):
    clean = _run(monkeypatch, name, -1, reference=False)
    assert clean[0][0] == "ok"
    assert clean == _run(monkeypatch, name, -1, reference=True)
    kinds = set()
    for fault_at in range(clean[3]):
        got = _run(monkeypatch, name, fault_at, reference=False)
        assert got == _run(monkeypatch, name, fault_at, reference=True), fault_at
        kinds.add(got[0][0])
    assert "violation" in kinds
