"""The compiled evaluator against the reference interpreter.

Random terms over every node kind, with well-typed and ill-typed leaves,
must give the same value from both, or raise the same exception type with
the same message. Compiled forms live on the nodes and nowhere else.
"""

import functools
import weakref

from hypothesis import given, settings, strategies as st

from unfold import terms
from unfold.containers import LEAF, Node
from unfold.dsl import parse_scenario, run_scenario
from unfold.graphs import graph_of
from unfold.terms import (
    AddElem, And, App, Arith, BoolLit, Closure, Cmp, ConstValue, CopyTerm,
    DiffOp, Distinct, EmptySetLit, Field, Flatten, ForallMem, ForallRange,
    Implies, Index, IntLit, InterOp, Lambda, Len, LetTuple, Levels, Mem, Not,
    Or, Prefix, Reverse, SeqLit, SetOf, Subset, SumTerm, TuplePat, TupleTerm,
    UnionOp, UnitLit, Var, VarPat,
)
from unfold.values import CellRef, FiniteSet, StackRef, value_eq

import reference_eval


def _stack(*items):
    stack = StackRef()
    for x in items:
        stack.push(x)
    return stack


GRAPH = graph_of([0, 1, 2], [(0, 1), (1, 2), (2, 2)])
ENV = {
    "n": 3, "k": -1, "c": CellRef(2), "b": True,
    "s": (1, 2, 3), "t": (2, 2, 0), "q": _stack(1, 2),
    "S": FiniteSet([1, 3]), "g": GRAPH, "tr": Node(Node(LEAF, 1, LEAF), 2, LEAF),
    "p": (1, (2, 3)),
    "f": Closure(Lambda((VarPat("x"),), Arith("+", Var("x"), IntLit(1))), {}),
}

# leaves per kind; "i", "x", "a" and "y" are bound only by an enclosing
# quantifier, lambda or let, and "zz" never is
LEAVES = {
    "int": [IntLit(v) for v in range(-2, 5)]
    + [Var(n) for n in ("n", "k", "c", "i", "x", "a", "y")],
    "bool": [BoolLit(True), BoolLit(False), Var("b")],
    "seq": [Var("s"), Var("t"), Var("q"), SeqLit(())],
    "set": [Var("S"), EmptySetLit(), Field(Var("g"), "dom")],
    "graph": [Var("g"), ConstValue(GRAPH)],
    "tree": [Var("tr"), ConstValue(LEAF)],
    "fn": [Var("f"), Field(Var("g"), "suc")],
    "pair": [Var("p")],
}
ILL_TYPED = [Var("zz"), UnitLit(), ConstValue("text"), Field(Var("n"), "dom")]
ALL_LEAVES = [leaf for leaves in LEAVES.values() for leaf in leaves] + ILL_TYPED
KINDS = tuple(LEAVES)


def leaf(kind):
    """A leaf of ``kind`` four times in five, otherwise a leaf of any kind."""
    if kind == "any":
        return st.sampled_from(ALL_LEAVES)
    typed, other = LEAVES[kind], ALL_LEAVES[::2]
    return st.sampled_from(typed * -(-4 * len(other) // len(typed)) + other)


@functools.lru_cache(maxsize=None)
def term(kind, depth):
    """Terms of ``kind`` nested at most ``depth`` deep."""
    if depth == 0:
        return leaf(kind)
    if kind == "any":
        return st.one_of([term(k, depth) for k in KINDS] + [
            st.builds(Levels, term("tree", depth - 1)),
            st.builds(Field, term("graph", depth - 1), st.just("nope")),
            st.builds(App, term("int", depth - 1),
                      st.tuples(term("int", depth - 1))),
        ])
    # an operand of any kind one time in four
    sub = lambda k: st.one_of([term(k, depth - 1)] * 3 + [term("any", depth - 1)])
    either = lambda *ks: st.one_of([sub(k) for k in ks])
    builders = {
        "int": [
            st.builds(Arith, st.sampled_from("+-*/"), sub("int"), sub("int")),
            st.builds(Len, either("seq", "set")),
            st.builds(Index, sub("seq"), sub("int")),
            st.builds(SumTerm, sub("fn"), leaf("int"), leaf("int")),
            st.builds(App, sub("fn"), st.tuples(sub("int"))),
            st.builds(LetTuple, st.just(("a", "y")), sub("pair"), sub("int")),
        ],
        "bool": [
            st.builds(Cmp, st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "!="]),
                      either("int", "any"), either("int", "any")),
            st.builds(And, sub("bool"), sub("bool")),
            st.builds(Or, sub("bool"), sub("bool")),
            st.builds(Implies, sub("bool"), sub("bool")),
            st.builds(Not, sub("bool")),
            st.builds(Distinct, sub("seq")),
            st.builds(Mem, sub("int"), either("set", "seq")),
            st.builds(Subset, either("set", "seq"), either("set", "seq")),
            st.builds(ForallRange, st.just("i"), leaf("int"), leaf("int"),
                      sub("bool")),
            st.builds(ForallMem, st.just("x"), either("set", "seq"), sub("bool")),
        ],
        "seq": [
            st.builds(Prefix, sub("seq"), sub("int")),
            st.builds(Reverse, sub("seq")),
            st.builds(SeqLit, st.lists(sub("int"), max_size=3).map(tuple)),
            st.builds(Flatten, sub("tree")),
        ],
        "set": [
            st.builds(SetOf, sub("seq")),
            st.builds(UnionOp, either("set", "seq"), either("set", "seq")),
            st.builds(InterOp, either("set", "seq"), either("set", "seq")),
            st.builds(DiffOp, either("set", "seq"), either("set", "seq")),
            st.builds(AddElem, sub("int"), sub("set")),
            st.builds(App, st.just(Field(Var("g"), "suc")), st.tuples(sub("int"))),
        ],
        "graph": [st.builds(CopyTerm, sub("graph"))],
        "tree": [],
        "fn": [
            st.builds(Lambda, st.just((VarPat("x"),)), sub("int")),
            st.builds(Lambda, st.just((TuplePat(("a", "y")),)), sub("int")),
        ],
        "pair": [st.builds(TupleTerm, st.tuples(sub("int"), sub("seq")))],
    }
    return st.one_of([leaf(kind)] + builders[kind])


VALUES = st.one_of(
    st.integers(-2, 4), st.booleans(),
    st.lists(st.integers(-2, 4), max_size=3).map(tuple),
    st.lists(st.integers(-2, 4), max_size=3).map(FiniteSet),
    st.tuples(st.integers(-2, 4), st.lists(st.integers(0, 2), max_size=2).map(tuple)),
    st.just(GRAPH),
)


def outcome(compute):
    try:
        return ("value", compute())
    except Exception as exc:  # any exception type: both sides must agree on it
        return ("raised", type(exc), str(exc))


def same_value(a, b):
    if isinstance(a, Closure) or isinstance(b, Closure):
        return (isinstance(a, Closure) and isinstance(b, Closure)
                and a.lam is b.lam and same_value(a.bound, b.bound)
                and a.env.keys() == b.env.keys()
                and all(same_value(a.env[k], b.env[k]) for k in a.env))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same_value, a, b))
    if type(a) is not type(b):
        return False
    return value_eq(a, b) or a == b  # bound methods such as g.suc


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "value":
        assert same_value(got[1], want[1]), (got, want)
    else:
        assert got == want


@settings(max_examples=600, deadline=None)
@given(term("any", 3))
def test_compiled_evaluator_matches_reference(t):
    want = outcome(lambda: reference_eval.eval_term(t, ENV))
    assert_same(outcome(lambda: terms.eval_term(t, ENV)), want)
    # the second run uses the form cached on the node
    assert_same(outcome(lambda: terms.eval_term(t, ENV)), want)


def _apply_split(apply, f, args, split):
    first = apply(f, args[:split])
    return first if split == len(args) else apply(first, args[split:])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([VarPat("x"), VarPat("i"), VarPat("a"),
                                 TuplePat(("a", "y"))]), min_size=1, max_size=4),
       term("any", 2), st.lists(VALUES, min_size=4, max_size=4))
def test_partial_application_in_every_split(params, body, args):
    lam = Lambda(tuple(params), body)
    args = args[:len(params)]
    for split in range(len(args) + 1):
        assert_same(
            outcome(lambda: _apply_split(terms.apply_lambda, Closure(lam, ENV),
                                         args, split)),
            outcome(lambda: _apply_split(reference_eval.apply_lambda,
                                         Closure(lam, ENV), args, split)))


SCENARIO = r"""
collection s = [4, 5, 6]

decl fold_seq {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len collection /\
                    forall i. 0 <= i < len v -> v[i] = collection[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}

call sum_seq uses fold_seq {
  folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = (fun a x -> a + x);
  init = 0;
  expect = 15;
}
"""


def test_compiled_forms_are_freed_with_the_ast():
    scenario = parse_scenario(SCENARIO)
    assert run_scenario(scenario).ok
    inv = scenario.invocations[0].call.inv
    assert inv.body._run is not None  # compiled, and kept on the node
    root = weakref.ref(inv)
    del scenario, inv
    # freed by reference counting alone: no cache and no cycle holds it
    assert root() is None
