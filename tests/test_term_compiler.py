"""The compiled evaluator against the reference interpreter.

Random terms over every node kind, with well-typed and ill-typed leaves,
must give the same value from both, or raise the same exception type with
the same message. Compiled forms live on the nodes and nowhere else.
Quantifier bodies built to exercise hoisting (guarded raising subterms,
empty domains, nested quantifiers, shadowing binders, lets, lambdas and
sums) must agree too, and a hoisted subterm runs once per quantifier entry.
Prefix forms, which resume from their last evaluation, must agree at every
call of a sequence in which their environment grows, shrinks or changes;
long operator chains must compile and evaluate.
"""

import functools
import weakref

from hypothesis import example, given, settings, strategies as st

from unfold import ClientContract, checked_fold, collect_stats, create_cursor, terms
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
from unfold.values import CellRef, FiniteSet, SeqView, StackRef, value_eq

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


# -- hoisting of quantifier-invariant subterms ----------------------------------
#
# Quantifier bodies mixing subterms that read the bound variables "x", "i",
# "a" and "y" with subterms that read none, which the compiler hoists.

# variable-free subterms (none of them a leaf) that raise when evaluated
RAISING = [
    Cmp("<", Index(Var("s"), IntLit(7)), IntLit(0)),
    Mem(IntLit(1), Prefix(Var("t"), IntLit(9))),
    Not(Cmp("=", Len(Var("n")), IntLit(0))),
    Subset(SetOf(Var("n")), Var("S")),
    Cmp("=", App(Var("f"), (Var("s"),)), IntLit(1)),
]
# variable-free subterms that do not raise
INVARIANT = [
    Mem(IntLit(3), SetOf(Var("s"))),
    Cmp("<", Len(DiffOp(Field(Var("g"), "dom"), Var("S"))), Var("n")),
    Subset(Var("S"), UnionOp(SetOf(Var("t")), Var("S"))),
    Cmp("=", App(Field(Var("g"), "suc"), (IntLit(2),)), SetOf(SeqLit((IntLit(2),)))),
]
# subterms (none of them a leaf) that read one bound name and nothing else
READING = [Cmp("<", Var(name), IntLit(2)) for name in ("x", "i", "a", "y")] + [
    Mem(Var(name), Var("S")) for name in ("x", "i", "a")]
BINDERS = ("x", "i", "a")
DOMAINS = [Var("s"), Var("S"), Var("t"), Var("q"), EmptySetLit(), SeqLit(()),
           Field(Var("g"), "dom"), SetOf(Var("t")), Var("x")]
PAIRS = [Var("p"), TupleTerm((Arith("+", Var("i"), IntLit(1)), Var("s")))] + [
    TupleTerm((Var(name), Var("n"))) for name in BINDERS]
LAMBDAS = st.one_of(
    st.builds(Lambda, st.just((VarPat("x"),)), term("int", 1)),
    st.just(Lambda((VarPat("a"),), Arith("+", Var("a"), Var("x")))),
    st.just(Lambda((VarPat("a"),), Index(Var("s"), IntLit(5)))),
)


def quantified(body):
    return st.one_of(
        st.builds(ForallMem, st.sampled_from(BINDERS),
                  st.one_of(st.sampled_from(DOMAINS), term("set", 1)), body),
        st.builds(ForallRange, st.sampled_from(BINDERS), leaf("int"), leaf("int"),
                  body),
    )


def let(body):
    return st.builds(LetTuple, st.sampled_from([("a", "y"), ("x", "y"), ("i", "x")]),
                     st.sampled_from(PAIRS), body)


def bound(body):
    """``body`` under a chain of one to three quantifiers and lets."""
    under_one = lambda b: st.one_of(quantified(b), let(b))
    return st.one_of(under_one(body), under_one(under_one(body)),
                     under_one(under_one(under_one(body))))


@functools.lru_cache(maxsize=None)
def body(depth):
    """Boolean quantifier bodies nested at most ``depth`` deep."""
    base = st.one_of(term("bool", 1), st.sampled_from(RAISING + INVARIANT + READING))
    if depth == 0:
        return base
    inner = body(depth - 1)
    return st.one_of(
        base,
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Not, inner),
        quantified(inner),
        let(inner),
        st.builds(lambda f, lo, hi, k: Cmp("<=", SumTerm(f, lo, hi), k),
                  LAMBDAS, leaf("int"), leaf("int"), term("int", 1)),
        st.builds(lambda f, k: Cmp("=", App(f, (k,)), k), LAMBDAS,
                  term("int", 1)),
    )


X_BELOW_2 = Cmp("<", Var("x"), IntLit(2))


@settings(max_examples=500, deadline=None)
@given(st.one_of(quantified(body(3)), quantified(bound(body(2)))))
# raising invariant subterms that the guards never reach, or reach late
@example(ForallMem("x", Var("s"), Or(Cmp("<", Var("x"), IntLit(9)), RAISING[0])))
@example(ForallMem("x", Var("s"), And(X_BELOW_2, RAISING[1])))
@example(ForallMem("x", Var("s"), Implies(Cmp(">", Var("x"), IntLit(2)), RAISING[2])))
# empty domains
@example(ForallMem("x", EmptySetLit(), RAISING[3]))
@example(ForallRange("i", Var("n"), IntLit(0), RAISING[4]))
# an inner quantifier whose body reads only the outer variable
@example(ForallMem("x", Var("s"), ForallMem("a", Var("t"), X_BELOW_2)))
# let-bound and shadowing names
@example(ForallMem("x", Var("s"), LetTuple(
    ("a", "y"), TupleTerm((Var("x"), Var("n"))), Cmp("<", Var("a"), IntLit(2)))))
@example(ForallMem("x", Var("t"), ForallMem("x", Var("s"), X_BELOW_2)))
@example(ForallRange("i", IntLit(0), Var("n"), LetTuple(
    ("i", "x"), TupleTerm((Arith("+", Var("i"), IntLit(1)), Var("s"))),
    Cmp("<", Var("i"), IntLit(2)))))
# lambdas and sums
@example(ForallMem("x", Var("s"), Cmp("<=", SumTerm(
    Lambda((VarPat("a"),), Arith("+", Var("a"), Var("x"))), IntLit(0), Var("n")),
    IntLit(9))))
def test_hoisted_quantifiers_match_reference(t):
    want = outcome(lambda: reference_eval.eval_term(t, ENV))
    assert_same(outcome(lambda: terms.eval_term(t, ENV)), want)
    assert_same(outcome(lambda: terms.eval_term(t, ENV)), want)


def test_a_node_under_two_quantifiers_keeps_each_context():
    # invariant under "i", not under "x": one node, two compiled contexts
    shared = Mem(Arith("+", Var("x"), IntLit(1)), Var("S"))
    over_i = ForallRange("i", IntLit(0), Var("n"), shared)
    over_x = ForallMem("x", Var("s"), shared)
    env = dict(ENV, x=2)
    for t, e, want in ((over_i, env, True), (over_x, env, False),
                       (shared, dict(env, x=0), True)):
        assert terms.eval_term(t, e) is want
        assert reference_eval.eval_term(t, e) is want


def test_mirror_inner_builds_each_invariant_set_once_per_check(monkeypatch):
    from unfold.graphs import MIRROR_INNER

    g = graph_of([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    # mirror's state after source 0 and, of source 1, the successor 2
    acc = graph_of([0, 1, 2], [(1, 0), (2, 0), (2, 1)])
    # views of append-only logs, as the engine passes them
    visited, visited_p = SeqView([0], 1), SeqView([2], 1)
    inputs = []
    init = FiniteSet.__init__

    def counting_init(self, iterable=()):
        inputs.append(iterable)
        init(self, iterable)

    monkeypatch.setattr(FiniteSet, "__init__", counting_init)
    inv = terms.apply_lambda(MIRROR_INNER, [g, 1])
    for _ in range(2):
        # the body ranges over 3 x 3 bindings (u, w); an identical re-check
        # reuses the sets each view keeps, and builds none
        assert terms.apply_lambda(inv, [visited_p, acc, visited, acc]) is True
        assert sum(x is visited_p for x in inputs) == 1
        assert sum(x is visited for x in inputs) == 1


# -- long operator chains ---------------------------------------------------------


def _chain(kind, operands):
    t = operands[0]
    for right in operands[1:]:
        t = kind(t, right)
    return t


def test_long_operator_chains_compile_and_evaluate():
    ones = [IntLit(1)] * 2001
    assert terms.eval_term(_chain(lambda a, b: Arith("+", a, b), ones), {}) == 2001
    mixed = [Var("n")] + [IntLit(k) for k in range(1, 2001)]
    ops = iter("+-*" * 700)
    t = _chain(lambda a, b: Arith(next(ops), a, b), mixed)
    want, ops = 3, iter("+-*" * 700)
    for k in range(1, 2001):
        want = {"+": want + k, "-": want - k, "*": want * k}[next(ops)]
    assert terms.eval_term(t, {"n": 3}) == want
    assert terms.free_vars(t) == {"n"}

    true = Cmp("<", IntLit(0), Var("n"))
    assert terms.eval_term(_chain(And, [true] * 2001), {"n": 1}) is True
    assert terms.eval_term(_chain(Or, [Not(true)] * 2001), {"n": 1}) is False
    # short-circuits at the first false operand: the later ones would raise
    raising = Cmp("<", Index(Var("s"), IntLit(9)), IntLit(0))
    guarded = _chain(And, [true] * 1000 + [Not(true)] + [raising] * 1000)
    assert terms.eval_term(guarded, {"n": 1, "s": ()}) is False
    with_error = _chain(And, [true] * 1000 + [raising] + [Not(true)] * 1000)
    want = outcome(lambda: reference_eval.eval_term(
        _chain(And, [true, raising, Not(true)]), {"n": 1, "s": ()}))
    assert outcome(lambda: terms.eval_term(with_error, {"n": 1, "s": ()})) == want
    assert terms.free_vars(with_error) == {"n", "s"}


def _right_chain(kind, operands):
    t = operands[-1]
    for left in reversed(operands[:-1]):
        t = kind(left, t)
    return t


def test_long_implication_chains_compile_and_evaluate():
    true = Cmp("<", IntLit(0), Var("n"))
    raising = Cmp("<", Index(Var("s"), IntLit(9)), IntLit(0))
    env = {"n": 1, "s": ()}
    assert terms.eval_term(_right_chain(Implies, [true] * 2001), env) is True
    assert terms.eval_term(_right_chain(Implies, [true] * 2000 + [Not(true)]),
                           env) is False
    # stops at the first false premise: the later operands would raise
    guarded = _right_chain(Implies, [true] * 1000 + [Not(true)] + [raising] * 1000)
    assert terms.eval_term(guarded, env) is True
    # an error in a premise or in the conclusion, and a non-boolean of each
    for bad, last in ((raising, true), (IntLit(3), true), (true, raising),
                      (true, IntLit(3))):
        want = outcome(lambda: reference_eval.eval_term(
            _right_chain(Implies, [true, bad, last]), env))
        assert want[0] == "raised"
        long = _right_chain(Implies, [true] * 1000 + [bad, last])
        assert outcome(lambda: terms.eval_term(long, env)) == want
    assert terms.free_vars(guarded) == {"n", "s"}


# -- range forms that resume from their last evaluation ------------------------------
#
# One compiled form evaluated on a sequence of environments, each made from
# the one before by one change, must agree with the reference interpreter at
# every call. Most forms read "s" and "t" only by index; "lo", "n" and "hi"
# move both ways; "p" is replaced by an equal copy, "c" is a reference cell,
# "r" a tuple holding one and "fs" a tuple holding a closure, each of which
# must make the form evaluate in full. The cell is also an element the
# sequences can grow by.

LONG = "x" * 50  # equal copies of it are distinct objects, unequal to value_eq
CELL = CellRef(1)
LIMIT = CellRef(2)
BELOW_LIMIT = Closure(Lambda((VarPat("x"),), Cmp("<", Var("x"), Var("lim"))),
                      {"lim": LIMIT})
I, S, T = Var("i"), Var("s"), Var("t")


def _forall(lo, body, seq="s"):
    return ForallRange("i", lo, Len(Var(seq)), body)


def _sum(lo, body, seq="s"):
    return SumTerm(Lambda((VarPat("i"),), body), lo, Len(Var(seq)))


PREFIX_FORMS = [
    _forall(Var("lo"), Cmp("=", Index(S, I), Index(T, I))),
    _forall(IntLit(0), Cmp("<>", Index(S, I), ConstValue(LONG))),
    _forall(IntLit(1), Cmp("<=", Index(S, Arith("-", I, IntLit(1))), Index(S, I))),
    _forall(Var("lo"), Mem(Index(S, I), SetOf(Var("p")))),
    _forall(IntLit(0), Cmp("<", Index(S, I), Var("c"))),
    _forall(IntLit(0), App(Index(Var("fs"), IntLit(0)), (Index(S, I),))),
    _forall(IntLit(0), Implies(Cmp("<", Var("n"), I), ForallRange(
        "j", I, Len(T), Cmp("<", Index(T, Var("j")), Index(S, I))))),
    _forall(IntLit(0), ForallMem("x", Var("r"), Cmp("<", Index(S, I), Var("x")))),
    _forall(IntLit(0), LetTuple(("a", "b"), Var("r"),
                                Cmp("<", Index(S, I), Arith("+", Var("a"), Var("b"))))),
    _forall(IntLit(0), App(Lambda((VarPat("x"),), Cmp("<", Var("x"), IntLit(3))),
                           (Index(S, I),))),
    _sum(Var("lo"), Arith("+", Index(S, I), Var("n"))),
    _sum(IntLit(0), Arith("*", Index(S, I), Var("c"))),
    _sum(IntLit(0), Len(Index(T, I))),
    _sum(IntLit(0), App(Lambda((VarPat("x"),), Arith("-", Var("x"), Var("n"))),
                        (Index(S, I),))),
    _sum(Var("lo"), Cmp("<", Index(S, I), Index(T, I))),
    SumTerm(Lambda((VarPat("i"),), Index(S, I)), Var("lo"), Var("hi")),
    ForallRange("i", IntLit(0), Arith("-", Len(T), Var("n")),
                Cmp("<=", Index(S, I), Index(T, I))),
]
# elements of the grown sequences: ints one time in two, else the long
# string, a short tuple, the cell or a tuple holding it
ITEMS = st.one_of(st.integers(-2, 4),
                  st.sampled_from([LONG, (0, 1), (2, 0), CELL, (CELL, 0)]))


def _copy(x):
    """An equal value built afresh: strings become distinct objects."""
    if isinstance(x, str):
        return x[:1] + x[1:]
    if isinstance(x, tuple):
        return tuple(map(_copy, x))
    return x


# one change in two grows a sequence
CHANGES = st.one_of(
    st.tuples(st.just("append"), st.sampled_from("st"), ITEMS),
    st.one_of(
        st.tuples(st.just("copy"), st.sampled_from("st")),
        st.tuples(st.just("shrink"), st.sampled_from("st"), st.integers(0, 3)),
        st.tuples(st.just("replace"), st.sampled_from("st"), st.integers(0, 9),
                  ITEMS),
        st.tuples(st.just("lo"), st.integers(-1, 2)),
        st.tuples(st.just("n"), st.integers(-1, 2)),
        st.tuples(st.just("hi"), st.integers(-1, 6)),
        st.tuples(st.just("p")),
        st.tuples(st.just("cell"), st.integers(-2, 5)),
        st.tuples(st.just("limit"), st.integers(-2, 5)),
        st.tuples(st.just("closure")),
    ),
)


def _change(env, change):
    kind, *args = change
    if kind == "append":
        name, item = args
        env[name] += (item,)
    elif kind == "copy":
        env[args[0]] = _copy(env[args[0]])
    elif kind == "shrink":
        name, k = args
        env[name] = env[name][:max(0, len(env[name]) - k)]
    elif kind == "replace":
        name, j, item = args
        seq = env[name]
        if seq:
            j %= len(seq)
            env[name] = seq[:j] + (item,) + seq[j + 1:]
    elif kind in ("lo", "n", "hi"):
        env[kind] = args[0]
    elif kind == "p":
        env["p"] = _copy(env["p"])  # equal, not identical: must evaluate in full
    elif kind == "cell":
        CELL.value = args[0]
    elif kind == "limit":
        LIMIT.value = args[0]
    else:
        env["fs"] = (Closure(BELOW_LIMIT.lam, {"lim": CellRef(LIMIT.value)}),)


def _prefix_env():
    return {"s": (0, 1, 2), "t": (0, 1, 2), "lo": 0, "n": 1, "hi": 2, "p": (0, 1, LONG),
            "c": CELL, "r": (CELL, 3), "fs": (BELOW_LIMIT,)}


@settings(max_examples=200, deadline=None)
@given(st.lists(CHANGES, min_size=5, max_size=40))
def test_prefix_forms_match_reference_across_calls(changes):
    env = _prefix_env()
    for change in [None] + changes:
        if change is not None:
            _change(env, change)
        for form in PREFIX_FORMS:
            want = outcome(lambda: reference_eval.eval_term(form, env))
            assert_same(outcome(lambda: terms.eval_term(form, env)), want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(lambda b: _forall(IntLit(0), b), term("bool", 2)),
                 st.builds(lambda b: _sum(Var("k"), b), term("int", 2)),
                 st.builds(lambda b: _forall(Var("n"), b, seq="t"), body(1))),
       st.lists(st.one_of(CHANGES, st.tuples(st.just("append"), st.just("s"),
                                             st.integers(-2, 4))),
                max_size=12))
def test_random_prefix_bodies_match_reference_across_calls(form, changes):
    env = dict(ENV, s=(), t=(2,), q=_stack(1, 2))
    for change in [None] + changes:
        if change is not None:
            _change(env, change)
        want = outcome(lambda: reference_eval.eval_term(form, env))
        assert_same(outcome(lambda: terms.eval_term(form, env)), want)


def test_a_reference_inside_a_value_is_read_afresh():
    # a cell held in a fixed tuple, or grown into the sequence, can change
    # between two evaluations while every name keeps its binding
    cell = CellRef(5)
    in_fixed = _forall(IntLit(0), ForallMem("x", Var("p"), Cmp("<", Index(S, I), Var("x"))))
    in_grow = _sum(IntLit(0), App(Lambda((VarPat("x"),), Var("x")), (Index(S, I),)))
    fixed_env, grow_env = {"s": (0, 1, 2), "p": (cell,)}, {"s": (0, 1, 2)}

    def check(form, env, want):
        assert terms.eval_term(form, env) == want
        assert reference_eval.eval_term(form, env) == want

    check(in_fixed, fixed_env, True)
    check(in_grow, grow_env, 3)
    grow_env["s"] += (cell,)
    check(in_grow, grow_env, 8)
    cell.value = 0
    check(in_fixed, fixed_env, False)
    check(in_grow, grow_env, 3)
    grow_env["s"] += (cell,)
    check(in_grow, grow_env, 3)
    cell.value = 1
    check(in_grow, grow_env, 5)


def test_a_failing_binding_is_evaluated_again_next_time():
    form = _forall(IntLit(0), Cmp("<", Index(S, I), Index(T, I)))
    t1 = (1, 2)
    t2 = t1 + (0,)
    t3 = (1, 2, 3)  # not an extension of t2
    for t, want in ((t1, "index 2 out of range for sequence of length 2"),
                    (t2, False), (t3, True), (t3 + (4,), True)):
        env = {"s": (0, 1, 2), "t": t}
        got = outcome(lambda: terms.eval_term(form, env))
        assert got == outcome(lambda: reference_eval.eval_term(form, env))
        assert (got[1] if got[0] == "value" else got[2]) == want


def test_checked_fold_applies_the_sum_body_once_per_step(monkeypatch):
    n = 2000
    s = tuple(range(-n // 2, n // 2))
    v = Var("v")
    permitted = terms.lam("v", And(
        Cmp("<=", Len(v), Len(Var("s"))),
        _forall(IntLit(0), Cmp("=", Index(v, I), Index(Var("s"), I)), seq="v")),
        {"s": s})
    complete = terms.lam("v", Cmp("=", Len(v), Len(Var("s"))), {"s": s})
    body = Lambda((VarPat("i"),), Index(v, I))
    inv = terms.lam("v a", Cmp("=", Var("a"), SumTerm(body, IntLit(0), Len(v))))
    measure = terms.lam("c v", Arith("-", Len(Var("c")), Len(v)))
    # the bodies of the permitted's forall and of the sum each read one
    # element of the visited view per binding evaluated
    reads = []
    getitem = SeqView.__getitem__

    def counting(view, i):
        if type(i) is int:
            reads.append(i)
        return getitem(view, i)

    monkeypatch.setattr(SeqView, "__getitem__", counting)
    with collect_stats() as stats:
        total = checked_fold(lambda a, x: a + x, 0,
                             create_cursor(s, permitted, complete),
                             ClientContract(inv, measure, s))
    assert total == sum(s)
    assert stats.inv_checks == stats.permitted_checks == n + 1
    assert stats.complete_checks == 1
    # resumed at every check: one new binding each; in full it is n * (n + 1) / 2
    assert len(reads) == 2 * n
