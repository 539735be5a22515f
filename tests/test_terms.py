import pytest
from hypothesis import given, strategies as st

from unfold import (
    Closure,
    EvaluationError,
    FiniteSet,
    apply_lambda,
    eval_term,
    sum_range,
)
from unfold.terms import (
    AddElem,
    And,
    Arith,
    BoolLit,
    Cmp,
    DiffOp,
    Distinct,
    EmptySetLit,
    ForallMem,
    ForallRange,
    Implies,
    Index,
    IntLit,
    InterOp,
    Lambda,
    Len,
    LetTuple,
    Mem,
    Prefix,
    Reverse,
    SeqLit,
    SetOf,
    Subset,
    SumTerm,
    TuplePat,
    TupleTerm,
    UnionOp,
    UnitLit,
    Var,
    VarPat,
    lam,
)
from unfold.values import CellRef, StackRef, deref, value_eq, value_key

from helpers import is_prefix


def V(name):
    return Var(name)


# the canonical prefix-permitted formula:
#   len v <= len s /\ forall i. 0 <= i < len v -> v[i] = s[i]
PREFIX_FORMULA = And(
    Cmp("<=", Len(V("v")), Len(V("s"))),
    ForallRange("i", IntLit(0), Len(V("v")),
                Cmp("=", Index(V("v"), V("i")), Index(V("s"), V("i")))),
)


class TestEval:
    def test_prefix_formula_accepts_prefix(self):
        assert eval_term(PREFIX_FORMULA, {"v": (1, 2), "s": (1, 2, 3)}) is True

    def test_prefix_formula_rejects_non_prefix(self):
        assert eval_term(PREFIX_FORMULA, {"v": (9,), "s": (7, 8)}) is False

    def test_length_equality_on_empty(self):
        t = Cmp("=", Len(V("v")), Len(V("s")))
        assert eval_term(t, {"v": (), "s": ()}) is True

    def test_reverse_equality(self):
        t = Cmp("=", Reverse(V("r")), V("s"))
        assert eval_term(t, {"r": (3, 2, 1), "s": (1, 2, 3)}) is True

    def test_arith_and_cmp(self):
        t = Cmp("<", Arith("*", IntLit(2), IntLit(3)), IntLit(7))
        assert eval_term(t, {}) is True

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError, match="unbound"):
            eval_term(V("nope"), {})

    def test_index_out_of_range(self):
        with pytest.raises(EvaluationError, match="out of range"):
            eval_term(Index(V("v"), IntLit(5)), {"v": (1, 2)})

    def test_unknown_comparison_operator(self):
        with pytest.raises(EvaluationError,
                           match="^unknown comparison operator '!='$"):
            eval_term(Cmp("!=", IntLit(1), IntLit(2)), {})

    def test_negative_prefix_bound(self):
        with pytest.raises(EvaluationError, match="negative"):
            eval_term(Prefix(V("v"), IntLit(-1)), {"v": (1, 2)})

    def test_prefix_slice(self):
        assert eval_term(Prefix(V("v"), IntLit(2)), {"v": (1, 2, 3)}) == (1, 2)

    def test_type_mismatch(self):
        with pytest.raises(EvaluationError, match="expected an integer"):
            eval_term(Arith("+", IntLit(1), SeqLit(())), {})

    def test_arithmetic_is_unbounded(self):
        big = IntLit(10 ** 20)
        assert eval_term(Arith("*", big, big), {}) == 10 ** 40

    def test_let_tuple(self):
        t = LetTuple(("g", "s"), V("p"), V("s"))
        assert eval_term(t, {"p": ((1, 2), 9)}) == 9

    def test_empty_range_quantifier_is_vacuous(self):
        t = ForallRange("i", IntLit(0), IntLit(0), BoolLit(False))
        assert eval_term(t, {}) is True

    def test_implies_short_circuits(self):
        t = Implies(BoolLit(False), Cmp("<", IntLit(1), V("missing")))
        assert eval_term(t, {}) is True
        # unknown operators in the untaken branch raise nothing either
        t = Implies(BoolLit(False),
                    Cmp("!=", Arith("/", IntLit(1), IntLit(0)), IntLit(0)))
        assert eval_term(t, {}) is True

    def test_distinct(self):
        assert eval_term(Distinct(V("v")), {"v": (1, 2, 3)}) is True
        assert eval_term(Distinct(V("v")), {"v": (1, 2, 1)}) is False

    def test_forall_mem_over_set(self):
        t = ForallMem("x", V("S"), Cmp("<", V("x"), IntLit(10)))
        assert eval_term(t, {"S": FiniteSet([1, 2, 3])}) is True
        assert eval_term(t, {"S": FiniteSet([1, 20])}) is False

    def test_forall_mem_over_sequence(self):
        t = ForallMem("x", V("v"), Cmp("<=", IntLit(0), V("x")))
        assert eval_term(t, {"v": (0, 1, 2)}) is True

    def test_tuple_and_seq_literals(self):
        assert eval_term(TupleTerm((IntLit(1), IntLit(2))), {}) == (1, 2)
        assert eval_term(SeqLit((IntLit(4),)), {}) == (4,)

    def test_unit(self):
        assert eval_term(UnitLit(), {}) is None


class TestSetOps:
    def test_union_inter_diff(self):
        env = {"a": FiniteSet([1, 2]), "b": FiniteSet([2, 3])}
        assert eval_term(UnionOp(V("a"), V("b")), env) == FiniteSet([1, 2, 3])
        assert eval_term(InterOp(V("a"), V("b")), env) == FiniteSet([2])
        assert eval_term(DiffOp(V("a"), V("b")), env) == FiniteSet([1])

    def test_sequence_operands_coerce_to_element_sets(self):
        env = {"v": (2, 1, 2), "b": FiniteSet([2, 3])}
        assert eval_term(UnionOp(V("v"), V("b")), env) == FiniteSet([1, 2, 3])
        assert eval_term(Subset(V("v"), V("b")), env) is False
        assert eval_term(Mem(IntLit(1), V("v")), env) is True

    def test_setof_and_add(self):
        assert eval_term(SetOf(V("v")), {"v": (3, 1, 3)}) == FiniteSet([1, 3])
        assert eval_term(AddElem(IntLit(5), EmptySetLit()), {}) == FiniteSet([5])

    def test_equality_is_total_across_kinds(self):
        assert eval_term(Cmp("=", IntLit(1), V("t")), {"t": (1,)}) is False
        assert eval_term(Cmp("=", BoolLit(True), IntLit(1)), {}) is True
        assert eval_term(Cmp("=", V("v"), V("S")),
                         {"v": (1,), "S": FiniteSet([1])}) is False

    def test_finite_set_canonical_order(self):
        assert FiniteSet([3, 1, 2]).elems == (1, 2, 3)
        assert FiniteSet([1, 1, 2]).elems == (1, 2)
        assert FiniteSet([(2, 1), (1,)]).elems == ((1,), (2, 1))

    def test_value_key_and_deref_on_bools_and_subclasses(self):
        class Count(int):
            pass

        class Stack(StackRef):
            def contents(self):
                return ("top",)

        class Cell(CellRef):
            pass

        for v in (True, Count(3), 3):
            key = value_key(v)
            assert key == (0, int(v)) and type(key[1]) is int
        stack, cell, plain = Stack(), Cell(4), (1, 2)
        assert deref(stack) == ("top",) and deref(cell) == 4
        assert deref(plain) is plain and deref(True) is True

    def test_value_outside_the_domain_is_an_evaluation_error(self):
        f = eval_term(Lambda((VarPat("x"),), V("x")), {})
        with pytest.raises(EvaluationError, match="no structural order"):
            value_key(f)
        with pytest.raises(EvaluationError, match="no structural order"):
            eval_term(SetOf(V("fs")), {"fs": (f,)})
        # equality keeps its identity fallback outside the domain
        assert value_eq(f, f) and not value_eq(f, 1)


class TestLambdas:
    def test_convergence_measure(self):
        f = lam("c v", Arith("-", Len(V("c")), Len(V("v"))))
        assert apply_lambda(f, [(1, 2, 3), (1,)]) == 2

    def test_empty_sum_invariant(self):
        body = SumTerm(Lambda((VarPat("i"),), Index(V("v"), V("i"))),
                       IntLit(0), Len(V("v")))
        f = lam("a v", Cmp("=", V("a"), body))
        assert apply_lambda(f, [0, ()]) is True

    def test_partial_application_returns_closure(self):
        f = Closure(Lambda(tuple(VarPat(p) for p in "abcdefg"), V("a")), {})
        g = apply_lambda(f, [1, 2, 3])
        assert isinstance(g, Closure)
        assert g.remaining == 4

    def test_arity_exceeded(self):
        f = lam("a", V("a"))
        with pytest.raises(EvaluationError, match="arity exceeded"):
            apply_lambda(f, [1, 2])

    def test_tuple_pattern_parameter(self):
        f = Closure(Lambda((TuplePat(("g", "s")), VarPat("v")),
                           Arith("-", Len(V("g")), Len(V("v")))), {})
        assert apply_lambda(f, [((1, 2, 3), 9), (1,)]) == 2

    def test_closure_captures_environment(self):
        f = Closure(Lambda((VarPat("x"),), Arith("+", V("x"), V("k"))), {"k": 10})
        assert apply_lambda(f, [5]) == 15

    @given(st.lists(st.integers(-50, 50), min_size=0, max_size=6),
           st.integers(0, 6))
    def test_partial_then_full_equals_full(self, args, split):
        body = V("a0")
        for i in range(1, len(args)):
            body = Arith("+", body, Arith("*", IntLit(i), V(f"a{i}")))
        if not args:
            body = IntLit(0)
        f = Closure(Lambda(tuple(VarPat(f"a{i}") for i in range(len(args))),
                           body), {})
        split = min(split, len(args))
        first = apply_lambda(f, args[:split])
        if split == len(args):
            combined = first
        else:
            combined = apply_lambda(first, args[split:])
        assert combined == apply_lambda(f, list(args))


class TestSumRange:
    def test_indexed_sum(self):
        s = (1, 2, 3)
        assert sum_range(lambda i: s[i], 0, 3) == 6

    def test_empty_range(self):
        assert sum_range(lambda i: 1 // 0, 5, 5) == 0

    def test_identity_sum(self):
        assert sum_range(lambda i: i, 0, 4) == 6


class TestProperties:
    @given(st.lists(st.integers(-20, 20), max_size=50),
           st.lists(st.integers(-20, 20), max_size=50))
    def test_prefix_formula_matches_direct_routine(self, v, s):
        v, s = tuple(v), tuple(s)
        assert eval_term(PREFIX_FORMULA, {"v": v, "s": s}) == is_prefix(v, s)

    @given(st.lists(st.integers(-20, 20), max_size=50))
    def test_every_prefix_is_accepted(self, s):
        s = tuple(s)
        for k in range(len(s) + 1):
            assert eval_term(PREFIX_FORMULA, {"v": s[:k], "s": s}) is True

    @given(st.lists(st.integers(-5, 5), max_size=20))
    def test_distinct_agrees_with_set_cardinality(self, v):
        v = tuple(v)
        expected = len(FiniteSet(v)) == len(v)
        assert eval_term(Distinct(Var("v")), {"v": v}) == expected
