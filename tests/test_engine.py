import random

import pytest

from unfold import (
    EMPTY_CONTEXT,
    ClientContract,
    ContractViolation,
    EvaluationError,
    FiniteSet,
    NO_ACC,
    ViolationKind,
    checked_filter,
    checked_fold,
    checked_iter,
    checked_map,
    collect_stats,
    create_cursor,
    pop_frame,
    push_frame,
    seq_cursor,
)
from unfold.terms import (
    Arith,
    Cmp,
    Index,
    IntLit,
    Lambda,
    Len,
    SumTerm,
    Var,
    VarPat,
    lam,
)

from helpers import sum_recursive


def sum_contract(s):
    """The canonical fold client: accumulator equals the sum of visited."""
    return ClientContract(
        inv=lambda v, a: a == sum(v),
        convergence=lambda c, v: len(c) - len(v),
        collection=s,
    )


class TestCheckedFold:
    def test_sum_matches_recursive_oracle(self):
        s = (1, 2, 3)
        result = checked_fold(lambda a, x: a + x, 0, seq_cursor(s),
                              sum_contract(s))
        assert result == sum_recursive(s, 0, len(s)) == 6

    def test_sum_with_term_language_invariant(self):
        s = (4, -2, 7, 7)
        body = SumTerm(Lambda((VarPat("i"),), Index(Var("v"), Var("i"))),
                       IntLit(0), Len(Var("v")))
        inv = lam("v a", Cmp("=", Var("a"), body))
        conv = lam("c v", Arith("-", Len(Var("c")), Len(Var("v"))))
        result = checked_fold(lambda a, x: a + x, 0, seq_cursor(s),
                              ClientContract(inv=inv, convergence=conv,
                                             collection=s))
        assert result == sum_recursive(s, 0, len(s))

    def test_empty_collection_returns_init(self):
        result = checked_fold(lambda a, x: 1 // 0, 42, seq_cursor(()),
                              ClientContract(inv=lambda v, a: a == 42,
                                             convergence=lambda c, v: 0,
                                             collection=()))
        assert result == 42

    def test_wrong_init_fails_initially(self):
        s = (1, 2, 3)
        with pytest.raises(ContractViolation) as exc:
            checked_fold(lambda a, x: a + x, 1, seq_cursor(s), sum_contract(s))
        assert exc.value.kind is ViolationKind.INVARIANT_VIOLATED_INITIALLY
        assert exc.value.step == 0

    def test_broken_consumer_fails_at_first_divergence(self):
        s = (5, 6, 7)
        with pytest.raises(ContractViolation) as exc:
            checked_fold(lambda a, x: a + (x if x != 6 else 0), 0,
                         seq_cursor(s), sum_contract(s))
        assert exc.value.kind is ViolationKind.INVARIANT_VIOLATED
        assert exc.value.step == 2

    def test_check_counts(self):
        s = (1, 2, 3)
        with collect_stats() as stats:
            checked_fold(lambda a, x: a + x, 0, seq_cursor(s), sum_contract(s))
        assert stats.inv_checks == 4  # initial + one per step
        assert stats.variant_checks == 6  # entry and exit measure per step

    def test_exit_state_satisfies_invariant_and_complete(self):
        rng = random.Random(7)
        for _ in range(50):
            s = tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 30)))
            cursor = seq_cursor(s)
            contract = sum_contract(s)
            acc = checked_fold(lambda a, x: a + x, 0, cursor, contract)
            assert contract.inv(cursor.visited, acc)
            assert cursor.complete(cursor.visited)


class TestConvergence:
    def test_negative_measure_detected_at_entry(self):
        s = (1, 2, 3)
        with pytest.raises(ContractViolation) as exc:
            checked_fold(lambda a, x: a + x, 0, seq_cursor(s),
                         ClientContract(inv=lambda v, a: True,
                                        convergence=lambda c, v: len(c) - len(v) - 10,
                                        collection=s))
        assert exc.value.kind is ViolationKind.CONVERGENCE_NEGATIVE
        assert exc.value.step == 0

    def test_re_yielding_producer_caught_by_remaining_set_measure(self):
        # permissive cursor: permitted never fails, so only the measure can
        # notice that the producer keeps re-yielding the same element
        s = (1, 2, 3)
        cursor = create_cursor(iter((1, 1, 2, 3)), lambda v: True,
                               lambda v: True)
        with pytest.raises(ContractViolation) as exc:
            checked_fold(
                lambda a, x: a, 0, cursor,
                ClientContract(
                    inv=lambda v, a: True,
                    convergence=lambda c, v: len(FiniteSet(c).diff(FiniteSet(v))),
                    collection=s))
        assert exc.value.kind is ViolationKind.CONVERGENCE_NOT_DECREASING
        assert exc.value.step == 2

    def test_non_integer_measure(self):
        with pytest.raises(EvaluationError, match="non-integer"):
            checked_fold(lambda a, x: a, 0, seq_cursor((1,)),
                         ClientContract(inv=lambda v, a: True,
                                        convergence=lambda c, v: True,
                                        collection=(1,)))


class TestCheckedIter:
    def test_stack_building(self):
        s = (1, 2, 3)
        stack = []
        checked_iter(
            lambda x: stack.append(x), seq_cursor(s),
            ClientContract(
                inv=lambda v: tuple(stack) == s[:len(v)],
                convergence=lambda c, v: len(c) - len(v),
                collection=s))
        assert stack == [1, 2, 3]

    def test_empty_sequence_checks_invariant_once(self):
        calls = []

        def inv(v):
            calls.append(v)
            return True

        checked_iter(lambda x: None, seq_cursor(()),
                     ClientContract(inv=inv, convergence=lambda c, v: 0,
                                    collection=()))
        assert calls == [()]

    def test_skipped_effect_detected_at_exact_step(self):
        s = (1, 2, 3)
        stack = []
        with pytest.raises(ContractViolation) as exc:
            checked_iter(
                lambda x: stack.append(x) if x != 2 else None, seq_cursor(s),
                ClientContract(
                    inv=lambda v: tuple(stack) == s[:len(v)],
                    convergence=lambda c, v: len(c) - len(v),
                    collection=s))
        assert exc.value.kind is ViolationKind.INVARIANT_VIOLATED
        assert exc.value.step == 2

    def test_consumer_exception_propagates_with_partial_effects(self):
        s = (1, 2, 3, 4)
        seen = []

        def consumer(x):
            if x == 3:
                raise RuntimeError("boom")
            seen.append(x)

        with pytest.raises(RuntimeError, match="boom"):
            checked_iter(consumer, seq_cursor(s),
                         ClientContract(inv=lambda v: True,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=s))
        assert seen == [1, 2]  # exactly the steps before the raise


class TestCheckedMapFilter:
    def test_increment_map(self):
        s = (1, 2, 3)
        out = checked_map(
            lambda x: x + 1, seq_cursor(s),
            ClientContract(
                inv=lambda v, out: all(out[i] == v[i] + 1 for i in range(len(out))),
                convergence=lambda c, v: len(c) - len(v),
                collection=s))
        assert out == (2, 3, 4)

    def test_identity_map(self):
        s = (9, 9, 1)
        out = checked_map(lambda x: x, seq_cursor(s),
                          ClientContract(inv=lambda v, out: out == v,
                                         convergence=lambda c, v: len(c) - len(v),
                                         collection=s))
        assert out == s

    def test_map_with_effect_counter(self):
        s = (10, 20, 30)
        counter = [0]

        def f(x):
            counter[0] += 1
            return x + 1

        out = checked_map(
            f, seq_cursor(s),
            ClientContract(inv=lambda v, out: counter[0] == len(v),
                           convergence=lambda c, v: len(c) - len(v),
                           collection=s))
        assert out == (11, 21, 31)
        assert counter[0] == len(s)

    def test_filter_positives(self):
        s = (-1, 2, -3, 4)
        out = checked_filter(
            lambda x: x > 0, seq_cursor(s),
            ClientContract(
                inv=lambda v, out: out == tuple(x for x in v if x > 0),
                convergence=lambda c, v: len(c) - len(v),
                collection=s))
        assert out == (2, 4)

    def test_filter_always_true_is_identity(self):
        s = (5, 5, 5)
        out = checked_filter(lambda x: True, seq_cursor(s),
                             ClientContract(inv=lambda v, out: out == v,
                                            convergence=lambda c, v: len(c) - len(v),
                                            collection=s))
        assert out == s

    def test_map_filter_agree_with_direct_implementations(self):
        rng = random.Random(99)
        for _ in range(100):
            s = tuple(rng.randint(-30, 30) for _ in range(rng.randint(0, 40)))
            free = ClientContract(inv=lambda v, out: True,
                                  convergence=lambda c, v: len(c) - len(v),
                                  collection=s)
            assert checked_map(lambda x: x * 2, seq_cursor(s), free) == \
                tuple(x * 2 for x in s)
            free2 = ClientContract(inv=lambda v, out: True,
                                   convergence=lambda c, v: len(c) - len(v),
                                   collection=s)
            assert checked_filter(lambda x: x % 3 == 0, seq_cursor(s), free2) == \
                tuple(x for x in s if x % 3 == 0)


class TestNestedPropagation:
    def test_inner_invariant_receives_outer_arguments(self):
        outer_seq = (10, 20)
        inner_seq = (1, 2)
        records = []

        def inner_inv(v_in, a_in, v_out, a_out):
            records.append((v_in, a_in, v_out, a_out))
            return True

        def consumer(acc, x):
            return acc + checked_fold(
                lambda a, y: a + y, 0, seq_cursor(inner_seq),
                ClientContract(inv=inner_inv,
                               convergence=lambda c, v: len(c) - len(v),
                               collection=inner_seq))

        checked_fold(consumer, 0, seq_cursor(outer_seq),
                     ClientContract(inv=lambda v, a: True,
                                    convergence=lambda c, v: len(c) - len(v),
                                    collection=outer_seq))
        # first outer step: outer visited already contains the element being
        # consumed, outer accumulator still holds its pre-consumer value
        assert records[0] == ((), 0, (10,), 0)
        assert records[3] == ((), 0, (10, 20), 3)

    def test_three_deep_arity_and_order(self):
        seqs = ((7,), (8,), (9,))
        seen = []

        def innermost_inv(*args):
            seen.append(args)
            return True

        def level(depth, acc0):
            def consumer(acc, x):
                if depth == 2:
                    return acc
                return level(depth + 1, acc)

            inv = innermost_inv if depth == 2 else (lambda *a: True)
            return checked_fold(consumer, acc0, seq_cursor(seqs[depth]),
                                ClientContract(inv=inv,
                                               convergence=lambda c, v: len(c) - len(v),
                                               collection=seqs[depth]))

        level(0, 100)
        assert all(len(args) == 6 for args in seen)
        # own level first, then enclosing levels nearest first
        final = seen[-1]
        assert final == ((9,), 100, (8,), 100, (7,), 100)

    def test_iter_level_contributes_visited_only(self):
        outer = (1, 2)
        inner = (5,)
        seen = []

        def inner_inv(*args):
            seen.append(args)
            return True

        def consumer(x):
            checked_fold(lambda a, y: a, 0, seq_cursor(inner),
                         ClientContract(inv=inner_inv,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=inner))

        checked_iter(consumer, seq_cursor(outer),
                     ClientContract(inv=lambda v: True,
                                    convergence=lambda c, v: len(c) - len(v),
                                    collection=outer))
        assert all(len(args) == 3 for args in seen)
        assert seen[0] == ((), 0, (1,))

    def test_explicit_context_override(self):
        ctx = push_frame(EMPTY_CONTEXT, 42, (3, 1))
        seen = []
        checked_fold(lambda a, x: a, 0, seq_cursor((5,)),
                     ClientContract(inv=lambda *args: seen.append(args) or True,
                                    convergence=lambda c, v: len(c) - len(v),
                                    collection=(5,)),
                     ctx=ctx)
        assert seen[0] == ((), 0, (3, 1), 42)

    def test_closure_arity_mismatch_is_reported(self):
        inv = lam("v a extra", Cmp("=", Var("a"), Var("a")))
        with pytest.raises(EvaluationError, match="arity mismatch"):
            checked_fold(lambda a, x: a, 0, seq_cursor((1,)),
                         ClientContract(inv=inv,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=(1,)))

    def test_broken_invariant_term_is_an_evaluation_error_not_a_violation(self):
        # the invariant indexes past the visited prefix: the predicate itself
        # is faulty, which must surface as an evaluation error
        inv = lam("v a", Cmp("=", Index(Var("v"), IntLit(5)), Var("a")))
        with pytest.raises(EvaluationError, match="out of range"):
            checked_fold(lambda a, x: a, 0, seq_cursor((1, 2)),
                         ClientContract(inv=inv,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=(1, 2)))


class TestSpecErrorsNameRoleAndStep:
    """An evaluation error in the client invariant or the convergence
    measure, or a result of the wrong type, names its role and step."""

    def test_invariant_error_names_step(self):
        inv = lam("v a", Cmp("=", Index(Var("v"), IntLit(5)), Var("a")))
        with pytest.raises(EvaluationError) as exc:
            checked_fold(lambda a, x: a, 0, seq_cursor((1, 2)),
                         ClientContract(inv=inv,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=(1, 2)))
        assert str(exc.value) == ("invariant at step 0: index 5 out of range "
                                  "for sequence of length 0")
        assert str(exc.value.__cause__) == (
            "index 5 out of range for sequence of length 0")

    def test_convergence_error_names_step(self):
        measure = lam("c v", Arith("-", Index(Var("c"), Len(Var("v"))), IntLit(1)))
        with pytest.raises(EvaluationError) as exc:
            checked_fold(lambda a, x: a, 0, seq_cursor((3, 4)),
                         ClientContract(inv=lambda v, a: True,
                                        convergence=measure, collection=(5, 4)))
        assert str(exc.value) == ("convergence at step 2: index 2 out of range "
                                  "for sequence of length 2")
        assert isinstance(exc.value.__cause__, EvaluationError)

    def test_wrong_result_types_name_step(self):
        with pytest.raises(EvaluationError,
                           match=r"^invariant at step 1: returned non-boolean 1$"):
            checked_fold(lambda a, x: a, 0, seq_cursor((1, 2)),
                         ClientContract(inv=lambda v, a: 1 if v else True,
                                        convergence=lambda c, v: len(c) - len(v),
                                        collection=(1, 2)))
        with pytest.raises(EvaluationError,
                           match=r"^convergence at step 0: returned non-integer 'x'$"):
            checked_fold(lambda a, x: a, 0, seq_cursor((1,)),
                         ClientContract(inv=lambda v, a: True,
                                        convergence=lambda c, v: "x",
                                        collection=(1,)))


class TestContextType:
    def test_push_appends_innermost_last(self):
        ctx = push_frame(EMPTY_CONTEXT, 1, (1,))
        ctx = push_frame(ctx, 2, (2,))
        assert ctx.depth == 2
        assert ctx.frames[-1].acc == 2

    def test_pop_restores(self):
        ctx = push_frame(EMPTY_CONTEXT, 1, (1,))
        assert pop_frame(ctx) == EMPTY_CONTEXT

    def test_pop_on_empty_is_a_programming_error(self):
        with pytest.raises(AssertionError):
            pop_frame(EMPTY_CONTEXT)

    def test_iter_frames_have_no_accumulator(self):
        ctx = push_frame(EMPTY_CONTEXT, NO_ACC, (1, 2))
        assert ctx.appended_args() == [(1, 2)]

    def test_appended_args_nearest_first(self):
        ctx = push_frame(EMPTY_CONTEXT, "outer", ("o",))
        ctx = push_frame(ctx, "inner", ("i",))
        assert ctx.appended_args() == [("i",), "inner", ("o",), "outer"]
