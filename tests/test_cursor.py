import random

import pytest

from unfold import (
    ContractViolation,
    EvaluationError,
    ViolationKind,
    create_cursor,
    has_next,
    next_elem,
    seq_cursor,
    visited_of,
)


def prefix_of(s):
    return lambda v: v == s[:len(v)]


def length_complete(s):
    return lambda v: len(v) == len(s)


class TestCreate:
    def test_fresh_cursor_has_empty_visited(self):
        c = create_cursor(iter((1, 2, 3)), prefix_of((1, 2, 3)),
                          length_complete((1, 2, 3)))
        assert visited_of(c) == ()

    def test_empty_producer_is_immediately_exhausted(self):
        c = create_cursor(iter(()), lambda v: True, lambda v: v == ())
        assert visited_of(c) == ()
        assert has_next(c) is False

    def test_permitted_rejecting_empty_fails_at_construction(self):
        with pytest.raises(ContractViolation) as exc:
            create_cursor(iter((1,)), lambda v: False, lambda v: True)
        assert exc.value.kind is ViolationKind.PERMITTED_VIOLATED
        assert exc.value.step == 0


class TestHasNext:
    def test_true_on_remaining_elements(self):
        c = seq_cursor((1, 2, 3))
        assert has_next(c) is True
        assert visited_of(c) == ()  # lookahead does not grow visited

    def test_false_at_exhaustion_with_complete_check(self):
        c = seq_cursor((1, 2, 3))
        for _ in range(3):
            next_elem(c)
        assert has_next(c) is False
        assert visited_of(c) == (1, 2, 3)

    def test_complete_failure_at_exhaustion(self):
        c = create_cursor(iter((1,)), lambda v: True, lambda v: False)
        next_elem(c)
        with pytest.raises(ContractViolation) as exc:
            has_next(c)
        assert exc.value.kind is ViolationKind.COMPLETE_VIOLATED_AT_EXHAUSTION
        assert exc.value.step == 1

    def test_idempotent_after_false(self):
        c = seq_cursor(())
        assert has_next(c) is False
        assert has_next(c) is False


class TestNext:
    def test_yields_in_order(self):
        c = seq_cursor((7, 8))
        assert next_elem(c) == 7
        assert visited_of(c) == (7,)
        assert next_elem(c) == 8
        assert visited_of(c) == (7, 8)

    def test_faulty_producer_caught_by_permitted(self):
        c = create_cursor(iter((9,)), prefix_of((7, 8)), length_complete((7, 8)))
        with pytest.raises(ContractViolation) as exc:
            next_elem(c)
        assert exc.value.kind is ViolationKind.PERMITTED_VIOLATED
        assert exc.value.step == 1

    def test_next_on_exhausted(self):
        c = seq_cursor((1,))
        next_elem(c)
        with pytest.raises(ContractViolation) as exc:
            next_elem(c)
        assert exc.value.kind is ViolationKind.NEXT_ON_EXHAUSTED
        assert exc.value.step == 1


class TestVisitedOf:
    def test_snapshot_is_a_tuple(self):
        c = seq_cursor((1, 2, 3))
        next_elem(c)
        snap = visited_of(c)
        assert snap == (1,)
        assert isinstance(snap, tuple)

    def test_snapshot_after_two_steps(self):
        c = seq_cursor((1, 2, 3))
        next_elem(c)
        next_elem(c)
        assert visited_of(c) == (1, 2)

    def test_full_exhaustion_snapshot(self):
        c = seq_cursor((1, 2, 3))
        while has_next(c):
            next_elem(c)
        assert visited_of(c) == (1, 2, 3)


class TestBrokenPredicate:
    def test_predicate_failure_is_an_evaluation_error(self):
        def broken(v):
            return v[5] == 0  # IndexError on short prefixes

        with pytest.raises(IndexError):
            create_cursor(iter((1,)), broken, lambda v: True)

    def test_non_boolean_predicate_result(self):
        with pytest.raises(EvaluationError, match="non-boolean"):
            create_cursor(iter(()), lambda v: 1, lambda v: True)


def _raise_evaluation_error(*_args):
    raise EvaluationError("index 5 out of range")


class _StepPredicate:
    """Full form accepts everything; the step form is given per test."""

    def __init__(self, step):
        self.step = step

    def __call__(self, v):
        return True


class TestPredicateErrorsNameRoleAndStep:
    """A broken permitted/complete predicate is reported with its role and
    the step (the visited length) at which it was evaluated."""

    def drain(self, cursor):
        while cursor.has_next():
            cursor.next()

    def test_permitted_non_boolean(self):
        c = create_cursor(iter((1, 2)), lambda v: len(v) if v else True,
                          lambda v: True)
        with pytest.raises(EvaluationError,
                           match=r"^permitted predicate at step 1: "
                                 r"returned non-boolean 1$"):
            self.drain(c)

    def test_permitted_evaluation_error(self):
        with pytest.raises(EvaluationError,
                           match=r"^permitted predicate at step 0: "
                                 r"index 5 out of range$"):
            create_cursor(iter(()), _raise_evaluation_error, lambda v: True)

    def test_permitted_step_form_non_boolean(self):
        c = create_cursor(iter((1, 2, 3)),
                          _StepPredicate(lambda k, x: None if k == 2 else True),
                          lambda v: True)
        with pytest.raises(EvaluationError,
                           match=r"^permitted predicate at step 3: "
                                 r"returned non-boolean None$"):
            self.drain(c)

    def test_permitted_step_form_evaluation_error(self):
        c = create_cursor(iter((1, 2)), _StepPredicate(_raise_evaluation_error),
                          lambda v: True)
        with pytest.raises(EvaluationError,
                           match=r"^permitted predicate at step 1: "
                                 r"index 5 out of range$"):
            self.drain(c)

    def test_complete_non_boolean(self):
        c = create_cursor(iter((1, 2)), lambda v: True, lambda v: len(v))
        with pytest.raises(EvaluationError,
                           match=r"^complete predicate at step 2: "
                                 r"returned non-boolean 2$"):
            self.drain(c)

    def test_complete_evaluation_error(self):
        c = create_cursor(iter((1,)), lambda v: True, _raise_evaluation_error)
        with pytest.raises(EvaluationError,
                           match=r"^complete predicate at step 1: "
                                 r"index 5 out of range$"):
            self.drain(c)

    def test_term_language_predicate_error(self):
        from unfold.terms import Closure, Index, IntLit, Lambda, Var, VarPat

        broken = Closure(Lambda((VarPat("v"),),
                                Index(Var("v"), IntLit(5))), {})
        with pytest.raises(EvaluationError,
                           match=r"^permitted predicate at step 0: ") as exc:
            create_cursor(iter(()), broken, lambda v: True)
        assert isinstance(exc.value.__cause__, EvaluationError)


class TestInterleavings:
    @staticmethod
    def drive_randomly(rng, cursor):
        """Interleave has_next/next randomly; checks the contract at every
        observation point and returns the number of elements produced."""
        lengths = [len(visited_of(cursor))]
        while True:
            assert cursor.permitted(visited_of(cursor))
            if rng.random() < 0.4:
                if not has_next(cursor):
                    break
                continue
            if not has_next(cursor):
                break
            next_elem(cursor)
            lengths.append(len(visited_of(cursor)))
        assert cursor.complete(visited_of(cursor))
        assert lengths == list(range(len(visited_of(cursor)) + 1))
        return len(visited_of(cursor))

    def test_random_call_sequences_preserve_the_contract(self):
        rng = random.Random(20260810)
        for _ in range(200):
            s = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 12)))
            c = seq_cursor(s)
            self.drive_randomly(rng, c)
            assert visited_of(c) == s

    def test_interleavings_on_every_constructor(self):
        from unfold import FiniteSet, level_cursor, set_cursor, tree_cursor
        from helpers import random_tree

        rng = random.Random(31337)
        for _ in range(60):
            members = FiniteSet(rng.randint(-9, 9)
                                for _ in range(rng.randint(0, 10)))
            produced = self.drive_randomly(rng, set_cursor(members))
            assert produced == len(members)
            t = random_tree(rng, rng.randint(0, 12))
            assert self.drive_randomly(rng, tree_cursor(t)) == t.size()
            assert self.drive_randomly(rng, level_cursor(t)) == t.height()
