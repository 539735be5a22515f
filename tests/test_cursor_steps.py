"""Step-form permitted checks against full re-evaluation.

The library's cursors check ``permitted`` after each element through the
predicate's step form. Here every library cursor also runs with a step-less
wrapper around the same predicate, which the cursor evaluates in full on
the whole visited sequence at every step. Over faulty producers both must
report the same violation kind at the same step, or finish with the same
visited sequence. The per-step bookkeeping shares one visited object, which
the last test pins down.
"""

import random

from hypothesis import given, settings, strategies as st

from unfold import (
    ClientContract,
    ContractViolation,
    FiniteSet,
    ViolationKind,
    checked_fold,
    checked_iter,
    create_cursor,
    level_cursor,
    seq_cursor,
    set_cursor,
    tree_cursor,
)
from unfold.engine import current_context

from helpers import random_tree

SETTINGS = settings(max_examples=150, deadline=None)

SMALL_INTS = st.integers(-4, 4)
FAULTS = ("none", "substitute", "duplicate", "extra", "truncate", "non_member")


def full_form(pred):
    """The same predicate without its step form: evaluated in full."""
    return lambda v: pred(v)


def run_cursor(cursor):
    """Drain ``cursor``; the violation it raised, or the visited sequence."""
    try:
        while cursor.has_next():
            cursor.next()
    except ContractViolation as exc:
        return ("violation", exc.kind, exc.step)
    return ("done", cursor.visited)


def both_forms(make_template, produced):
    """One cursor over ``produced`` with the library's own predicates, one
    with their full forms; each gets a fresh template, since a predicate
    may keep state across steps."""
    stepped = make_template()
    full = make_template()
    return (create_cursor(iter(produced), stepped.permitted, stepped.complete),
            create_cursor(iter(produced), full_form(full.permitted),
                          full.complete))


# -- library cursors and the honest enumeration of each -------------------------

@st.composite
def structures(draw):
    """(name, make_template, honest elements, a value foreign to them)."""
    kind = draw(st.sampled_from(("seq", "tree", "level", "set")))
    if kind == "seq":
        s = tuple(draw(st.lists(SMALL_INTS, max_size=10)))
        return kind, lambda: seq_cursor(s), s, draw(SMALL_INTS)
    if kind == "set":
        members = FiniteSet(draw(st.lists(SMALL_INTS, max_size=8)))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        order = list(members.elems)
        rng.shuffle(order)
        foreign = draw(st.integers(5, 9))
        return kind, lambda: set_cursor(members), tuple(order), foreign
    t = random_tree(random.Random(draw(st.integers(0, 2 ** 16))),
                    draw(st.integers(0, 12)))
    if kind == "tree":
        return kind, lambda: tree_cursor(t), t.flatten(), draw(SMALL_INTS)
    levels = t.levels()
    return kind, lambda: level_cursor(t), levels, (draw(SMALL_INTS),)


@st.composite
def faulty_runs(draw):
    kind, make, honest, foreign = draw(structures())
    fault = draw(st.sampled_from(FAULTS))
    produced = list(honest)
    at = draw(st.integers(0, len(produced)))
    if fault == "substitute" and produced:
        i = min(at, len(produced) - 1)
        other = draw(st.sampled_from(produced + [foreign]))
        produced[i] = other
    elif fault == "duplicate" and produced:
        i = min(at, len(produced) - 1)
        produced.insert(i + 1, produced[i])
    elif fault == "extra":
        produced.append(draw(st.sampled_from(produced + [foreign])))
    elif fault == "truncate":
        produced = produced[:at]
    elif fault == "non_member":
        produced.insert(at, foreign)
    return kind, make, tuple(produced)


class TestStepAgainstFull:
    @SETTINGS
    @given(faulty_runs())
    def test_same_violation_or_same_visited(self, run):
        _kind, make, produced = run
        stepped, full = both_forms(make, produced)
        assert run_cursor(stepped) == run_cursor(full)

    @SETTINGS
    @given(faulty_runs())
    def test_step_agrees_with_call_on_every_prefix(self, run):
        _kind, make, produced = run
        pred = make().permitted
        for k, x in enumerate(produced):
            if not pred(produced[:k]):
                break
            answer = pred.step(k, x)
            assert type(answer) is bool
            assert answer == pred(produced[:k + 1])

    def test_step_forms_are_used_by_every_library_cursor(self):
        t = random_tree(random.Random(1), 5)
        for cursor in (seq_cursor((1, 2)), set_cursor(FiniteSet([1, 2])),
                       tree_cursor(t), level_cursor(t)):
            assert callable(getattr(cursor.permitted, "step", None))

    def test_set_predicate_restarts_at_step_zero(self):
        pred = set_cursor(FiniteSet([1, 2])).permitted
        assert pred.step(0, 1) and pred.step(1, 2)
        assert pred.step(0, 2) and pred.step(1, 1)
        assert not pred.step(2, 1)


# -- test_c05's three fault shapes through checked_fold ---------------------------

def sum_contract(s):
    return ClientContract(inv=lambda v, a: a == sum(v),
                          convergence=lambda c, v: len(c) - len(v),
                          collection=s)


def run_fold(consumer, init, cursor, contract):
    try:
        return ("done", checked_fold(consumer, init, cursor, contract))
    except ContractViolation as exc:
        return ("violation", exc.kind, exc.step)


SEQS = st.lists(st.integers(-50, 50), min_size=1, max_size=20).map(tuple)


class TestC05ShapesThroughCheckedFold:
    @SETTINGS
    @given(SEQS, st.sampled_from((-1, 1, 7)))
    def test_wrong_initial_accumulator(self, s, wrong):
        stepped, full = both_forms(lambda: seq_cursor(s), s)
        add = lambda a, x: a + x
        outcomes = [run_fold(add, wrong, c, sum_contract(s))
                    for c in (stepped, full)]
        assert outcomes[0] == outcomes[1] == (
            "violation", ViolationKind.INVARIANT_VIOLATED_INITIALLY, 0)

    @SETTINGS
    @given(SEQS, st.data())
    def test_consumer_dropping_one_effect(self, s, data):
        drop = data.draw(st.integers(0, len(s) - 1))
        outcomes = []
        for cursor in both_forms(lambda: seq_cursor(s), s):
            seen = [0]

            def consumer(a, x):
                seen[0] += 1
                return a if seen[0] - 1 == drop else a + x

            outcomes.append(run_fold(consumer, 0, cursor, sum_contract(s)))
        assert outcomes[0] == outcomes[1]
        if s[drop] != 0:
            assert outcomes[0] == (
                "violation", ViolationKind.INVARIANT_VIOLATED, drop + 1)

    @SETTINGS
    @given(st.integers(1, 20), st.data())
    def test_producer_re_yielding_an_element(self, n, data):
        s = tuple(range(n))
        dup = data.draw(st.integers(0, n - 1))
        produced = s[:dup + 1] + (s[dup],) + s[dup + 1:]
        outcomes = [run_fold(lambda a, x: a + x, 0, c, sum_contract(s))
                    for c in both_forms(lambda: seq_cursor(s), produced)]
        assert outcomes[0] == outcomes[1] == (
            "violation", ViolationKind.PERMITTED_VIOLATED, dup + 2)


# -- one shared visited object per step -------------------------------------------

def test_every_reader_of_a_step_shares_one_visited_object():
    s = (3, 1, 4, 1, 5)
    outer = seq_cursor(s)
    by_invariant = []
    by_consumer = []

    def invariant(v, a):
        by_invariant.append(v)
        return a == sum(v)

    def consumer(acc, x):
        first, second = outer.visited, outer.visited
        assert first is second
        assert current_context().frames[-1].visited is first
        nested = []
        checked_iter(lambda y: None, seq_cursor((0, 0)),
                     ClientContract(inv=lambda v_in, v_out, a_out:
                                    nested.append(v_out) is None,
                                    convergence=lambda c, v: len(c) - len(v),
                                    collection=(0, 0)))
        assert nested and all(v is first for v in nested)
        by_consumer.append(first)
        return acc + x

    checked_fold(consumer, 0, outer,
                 ClientContract(inv=invariant,
                                convergence=lambda c, v: len(c) - len(v),
                                collection=s))
    assert len(by_invariant) == len(s) + 1
    assert by_invariant[0] == ()
    for seen, checked in zip(by_consumer, by_invariant[1:]):
        assert checked is seen
    assert outer.visited is by_invariant[-1]
