"""Append-only logs and their views, bounded violation text, and the
engine's per-loop bookkeeping.

A cursor's visited sequence and a map's or filter's output are views of
append-only logs: each must behave as the equal tuple, stay unchanged while
the log grows, and be shared by every reader of one step. The engine counts
its checks per loop and adds them to the stats once, so the counts must
stay exact however the loop ends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from unfold import (
    ClientContract,
    ContractViolation,
    FiniteSet,
    checked_filter,
    checked_fold,
    checked_iter,
    checked_map,
    collect_stats,
    create_cursor,
    current_context,
    seq_cursor,
    visited_of,
)
from unfold.demo import DEMOS
from unfold.dsl import parse_scenario, run_scenario
from unfold.values import SeqView, bounded_repr, value_key

ELEMS = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                  st.tuples(st.integers(0, 2), st.integers(0, 2)))


def outcome(f):
    try:
        return ("value", f())
    except Exception as exc:  # noqa: BLE001 - compared with the tuple's
        return ("error", type(exc), str(exc))


def view_and_tuple(items, extra):
    """A view of the first ``len(items)`` elements of a log that goes on
    with ``extra``, and the equal tuple."""
    return SeqView(list(items) + list(extra), len(items)), tuple(items)


# -- a view behaves as the equal tuple ------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(ELEMS, max_size=8), st.lists(ELEMS, max_size=3), ELEMS,
       st.lists(st.one_of(st.none(), st.integers(-10, 10)), min_size=3, max_size=3))
def test_a_view_behaves_as_the_equal_tuple(items, extra, probe, bounds):
    v, t = view_and_tuple(items, extra)
    n = len(t)
    assert len(v) == n and bool(v) == bool(t)
    for i in range(-n - 2, n + 2):
        assert outcome(lambda: v[i]) == outcome(lambda: t[i])
    for step in (None, 1, 2, -1, -2, 0):
        sl = slice(bounds[0], bounds[1], step)
        assert outcome(lambda: v[sl]) == outcome(lambda: t[sl])
        if step != 0:
            assert type(v[sl]) is tuple
    assert outcome(lambda: v["0"]) == outcome(lambda: t["0"])
    assert list(v) == list(t)
    assert v == t and t == v and not v != t
    assert v == SeqView(list(items), n)
    assert v != t + (probe,) and v != list(t)
    assert hash(v) == hash(t)
    assert value_key(v) == value_key(t)
    assert repr(v) == repr(t)
    assert (probe in v) == (probe in t)
    assert FiniteSet(v) == FiniteSet(t)
    assert v.as_tuple() == t and type(v.as_tuple()) is tuple
    assert {t: 1}[v] == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=80), st.integers(0, 60))
def test_bounded_repr_is_exact_under_the_cap(items, limit):
    v, t = view_and_tuple(items, (7,))
    text = repr(t)
    for value in (v, t):
        got = bounded_repr(value, limit)
        if len(text) <= limit:
            assert got == text
        else:
            assert got == text[:limit] + " ...[elided]"


# -- views from a cursor and from the engines -----------------------------------------

def test_a_kept_view_stays_unchanged_while_the_cursor_goes_on():
    s = (5, 6, 7, 8)
    c = seq_cursor(s)
    c.next()
    kept = c.visited
    c.next()
    c.next()
    assert kept == (5,) and len(kept) == 1 and list(kept) == [5]
    assert repr(kept) == "(5,)"
    with pytest.raises(IndexError):
        kept[1]
    assert c.visited == (5, 6, 7) and c.visited.extends(kept)
    assert visited_of(c) == (5, 6, 7) and type(visited_of(c)) is tuple


def test_map_and_filter_return_tuples():
    s = (3, -1, 4, -1, 5)
    contract = ClientContract(inv=lambda v, out: True,
                              convergence=lambda c, v: len(c) - len(v),
                              collection=s)
    mapped = checked_map(lambda x: x * 2, seq_cursor(s), contract)
    kept = checked_filter(lambda x: x > 0, seq_cursor(s), contract)
    assert type(mapped) is tuple and mapped == (6, -2, 8, -2, 10)
    assert type(kept) is tuple and kept == (3, 4, 5)
    assert type(checked_map(abs, seq_cursor(()), ClientContract(
        contract.inv, contract.convergence, ()))) is tuple


def test_every_visited_a_loop_hands_out_is_a_view_of_one_log():
    s = (2, 7, 1, 8, 2, 8)
    seen = []

    def keep(v):
        seen.append(v)
        return True

    cursor = create_cursor(iter(s), permitted=keep, complete=keep)
    outs = []

    def inv(v, out):
        outs.append(out)
        return keep(v)

    def step(x):
        seen.append(current_context().frames[-1].visited)
        seen.append(cursor.visited)
        return x + 1

    mapped = checked_map(step, cursor, ClientContract(
        inv=inv, convergence=lambda c, v: keep(v) and len(c) - len(v),
        collection=s))
    assert mapped == tuple(x + 1 for x in s)
    final = cursor.visited
    assert all(isinstance(v, SeqView) and final.extends(v) for v in seen)
    assert {len(v) for v in seen} == set(range(len(s) + 1))
    # the output views, too, are views of one log
    assert all(outs[-1].extends(out) for out in outs)
    assert [len(out) for out in outs] == list(range(len(s) + 1))


# -- exact counts however a loop ends -------------------------------------------------

def _count_in_trace(trace, kind):
    return sum(1 for k, _, _ in trace if k == kind)


@pytest.mark.parametrize("stop_at", [0, 1, 4, 9])
@pytest.mark.parametrize("how", ["violation", "consumer", "done"])
def test_counts_stay_exact_however_the_loop_ends(stop_at, how):
    s = tuple(range(10))

    def consumer(a, x):
        if how == "consumer" and x == stop_at:
            raise RuntimeError("consumer failed")
        return a + x

    def inv(v, a):
        return not (how == "violation" and len(v) == stop_at + 1)

    with collect_stats(trace=True) as stats:
        try:
            checked_fold(consumer, 0, seq_cursor(s), ClientContract(
                inv=inv, convergence=lambda c, v: len(c) - len(v), collection=s))
        except (ContractViolation, RuntimeError):
            pass
    completed = len(s) if how == "done" else stop_at
    # the initial invariant, then per completed step one invariant and two
    # measures; a failing step ran its first measure, and a violation its
    # invariant too
    assert stats.inv_checks == 1 + completed + (how == "violation")
    assert stats.variant_checks == 2 * completed + (how != "done")
    assert stats.inv_checks == _count_in_trace(stats.trace, "inv")
    assert stats.variant_checks == _count_in_trace(stats.trace, "variant")


def test_a_failing_inner_loop_is_counted_in_the_enclosing_stats():
    outer = (1, 2, 3)
    with collect_stats() as stats:
        def consumer(a, x):
            with pytest.raises(ContractViolation):
                checked_iter(lambda y: None, seq_cursor((0, 0, 0)), ClientContract(
                    inv=lambda v, *outer_args: len(v) < 2,
                    convergence=lambda c, v: len(c) - len(v), collection=(0, 0, 0)))
            return a + x

        checked_fold(consumer, 0, seq_cursor(outer), ClientContract(
            inv=lambda v, a: True, convergence=lambda c, v: len(c) - len(v),
            collection=outer))
    # outer: 1 + 3 invariants, 6 measures; each inner loop: 3 invariants
    # (initial, step 1, failing step 2) and 3 measures
    assert stats.inv_checks == 4 + 3 * 3
    assert stats.variant_checks == 6 + 3 * 3


def test_a_consumer_that_moves_the_cursor_is_measured_on_the_moved_view():
    s = (1, 2, 3, 4, 5)
    cursor = seq_cursor(s)

    def consumer(a, x):
        if x == 2:
            cursor.next()  # skips 3: the next measure must see 3 elements
        return a + x

    with collect_stats(trace=True) as stats:
        total = checked_fold(consumer, 0, cursor, ClientContract(
            inv=lambda v, a: True, convergence=lambda c, v: len(c) - len(v),
            collection=s))
    assert total == 12
    assert [(k, step) for k, step, _ in stats.trace] == [
        ("inv", 0), ("variant", 0), ("inv", 1), ("variant", 1), ("variant", 1),
        ("inv", 2), ("variant", 2), ("variant", 3), ("inv", 4), ("variant", 4),
        ("variant", 4), ("inv", 5), ("variant", 5)]


UNION_EDGE_PASS_TRACE = [
    ("inv", 0, "O"), ("variant", 0, "M"), ("inv", 0, ""), ("variant", 0, ""),
    ("inv", 1, ""), ("variant", 1, ""), ("variant", 1, ""), ("inv", 2, ""),
    ("variant", 2, ""), ("inv", 1, "O"), ("variant", 1, "M"),
    ("variant", 1, "M"), ("inv", 0, ""), ("variant", 0, ""), ("inv", 1, ""),
    ("variant", 1, ""), ("inv", 2, "O"), ("variant", 2, "M"),
    ("variant", 2, "M"), ("inv", 0, ""), ("inv", 3, "O"), ("variant", 3, "M"),
]


def test_the_trace_of_a_nested_graph_operation_is_unchanged():
    report = run_scenario(parse_scenario(DEMOS["union"]), trace=True)
    labels = {"": "", "union_outer g1 g2": "O",
              "(fun c v -> len c.dom - len v)": "M"}
    row = report.rows[-1]  # the edge-completion pass
    assert [(k, step, labels[label]) for k, step, label in row.trace] \
        == UNION_EDGE_PASS_TRACE
    assert (row.inv_checks, row.variant_checks) == (10, 12)


# -- bounded violation text -----------------------------------------------------------

def test_a_late_violation_in_a_long_fold_has_a_short_message():
    s = tuple(range(20000))
    with pytest.raises(ContractViolation) as exc:
        checked_fold(lambda a, x: a + x, 0, seq_cursor(s), ClientContract(
            inv=lambda v, a: len(v) < 19999,
            convergence=lambda c, v: len(c) - len(v), collection=s))
    assert exc.value.step == 19999
    assert len(str(exc.value)) <= 1024
    assert exc.value.detail.startswith("invariant failed on visited=(0, 1, 2, ")
    assert exc.value.detail.endswith(" ...[elided], acc=199970001")


def test_a_short_violation_message_is_unchanged():
    s = (1, 2, 3)
    with pytest.raises(ContractViolation) as exc:
        checked_map(lambda x: x, seq_cursor(s), ClientContract(
            inv=lambda v, out: len(v) < 2,
            convergence=lambda c, v: len(c) - len(v), collection=s))
    assert exc.value.detail == "invariant failed on visited=(1, 2), acc=(1, 2)"


# -- hashed finite-set membership -----------------------------------------------------

def _keys(s: FiniteSet) -> list:
    return sorted({value_key(x) for x in s})


@settings(max_examples=300, deadline=None)
@given(st.lists(ELEMS, max_size=10), st.lists(ELEMS, max_size=10), ELEMS)
def test_set_operations_agree_with_the_sorted_key_definitions(xs, ys, probe):
    a, b = FiniteSet(xs), FiniteSet(ys)
    ka, kb = _keys(a), _keys(b)
    assert (probe in a) == any(value_key(probe) == k for k in ka)
    assert a.subset(b) == all(k in kb for k in ka)
    assert _keys(a.inter(b)) == [k for k in ka if k in kb]
    assert _keys(a.diff(b)) == [k for k in ka if k not in kb]
    assert list(a) == [x for k in ka for x in a if value_key(x) == k]
