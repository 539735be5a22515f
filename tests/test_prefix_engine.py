"""Resumed range forms against the straight path, through the engines.

Each run is made twice: as the library runs it, and with every binding of
``unfold.terms.apply_lambda`` swapped for the reference interpreter's, so
that every contract is evaluated in full by ``reference_eval``. Both must
end the same way: the same result, or the same violation kind, step and
detail string, and the same check counts. The runs cover the five fault
shapes of the benchmark's scenario files (wrong initial accumulator, model
mismatch, permitted mismatch, a measure decreasing by two, a failed
expectation) and the three of acceptance criterion C05 (wrong initial
accumulator, a dropped effect, a re-yielding producer), with term-language
contracts.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from unfold import (
    ClientContract,
    ContractViolation,
    EvaluationError,
    QueueRef,
    checked_fold,
    checked_iter,
    collect_stats,
    create_cursor,
    terms,
)
from unfold.dsl import parse_scenario, parse_term_text, run_scenario
from unfold.terms import eval_term
from unfold.values import SeqView

import reference_eval


def _straight(run):
    """``run()`` with every lambda applied by the reference interpreter."""
    original = terms.apply_lambda
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name == "unfold" or name.startswith("unfold."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        mp.setattr(module, attr, reference_eval.apply_lambda)
        return run()


def assert_same_both_ways(run):
    got = run()
    assert got == _straight(run)
    return got


# -- the scenario files' fault shapes ------------------------------------------------

DECL = r"""
decl fold_seq {{
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len {ref} /\
                    forall i. 0 <= i < len v -> v[i] = {ref}[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}}
"""
CALL = r"""
call total uses fold_seq {{
  folds ~inv:(fun v a -> a = sum (fun i -> {model}[i]) 0 (len v))
        ~collection:s
        ~convergence:{measure}
  consumer = (fun a x -> a + x);
  init = {init};
{expect}}}
"""


def _literal(xs):
    return "[" + ", ".join(map(str, xs)) + "]"


def scenario_text(s, at, fault):
    moved = s[:at] + (s[at] + 1,) + s[at + 1:]
    ref = "m" if fault == "permitted_mismatch" else "collection"
    fields = {"model": "m" if fault == "model_mismatch" else "v",
              "measure": ("(fun c v -> len c - 2 * len v)"
                          if fault == "double_step_measure"
                          else "(fun c v -> len c - len v)"),
              "init": 1 if fault == "wrong_init" else 0,
              "expect": (f"  expect = {sum(s) + 1};\n"
                         if fault == "failed_expect" else "")}
    return (f"collection s = {_literal(s)}\ncollection m = {_literal(moved)}\n"
            + DECL.format(ref=ref) + CALL.format(**fields))


def report_rows(text):
    report = run_scenario(parse_scenario(text))
    return [(row.name, row.status, row.result, row.detail,
             row.violation and (row.violation.kind, row.violation.step,
                                row.violation.detail),
             row.inv_checks, row.variant_checks, row.permitted_checks,
             row.complete_checks) for row in report.rows]


FAULTS = ("none", "wrong_init", "model_mismatch", "permitted_mismatch",
          "double_step_measure", "failed_expect")
SEQS = st.lists(st.integers(-50, 50), min_size=1, max_size=30).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=30).map(tuple), st.data())
def test_scenario_fault_shapes_end_as_on_the_straight_path(s, data):
    # from 3 elements on, a measure decreasing by two turns negative
    at = data.draw(st.integers(0, len(s) - 1))
    for fault in FAULTS:
        rows = assert_same_both_ways(
            lambda: report_rows(scenario_text(s, at, fault)))
        ((_, status, *_),) = rows
        assert status == {"none": "pass", "failed_expect": "failed"}.get(
            fault, "violation")


# -- acceptance criterion C05's shapes with term contracts ---------------------------

PREFIX = parse_term_text(
    r"(fun v -> len v <= len s /\ forall i. 0 <= i < len v -> v[i] = s[i])")
COMPLETE = parse_term_text("(fun v -> len v = len s)")
SUM_INV = parse_term_text("(fun v a -> a = sum (fun i -> v[i]) 0 (len v))")
REMAINING = parse_term_text("(fun c v -> len c - len v)")
LEFT_OVER = parse_term_text("(fun c v -> len (diff (setof c) (setof v)))")
QUEUE_INV = parse_term_text(
    r"(fun v -> len q = len v /\ forall i. 0 <= i < len v -> q[i] = v[i])")
OUT_INV = parse_term_text(
    r"(fun v out -> len out = len v /\ forall i. 0 <= i < len out -> out[i] = v[i])")
TRUE2 = parse_term_text("(fun v a -> true)")


def close(lam, **env):
    return eval_term(lam, env)


def cursor(produced, s, permissive=False):
    if permissive:
        anything = close(parse_term_text("(fun v -> true)"))
        return create_cursor(iter(produced), anything, anything)
    return create_cursor(iter(produced), close(PREFIX, s=s), close(COMPLETE, s=s))


def ending(run):
    with collect_stats() as stats:
        try:
            end = ("done", run())
        except ContractViolation as exc:
            end = ("violation", exc.kind, exc.step, exc.detail)
        except EvaluationError as exc:
            end = ("error", str(exc))
    return end, (stats.inv_checks, stats.variant_checks,
                 stats.permitted_checks, stats.complete_checks)


@settings(max_examples=60, deadline=None)
@given(SEQS, st.data())
def test_c05_shapes_end_as_on_the_straight_path(s, data):
    at = data.draw(st.integers(0, len(s) - 1))
    sum_contract = ClientContract(close(SUM_INV), close(REMAINING), s)

    # (a) a wrong initial accumulator
    for init in (0, data.draw(st.sampled_from([-1, 1, 7]))):
        assert_same_both_ways(lambda: ending(lambda: checked_fold(
            lambda a, x: a + x, init, cursor(s, s), sum_contract)))

    # (b) a consumer dropping the effect of element ``at``: into a queue
    # (a reference cell, so the form evaluates in full) and into the
    # accumulator (read by index, so the form resumes)
    def queue_run():
        q = QueueRef()
        seen = []

        def consumer(x):
            seen.append(x)
            if len(seen) - 1 != at:
                q.push(x)
        return checked_iter(consumer, cursor(s, s), ClientContract(
            close(QUEUE_INV, q=q), close(REMAINING), s))

    def fold_run():
        seen = []

        def consumer(out, x):
            seen.append(x)
            return out if len(seen) - 1 == at else out + (x,)
        return checked_fold(consumer, (), cursor(s, s), ClientContract(
            close(OUT_INV), close(REMAINING), s))

    for run in (queue_run, fold_run):
        (outcome, kind, step, _), _ = assert_same_both_ways(lambda: ending(run))
        assert (outcome, kind.value, step) == ("violation", "InvariantViolated", at + 1)

    # (c) a producer yielding element ``at`` twice
    produced = s[:at + 1] + (s[at],) + s[at + 1:]
    end, _ = assert_same_both_ways(lambda: ending(lambda: checked_fold(
        lambda a, x: a + x, 0, cursor(produced, s), sum_contract)))
    assert end[1].value == "PermittedViolated"
    assert_same_both_ways(lambda: ending(lambda: checked_fold(
        lambda a, x: a, 0, cursor(produced, s, permissive=True),
        ClientContract(close(TRUE2), close(LEFT_OVER), s))))


def test_only_the_library_path_resumes(monkeypatch):
    # the permitted and the sum evaluate their body, which reads one element
    # of the visited view, at the new binding only; the straight path
    # evaluates every binding at every check
    reads = []
    getitem = SeqView.__getitem__

    def counting(view, i):
        if type(i) is int:
            reads.append(i)
        return getitem(view, i)

    monkeypatch.setattr(SeqView, "__getitem__", counting)
    s = tuple(range(10))
    n = len(s)
    run = lambda: ending(lambda: checked_fold(
        lambda a, x: a + x, 0, cursor(s, s),
        ClientContract(close(SUM_INV), close(REMAINING), s)))
    assert _straight(run)[0] == ("done", 45)
    assert len(reads) == 2 * sum(range(n + 1))
    reads.clear()
    assert run()[0] == ("done", 45)
    assert len(reads) == 2 * n
