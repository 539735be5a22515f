"""Scenario execution: drive parsed invocations through the checked engines
and report per-invocation outcomes and check counts."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..containers import BinaryTree
from ..cursor import create_cursor
from ..engine import (
    ClientContract,
    checked_filter,
    checked_fold,
    checked_iter,
    checked_map,
    collect_stats,
)
from ..errors import (
    ContractViolation,
    EvaluationError,
    PreconditionError,
    SemanticError,
)
from ..graphs import GRAPH_PREDICATES, GraphModel
from ..terms import Closure, eval_term
from ..values import FiniteSet, Value, is_seq, value_eq
from .builtins import BUILTINS, BoundConsumer, bind_lambda_consumer
from .parser import DeclSpec, Invocation, Scenario, TApp, TName, TTuple
from .render import render_term, render_value


@dataclass
class ReportRow:
    name: str
    status: str  # pass | violation | failed | error
    result: Optional[Value] = None
    violation: Optional[ContractViolation] = None
    detail: str = ""
    inv_checks: int = 0
    variant_checks: int = 0
    permitted_checks: int = 0
    complete_checks: int = 0
    millis: float = 0.0
    trace: Optional[list] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json_obj(self) -> list:
        out = []
        for row in self.rows:
            entry = {
                "name": row.name,
                "status": row.status,
                "result": value_to_json(row.result),
                "checks": {"inv": row.inv_checks,
                           "variant": row.variant_checks},
                "cursor_checks": {"permitted": row.permitted_checks,
                                  "complete": row.complete_checks},
                "millis": round(row.millis, 3),
            }
            if row.violation is not None:
                entry["violation"] = {
                    "kind": row.violation.kind.value,
                    "step": row.violation.step,
                    "detail": row.violation.detail,
                }
            elif row.detail:
                entry["detail"] = row.detail
            out.append(entry)
        return out

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            head = f"{row.name:<24} {row.status:<9}"
            checks = f"checks inv={row.inv_checks} variant={row.variant_checks}"
            timing = f"{row.millis:8.2f} ms"
            if row.status == "pass":
                body = f"result {render_value(row.result)}"
            elif row.violation is not None:
                body = (f"{row.violation.kind.value} at step "
                        f"{row.violation.step}")
            else:
                body = row.detail
            lines.append(f"{head} {checks:<32} {timing}  {body}")
        return "\n".join(lines)


def value_to_json(v):
    if isinstance(v, bool) or isinstance(v, int) or v is None:
        return v
    if is_seq(v):
        return [value_to_json(x) for x in v]
    if isinstance(v, FiniteSet):
        return {"set": [value_to_json(x) for x in v]}
    if isinstance(v, GraphModel):
        return {"vertices": [value_to_json(x) for x in v.dom],
                "edges": [[value_to_json(a), value_to_json(b)]
                          for a, b in v.edges()]}
    if isinstance(v, BinaryTree):
        return {"tree": render_value_tree(v)}
    return repr(v)


def render_value_tree(t):
    from ..containers import Leaf

    if isinstance(t, Leaf):
        return None
    return [render_value_tree(t.left), value_to_json(t.value),
            render_value_tree(t.right)]


def _producer_elements(decl: DeclSpec, collval: Value,
                       rng: Optional[random.Random]) -> tuple:
    """Enumeration strategy, chosen by the declared structure type."""
    structure, elt = decl.structure, decl.elt

    def maybe_shuffled(elems):
        elems = list(elems)
        if rng is not None:
            rng.shuffle(elems)
        return tuple(elems)

    if isinstance(structure, TApp) and structure.base == "seq":
        if not is_seq(collval):
            raise SemanticError(
                f"declaration {decl.name!r} iterates a sequence but the "
                f"collection is {collval!r}")
        return collval
    if isinstance(structure, TName) and structure.name == "gt":
        if not isinstance(collval, GraphModel):
            raise SemanticError(
                f"declaration {decl.name!r} iterates a graph but the "
                f"collection is {collval!r}")
        return maybe_shuffled(collval.dom.elems)
    if isinstance(structure, TTuple):
        if not (is_seq(collval) and len(collval) == 2
                and isinstance(collval[0], GraphModel)):
            raise SemanticError(
                f"declaration {decl.name!r} iterates successors but the "
                f"collection is {collval!r}")
        g, s = collval
        return maybe_shuffled(g.suc(s).elems)
    if isinstance(structure, TApp) and structure.base == "tree":
        if not isinstance(collval, BinaryTree):
            raise SemanticError(
                f"declaration {decl.name!r} iterates a tree but the "
                f"collection is {collval!r}")
        if isinstance(elt, TApp) and elt.base == "seq":
            return collval.levels()
        return collval.flatten()
    raise SemanticError(
        f"no enumeration strategy for structure {structure!r}")


def _bind_consumer(invocation: Invocation, env: dict) -> BoundConsumer:
    spec = invocation.consumer
    if spec is None:
        raise SemanticError(f"call {invocation.name!r} has no consumer")
    if spec.kind == "lambda":
        closure = eval_term(spec.term, env)
        return bind_lambda_consumer(closure, invocation.call.pattern)
    if spec.name not in BUILTINS:
        raise SemanticError(
            f"unknown builtin consumer {spec.name!r}; available: "
            f"{', '.join(sorted(BUILTINS))}")
    args = [eval_term(a, env) for a in spec.args]
    return BUILTINS[spec.name](env, args)


def run_invocation(invocation: Invocation, decl: DeclSpec, env: dict,
                   rng: Optional[random.Random] = None,
                   trace: bool = False) -> ReportRow:
    row = ReportRow(name=invocation.name, status="pass")
    call = invocation.call
    start = time.perf_counter()
    try:
        consumer = _bind_consumer(invocation, env)
        collval = eval_term(call.collection, env)
        pred_env = dict(env)
        pred_env["collection"] = collval
        permitted = eval_term(decl.permitted, pred_env)
        complete = eval_term(decl.complete, pred_env)
        inv = eval_term(call.inv, env)
        convergence = eval_term(call.convergence, env)
        if not isinstance(inv, Closure):
            raise SemanticError(
                f"~inv of call {invocation.name!r} is not a lambda")
        if not isinstance(convergence, Closure):
            raise SemanticError(
                f"~convergence of call {invocation.name!r} is not a lambda")
        contract = ClientContract(
            inv=inv, convergence=convergence, collection=collval,
            inv_label=render_term(call.inv, 8),
            convergence_label=render_term(call.convergence, 8))
        with collect_stats(trace=trace) as stats:
            try:
                cursor = create_cursor(
                    iter(_producer_elements(decl, collval, rng)),
                    permitted, complete)
                if call.pattern == "folds":
                    init = eval_term(invocation.init, env)
                    result = checked_fold(consumer.fn, init, cursor, contract)
                elif call.pattern == "iters":
                    checked_iter(consumer.fn, cursor, contract)
                    result = None
                elif call.pattern == "maps":
                    result = checked_map(consumer.fn, cursor, contract)
                else:
                    result = checked_filter(consumer.fn, cursor, contract)
            finally:
                row.inv_checks = stats.inv_checks
                row.variant_checks = stats.variant_checks
                row.permitted_checks = stats.permitted_checks
                row.complete_checks = stats.complete_checks
                row.trace = stats.trace
        if consumer.result is not None:
            result = consumer.result()
        row.result = result
        if invocation.expect is not None:
            expected = eval_term(invocation.expect, env)
            if not value_eq(result, expected):
                row.status = "failed"
                row.detail = (f"expected {render_value(expected)}, "
                              f"got {render_value(result)}")
    except ContractViolation as violation:
        row.status = "violation"
        row.violation = violation
    except (EvaluationError, PreconditionError, SemanticError) as exc:
        row.status = "error"
        row.detail = f"{type(exc).__name__}: {exc}"
    row.millis = (time.perf_counter() - start) * 1000.0
    return row


def base_environment(scenario: Scenario) -> dict:
    env: dict = {}
    env.update(GRAPH_PREDICATES)
    env.update(scenario.collections)
    return env


def run_scenario(scenario: Scenario, seed: Optional[int] = None,
                 trace: bool = False) -> Report:
    """Execute every invocation; results are bound into the environment
    under the invocation's name for later invocations to use."""
    rng = random.Random(seed) if seed is not None else None
    env = base_environment(scenario)
    report = Report()
    for invocation in scenario.invocations:
        decl = scenario.decls[invocation.decl_name]
        row = run_invocation(invocation, decl, dict(env), rng=rng, trace=trace)
        report.rows.append(row)
        if row.passed:
            env[invocation.name] = row.result
    return report
