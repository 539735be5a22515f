"""Built-in consumer library for scenario files.

A builtin binds any mutable sinks it needs (stack, queue, counter, flag)
into the invocation environment before the invariant terms are closed, so
step invariants can observe the effects by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import EvaluationError, SemanticError
from ..graphs import (
    add_vertex,
    complement_step,
    intersect_step,
    mirror_step,
    path_step,
    union_step,
)
from ..terms import Closure, apply_lambda
from ..values import CellRef, QueueRef, StackRef, Value


@dataclass
class BoundConsumer:
    fn: Callable
    result: Optional[Callable[[], Value]] = None  # observable result override


def _expect_args(name, args, count):
    if len(args) != count:
        raise SemanticError(
            f"builtin {name!r} takes {count} argument(s), got {len(args)}")
    return args


def _add(env, args):
    _expect_args("add", args, 0)
    return BoundConsumer(fn=lambda a, x: a + x)


def _count(env, args):
    _expect_args("count", args, 0)
    return BoundConsumer(fn=lambda a, _x: a + 1)


def _push_stack(env, args):
    _expect_args("push-stack", args, 0)
    stack = StackRef()
    env["stack"] = stack
    return BoundConsumer(fn=stack.push, result=stack.contents)


def _push_queue(env, args):
    _expect_args("push-queue", args, 0)
    queue = QueueRef()
    env["queue"] = queue
    return BoundConsumer(fn=queue.push, result=queue.contents)


def _map_incr_count(env, args):
    _expect_args("map-incr-count", args, 0)
    counter = CellRef(0)
    env["counter"] = counter

    def fn(x):
        counter.value += 1
        return x + 1

    return BoundConsumer(fn=fn)


def _filter_pos_count(env, args):
    _expect_args("filter-pos-count", args, 0)
    counter = CellRef(0)
    env["counter"] = counter

    def fn(x):
        counter.value += 1
        return x > 0

    return BoundConsumer(fn=fn)


def _count_gt(env, args):
    (threshold,) = _expect_args("count-gt", args, 1)
    counter = CellRef(0)
    env["counter"] = counter

    def fn(x):
        if x > threshold:
            counter.value += 1

    return BoundConsumer(fn=fn, result=lambda: counter.value)


def _path_step(env, args):
    (g,) = _expect_args("path-step", args, 1)
    flag = env["flag"] = CellRef(True)
    return BoundConsumer(fn=path_step(g, flag), result=lambda: flag.value)


def _add_vertex(env, args):
    _expect_args("add-vertex", args, 0)
    return BoundConsumer(fn=add_vertex)


def _restrict_vertex(env, args):
    (keep,) = _expect_args("restrict-vertex", args, 1)
    return BoundConsumer(
        fn=lambda a, v: add_vertex(a, v) if v in keep.dom else a)


def _graph_step(name, make, arity):
    """Builtin ``name``: the graphs-module step ``make`` over its arguments."""
    return lambda env, args: BoundConsumer(fn=make(*_expect_args(name, args, arity)))


BUILTINS = {
    "add": _add,
    "count": _count,
    "push-stack": _push_stack,
    "push-queue": _push_queue,
    "map-incr-count": _map_incr_count,
    "filter-pos-count": _filter_pos_count,
    "count-gt": _count_gt,
    "path-step": _path_step,
    "add-vertex": _add_vertex,
    "restrict-vertex": _restrict_vertex,
    "union-step": _graph_step("union-step", union_step, 2),
    "intersect-step": _graph_step("intersect-step", intersect_step, 2),
    "complement-step": _graph_step("complement-step", complement_step, 1),
    "mirror-step": _graph_step("mirror-step", mirror_step, 1),
}


def bind_lambda_consumer(closure: Closure, pattern: str) -> BoundConsumer:
    """Adapt a pure specification lambda to the engine's consumer shape."""
    if pattern == "folds":
        return BoundConsumer(fn=lambda a, x: apply_lambda(closure, [a, x]))
    if pattern == "filters":
        def predicate(x):
            keep = apply_lambda(closure, [x])
            if not isinstance(keep, bool):
                raise EvaluationError(
                    f"filter predicate returned non-boolean {keep!r}")
            return keep

        return BoundConsumer(fn=predicate)
    return BoundConsumer(fn=lambda x: apply_lambda(closure, [x]))
