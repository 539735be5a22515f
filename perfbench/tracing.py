"""Traced mode: spans around the entry points of every layer.

The entry points are wrapped at run time, from the benchmark's side, and
only for the traced run; :meth:`Tracer.uninstall` puts the originals back.
A name bound with ``from ... import`` is patched in every ``unfold`` module
that holds it, so calls through any of those modules are seen.

Each span is recorded as (name, start, end, parent, op id). Self time is a
span's duration minus the time covered by its child spans. Spans stay in
memory (the first ``SPAN_CAP`` of them) and are written out at the end;
the per-layer totals are accumulated over all spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAN_CAP = 100_000  # spans kept for the span log; totals cover all spans
ENGINES = ("checked_fold", "checked_iter", "checked_map", "checked_filter")
CURSOR_BUILDERS = ("seq_cursor", "set_cursor", "tree_cursor", "level_cursor")
GRAPH_OPS = ("union", "intersect", "complement", "mirror", "copy_vertices",
             "check_path", "fold_vertex", "fold_succ")


def unfold_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "unfold" or name.startswith("unfold."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # [name, layer, group, start, child_ns, slot]
        self._active: dict = {}  # group -> open spans of that group
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.incl_ns: dict = {}
        self.counts: dict = {}
        self.engine_depth = 0
        self.max_engine_depth = 0
        self.op_id = 0
        self._patches: list = []

    # -- spans ---------------------------------------------------------------------

    def enter(self, name: str, layer: str, group: str) -> None:
        self._active[group] = self._active.get(group, 0) + 1
        index = -1
        if len(self.spans) < SPAN_CAP:  # keep a slot, filled at exit
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, layer, group, time.perf_counter_ns(), 0, index])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, layer, group, start, child_ns, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child_ns
        self._active[group] -= 1
        if not self._active[group]:
            self.incl_ns[group] = self.incl_ns.get(group, 0) + duration
        if index >= 0:
            parent = self._stack[-1][5] if self._stack else -1
            self.spans[index] = (name, start, end, parent, self.op_id)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.enter("bench.op", "client", "bench.op")

    def end_op(self) -> None:
        self.exit()

    # -- wrapping ------------------------------------------------------------------

    def span(self, fn, name, layer: str, group: str = None, on_call=None,
             on_result=None):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call's
        arguments returning (name, group); ``on_call`` sees the arguments
        and ``on_result`` the result, for the counts kept beside the spans."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callable(name):
                span_name, span_group = name(args)
            else:
                span_name, span_group = name, group or name
            if on_call is not None:
                on_call(args)
            self.enter(span_name, layer, span_group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, make, include_home=True) -> None:
        """Replace function ``module.attr`` by ``make(original)`` in every
        ``unfold`` module that binds it (optionally not in ``module``)."""
        original = getattr(module, attr)
        wrapped = make(original)
        for m in unfold_modules():
            if m is module and not include_home:
                continue
            for name, value in list(vars(m).items()):
                if value is original:
                    self._set(m, name, wrapped)

    def patch_method(self, cls, attr: str, make) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layers ------------------------------------------------------------------

    def install(self) -> None:
        mod = lambda name: importlib.import_module("unfold." + name)
        cli, containers, cursor = mod("cli"), mod("containers"), mod("cursor")
        desugar, lexer, parser = mod("dsl.desugar"), mod("dsl.lexer"), mod("dsl.parser")
        render, scenario, engine = mod("dsl.render"), mod("dsl.scenario"), mod("engine")
        graphs, terms, values = mod("graphs"), mod("terms"), mod("values")

        def snapshot(visited) -> None:
            self.count("snapshots")
            self.count("snapshot_elems", len(visited))

        # cursor: stepping, snapshots of visited, permitted/complete checks
        self.patch_method(cursor.Cursor, "next", lambda fn: self.span(
            fn, "cursor.next", "cursor", on_call=lambda args: self.count("steps")))
        self.patch_method(cursor.Cursor, "has_next",
                          lambda fn: self.span(fn, "cursor.has_next", "cursor"))
        self.patch_method(cursor.Cursor, "visited", lambda prop: property(self.span(
            prop.fget, "cursor.visited", "cursor", on_result=snapshot)))
        self.patch_function(cursor, "_eval_predicate", lambda fn: self.span(
            fn, lambda args: ("cursor." + args[2],) * 2, "cursor",
            on_call=lambda args: snapshot(args[1])))
        self.patch_function(cursor, "create_cursor",
                            lambda fn: self.span(fn, "cursor.create", "cursor"))

        # engine: the four loops (with their consumers), contract applications
        def traced_engine(fn):
            loop = self.span(fn, "engine.loop", "engine")

            def engine_entry(consumer, *args, **kwargs):
                self.engine_depth += 1
                self.max_engine_depth = max(self.max_engine_depth,
                                            self.engine_depth)
                try:
                    return loop(self.span(consumer, "consumer", "dsl.builtins"),
                                *args, **kwargs)
                finally:
                    self.engine_depth -= 1
            return functools.wraps(fn)(engine_entry)

        for name in ENGINES:
            self.patch_function(engine, name, traced_engine)
        self.patch_function(engine, "_apply_spec", lambda fn: self.span(
            fn, lambda args: (("engine.inv",) if args[2] == "invariant"
                              else ("engine.variant",)) * 2, "engine"))
        self.patch_function(engine, "push_frame", lambda fn: self.span(
            fn, "engine.push_frame", "engine", on_call=lambda args: snapshot(args[2])))

        # terms: lambda application everywhere, whole-term evaluation at the
        # boundary (not node by node inside the evaluator)
        self.patch_function(terms, "apply_lambda",
                            lambda fn: self.span(fn, "terms.apply", "terms"))
        self.patch_function(terms, "eval_term",
                            lambda fn: self.span(fn, "terms.eval", "terms"),
                            include_home=False)

        # values: finite-set construction
        self.patch_method(values.FiniteSet, "__init__",
                          lambda fn: self.span(fn, "values.set", "values"))

        # containers: cursor constructors and the stack/queue builders
        for name in CURSOR_BUILDERS:
            self.patch_function(containers, name, lambda fn: self.span(
                fn, "containers." + fn.__name__, "containers", "containers.build"))
        for name in ("stack_of_seq", "queue_of_seq"):
            self.patch_function(containers, name, lambda fn: self.span(
                fn, "containers." + fn.__name__, "containers"))

        # graphs: model construction and the derived operations
        self.patch_method(graphs.GraphModel, "__init__", lambda fn: self.span(
            fn, "graphs.GraphModel", "graphs", "graphs.model"))
        for name in ("add_vertex", "add_edge"):
            self.patch_function(graphs, name, lambda fn: self.span(
                fn, "graphs." + fn.__name__, "graphs", "graphs.model"))
        for name in GRAPH_OPS:
            self.patch_function(graphs, name, lambda fn: self.span(
                fn, "graphs." + fn.__name__, "graphs"))

        # dsl: lexer+parser, desugarer+renderer, scenario runner; the CLI
        self.patch_function(lexer, "tokenize", lambda fn: self.span(
            fn, "dsl.tokenize", "dsl.parser", "dsl.parser",
            on_result=lambda tokens: self.count("tokens", len(tokens))))
        for name in ("parse_scenario", "parse_spec_file"):
            self.patch_function(parser, name, lambda fn: self.span(
                fn, "dsl." + fn.__name__, "dsl.parser", "dsl.parser"))
        self.patch_function(desugar, "desugar_text", lambda fn: self.span(
            fn, "dsl.desugar_text", "dsl.desugar", "dsl.desugar",
            on_result=lambda out: self.count("desugar_bytes", len(out[0].encode()))))
        self.patch_function(render, "render_term", lambda fn: self.span(
            fn, "dsl.render_term", "dsl.desugar", "dsl.desugar"), include_home=False)
        for name in ("run_scenario", "run_invocation"):
            self.patch_function(scenario, name, lambda fn: self.span(
                fn, "dsl." + fn.__name__, "dsl.scenario"))
        self.patch_function(cli, "main", lambda fn: self.span(fn, "cli.main", "cli"))

    # -- output --------------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")

    def layer_metrics(self, cycles: int, op_ns: int, inv_checks: int,
                      variant_checks: int, overhead_x: float) -> dict:
        """Per-layer metrics, per pass over the workload's inputs."""
        ms = lambda ns: ns / cycles / 1e6
        calls = lambda *names: sum(self.calls.get(n, 0) for n in names) // cycles
        steps = self.counts.get("steps", 0)
        parser_s = self.incl_ns.get("dsl.parser", 0) / 1e9
        return {
            "engine.self_ms": (ms(self.self_ns.get("engine", 0)), "ms"),
            "cursor.self_ms": (ms(self.self_ns.get("cursor", 0)), "ms"),
            "cursor.snapshots_per_step": (
                self.counts.get("snapshots", 0) / steps if steps else 0.0, "ratio"),
            "cursor.snapshot_elems_per_step": (
                self.counts.get("snapshot_elems", 0) / steps if steps else 0.0, "ratio"),
            "cursor.permitted_calls": (calls("cursor.permitted"), "count"),
            "cursor.permitted_ms": (ms(self.incl_ns.get("cursor.permitted", 0)), "ms"),
            "cursor.complete_calls": (calls("cursor.complete"), "count"),
            "cursor.complete_ms": (ms(self.incl_ns.get("cursor.complete", 0)), "ms"),
            "terms.apply_calls": (calls("terms.apply"), "count"),
            "terms.self_ms": (ms(self.self_ns.get("terms", 0)), "ms"),
            "terms.share": (self.self_ns.get("terms", 0) / op_ns if op_ns else 0.0,
                            "fraction"),
            "values.set_builds": (calls("values.set"), "count"),
            "values.set_ms": (ms(self.incl_ns.get("values.set", 0)), "ms"),
            "graphs.model_builds": (calls("graphs.GraphModel"), "count"),
            "graphs.model_ms": (ms(self.incl_ns.get("graphs.model", 0)), "ms"),
            "containers.cursor_builds": (
                calls(*("containers." + n for n in CURSOR_BUILDERS)), "count"),
            "containers.build_ms": (ms(self.incl_ns.get("containers.build", 0)), "ms"),
            "engine.inv_ms": (ms(self.incl_ns.get("engine.inv", 0)), "ms"),
            "engine.variant_ms": (ms(self.incl_ns.get("engine.variant", 0)), "ms"),
            "engine.calls": (calls("engine.loop"), "count"),
            "engine.steps": (steps // cycles, "count"),
            "engine.max_depth": (self.max_engine_depth, "count"),
            "dsl.parser.calls": (calls("dsl.parse_scenario", "dsl.parse_spec_file"),
                                 "count"),
            "dsl.parser.ms": (ms(self.incl_ns.get("dsl.parser", 0)), "ms"),
            "dsl.parser.tokens_per_s": (
                self.counts.get("tokens", 0) / parser_s if parser_s else 0.0, "1/s"),
            "dsl.desugar.ms": (ms(self.incl_ns.get("dsl.desugar", 0)), "ms"),
            "dsl.desugar.bytes_out": (self.counts.get("desugar_bytes", 0) // cycles,
                                      "bytes"),
            "dsl.scenario.invocations": (calls("dsl.run_invocation"), "count"),
            "dsl.scenario.self_ms": (ms(self.self_ns.get("dsl.scenario", 0)), "ms"),
            "cli.self_ms": (ms(self.self_ns.get("cli", 0)), "ms"),
            "consumer.calls": (calls("consumer"), "count"),
            "consumer.ms": (ms(self.self_ns.get("dsl.builtins", 0)), "ms"),
            "engine.inv_checks": (inv_checks, "count"),
            "engine.variant_checks": (variant_checks, "count"),
            "trace_overhead_x": (overhead_x, "ratio"),
        }
