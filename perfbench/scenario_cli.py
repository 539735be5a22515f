"""Workload ``scenario_cli``: in-process ``unfold`` CLI commands.

``check --format json`` runs generated scenario files whose invariants are
term-language index quantifiers and ``sum`` over sequences and trees, and
the named set-quantifier step predicates over graphs driven by the builtin
steps. ``desugar`` runs on the four golden specs and ``demo --format json``
on the built-in corpus. About a quarter of the commands carry a fault whose
status, kind and step are known from how it was built. This is the only
workload that goes through the parser, the desugarer, the scenario runner,
the builtin consumers and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json

import graph_ops
import oracles as O
import seq_engine
from harness import ROOT, MissingProgram, Op

SEQ_SIZES = (20, 50, 100, 200)
TREE_SIZES = (20, 50, 100)
GRAPH_SIZES = (4, 6, 8)
FAULT_SIZES = (20, 50, 80, 100)
GRAPH_DENSITY = 0.3
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_SPECS = ("seq_fold_sum", "seq_iter_stack", "graph_union", "nest3")

_PREFIX_PERMITTED = """(fun v -> len v <= len {ref} /\\
                    forall i. 0 <= i < len v -> v[i] = {ref}[i])"""

DECLS = {
    "fold_seq": """
decl fold_seq {{
  r = fold func acc col
  folds ~permitted:{permitted}
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}}
""",
    "iter_seq": """
decl iter_seq {{
  r = iter func col
  iters ~permitted:{permitted}
        ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}}
""",
    "map_seq": """
decl map_seq {{
  r = map func col
  maps ~permitted:{permitted}
       ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}}
""",
    "filter_seq": """
decl filter_seq {{
  r = filter func col
  filters ~permitted:{permitted}
          ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}}
""",
}

TREE_DECLS = """
decl fold_tree {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len (flatten collection) /\\
                    forall i. 0 <= i < len v -> v[i] = (flatten collection)[i])
        ~complete:(fun v -> len v = len (flatten collection))
  with structure = ('a tree), elt = 'a, accumulator = acc
}

decl fold_level {
  r = fold_level func acc col
  folds ~permitted:(fun v -> len v <= len (levels collection) /\\
                    forall i. 0 <= i < len v -> v[i] = (levels collection)[i])
        ~complete:(fun v -> len v = len (levels collection))
  with structure = ('a tree), elt = ('a seq), accumulator = acc
}
"""

VERTEX_DECL = """
decl fold_vertex {
  r = fold_vertex func g acc
  folds ~permitted:(fun v -> subset v collection.dom /\\ distinct v)
        ~complete:(fun v -> setof v = collection.dom)
  with structure = gt, elt = vt, accumulator = acc
}
"""

SUM_INV = "(fun v a -> a = sum (fun i -> {model}[i]) 0 (len v))"
REMAINING = "(fun c v -> len c - len v)"
PATH_INV = ("(fun v -> flag = ((forall i. 0 <= i < len v -> mem v[i] g1.dom) /\\\n"
            "              (forall i. 1 <= i < len v -> mem v[i] (g1.suc v[i - 1]))))")


def decl(name: str, ref: str = "collection") -> str:
    return DECLS[name].format(permitted=_PREFIX_PERMITTED.format(ref=ref))


def call(name, decl_name, pattern, inv, collection, convergence, body) -> str:
    lines = [f"call {name} uses {decl_name} {{",
             f"  {pattern} ~inv:{inv}",
             f"        ~collection:{collection}",
             f"        ~convergence:{convergence}"]
    lines += [f"  {clause};" for clause in body]
    return "\n".join(lines) + "\n}\n"


def seq_literal(xs) -> str:
    return "[" + ", ".join(str(x) for x in xs) + "]"


def tree_literal(t) -> str:
    if t is None:
        return "leaf"
    return f"(node {tree_literal(t[0])} {t[1]} {tree_literal(t[2])})"


def graph_literal(g: dict) -> str:
    parts = ["vertices: " + " ".join(str(v) for v in sorted(g))]
    parts += [f"edge: {v} {w}" for v, w in sorted(O.edges_of(g))]
    return "graph { " + "  ".join(parts) + " }"


# -- outcomes ------------------------------------------------------------------------


def normalise(value):
    """JSON value from a report, in a comparable form."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, list):
        return tuple(normalise(x) for x in value)
    if isinstance(value, dict) and "vertices" in value:
        return ("graph", frozenset(value["vertices"]),
                frozenset(tuple(e) for e in value["edges"]))
    if isinstance(value, dict) and "set" in value:
        return ("set", frozenset(value["set"]))
    return value


def expected_value(value):
    """Oracle value in the form ``normalise`` gives the report's."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, tuple):
        return tuple(expected_value(x) for x in value)
    if isinstance(value, dict):
        return ("graph",) + O.graph_outcome(value)
    return value


def pass_row(name, value) -> tuple:
    return (name, "pass", expected_value(value), None)


def violation_row(name, expectation) -> tuple:
    _, kind, step = expectation
    return (name, "violation", None, (kind, step))


def observe_check(raw) -> tuple:
    rc, out = raw
    rows = tuple(
        (r["name"], r["status"], normalise(r["result"]),
         (r["violation"]["kind"], r["violation"]["step"]) if "violation" in r else None)
        for r in json.loads(out))
    return ("ok", rc, rows)


def check_counts(raw) -> tuple:
    rows = json.loads(raw[1])
    return (sum(r["checks"]["inv"] for r in rows),
            sum(r["checks"]["variant"] for r in rows))


def observe_demo(raw) -> tuple:
    rc, out = raw
    rows = tuple((r["row"], r["status"],
                  tuple(normalise(i["result"]) for i in r["invocations"]))
                 for r in json.loads(out))
    return ("ok", rc, rows)


def observe_text(raw) -> tuple:
    return ("ok",) + tuple(raw)


def cli(api, argv: list) -> tuple:
    """Run ``unfold.cli.main`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = api.cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            rc = exc.code
    return rc, buf.getvalue()


def _g(vertices, edges) -> dict:
    return {v: frozenset(w for u, w in edges if u == v) for v in vertices}


#: ``demo --format json``: per case study, the result of each invocation
DEMO_EXPECTED = (
    ("sum_seq", (210,)),
    ("stack_of_seq", ((3, 2, 1),)),
    ("queue_of_seq", ((1, 2, 3),)),
    ("gt_seq", ((14, 15, 26),)),
    ("counter_filter_seq", ((4, 7, 9),)),
    ("counter_map_seq", ((11, 21, 31),)),
    ("intersect", (_g((2, 3), ()), _g((2, 3), ((2, 3),)))),
    ("union", (_g((1, 2, 3, 4), ((2, 3), (3, 4), (4, 2))),
               _g((1, 2, 3, 4), ((1, 2), (1, 3), (2, 3), (3, 4), (4, 2))))),
    ("complement", (_g((1, 2, 3), ()),
                    _g((1, 2, 3), ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))))),
    ("mirror", (_g((2, 3, 4), ()), _g((2, 3, 4), ((2, 4), (3, 2), (4, 3))))),
    ("copy_vertices", (_g((1, 2, 3), ()),)),
    ("check_path", (True, False, False)),
    ("sum_tree", (14,)),
    ("height_tree", (3,)),
    ("gt_tree", (3,)),
)


# -- scenario files ----------------------------------------------------------------


class Files:
    """Writes scenario files into the run's working directory."""

    def __init__(self, workdir, digest):
        self.workdir = workdir
        self.digest = digest
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = self.workdir / f"s{self.count:03d}.scn"
        path.write_text(text, encoding="utf-8")
        self.digest(text)
        return str(path)


def _check_op(api, kind, size, path, rows, reference, rc=None, seed=None,
              ladder=False) -> Op:
    """``ladder`` marks the files whose size is the length of the iterated
    collection (sequences, tree sums); graph files span only 4-8 vertices,
    and the level fold iterates the tree's height, so they stay off the
    ``scaling_exp`` ladder."""
    argv = ["check", path, "--format", "json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if rc is None:
        rc = 0 if all(r[1] == "pass" for r in rows) else 1
    return Op(kind, size, lambda: cli(api, argv), ("ok", rc, tuple(rows)),
              observe=observe_check, reference=reference, ladder=ladder,
              checks=check_counts)


def _seq_ops(api, files, s: tuple) -> list:
    n, coll = len(s), f"collection s = {seq_literal(s)}\n"
    sum_inv = SUM_INV.format(model="v")
    return [
        _check_op(api, "sum_fold", n, files.write(
            coll + decl("fold_seq") + call(
                "sum_fold", "fold_seq", "folds", sum_inv, "s", REMAINING,
                ["consumer = (fun a x -> a + x)", "init = 0"])),
            [pass_row("sum_fold", O.fold_sum(s))], lambda: O.fold_sum(s), ladder=True),
        _check_op(api, "filter_pos", n, files.write(
            coll + decl("filter_seq") + call(
                "filter_pos", "filter_seq", "filters",
                "(fun v out -> len out = sum (fun i -> 0 < v[i]) 0 (len v) /\\\n"
                "                forall i. 0 <= i < len out -> 0 < out[i])",
                "s", REMAINING, ["consumer = (fun x -> 0 < x)"])),
            [pass_row("filter_pos", O.filter_pos(s))], lambda: O.filter_pos(s),
            ladder=True),
        _check_op(api, "map_incr", n, files.write(
            coll + decl("map_seq") + call(
                "map_incr", "map_seq", "maps",
                "(fun v out -> counter = len v /\\\n"
                "             forall i. 0 <= i < len out -> out[i] = v[i] + 1)",
                "s", REMAINING, ["consumer = map-incr-count"])),
            [pass_row("map_incr", O.map_incr(s))], lambda: O.map_incr(s), ladder=True),
        _check_op(api, "stack_push", n, files.write(
            coll + decl("iter_seq") + call(
                "stack_push", "iter_seq", "iters",
                "(fun v -> reverse stack = prefix s (len v))",
                "s", REMAINING, ["consumer = push-stack"])),
            [pass_row("stack_push", O.stack_contents(s))],
            lambda: O.stack_contents(s), ladder=True),
    ]


def _tree_ops(api, files, t, n: int) -> list:
    coll = f"collection t = tree {tree_literal(t)}\n" + TREE_DECLS
    widths = lambda: sum(len(level) for level in O.levels(t))
    return [
        _check_op(api, "tree_sum", n, files.write(coll + call(
            "tree_sum", "fold_tree", "folds", SUM_INV.format(model="v"), "t",
            "(fun c v -> len (flatten c) - len v)",
            ["consumer = (fun a x -> a + x)", "init = 0"])),
            [pass_row("tree_sum", O.fold_sum(O.flatten(t)))],
            lambda: O.fold_sum(O.flatten(t)), ladder=True),
        _check_op(api, "tree_widths", n, files.write(coll + call(
            "tree_widths", "fold_level", "folds",
            "(fun v a -> a = sum (fun i -> len v[i]) 0 (len v))", "t",
            "(fun c v -> len (levels c) - len v)",
            ["consumer = (fun a x -> a + len x)", "init = 0"])),
            [pass_row("tree_widths", widths())], widths),
    ]


def _graph_ops(api, files, n, g1, g2, good, bad, seed) -> list:
    head = (f"collection g1 = {graph_literal(g1)}\n"
            f"collection g2 = {graph_literal(g2)}\n" + VERTEX_DECL)
    measure = "(fun c v -> len c.dom - len v)"
    empty = "init = graph { vertices: }"

    def two_pass(kind, vertex_inv, vertex_step, vertex_init, outer_inv, step,
                 vertex_result, result, oracle):
        text = head + call("vertex_pass", "fold_vertex", "folds", vertex_inv,
                           "g1", measure, [f"consumer = {vertex_step}", vertex_init])
        text += call("edge_pass", "fold_vertex", "folds", outer_inv, "g1",
                     measure, [f"consumer = {step}", "init = vertex_pass"])
        return _check_op(api, kind, n, files.write(text),
                         [pass_row("vertex_pass", vertex_result),
                          pass_row("edge_pass", result)], oracle, seed=seed)

    copy_vertices = head + call("copy_vertices", "fold_vertex", "folds",
                                "vertex_copy", "g1", measure,
                                ["consumer = add-vertex", empty])
    paths = (f"collection good = {seq_literal(good)}\n"
             f"collection bad = {seq_literal(bad)}\n" + head + decl("iter_seq"))
    for name, coll in (("good_path", "good"), ("bad_path", "bad")):
        paths += call(name, "iter_seq", "iters", PATH_INV, coll, REMAINING,
                      ["consumer = path-step g1"])
    return [
        two_pass("union", "(union_vertices g1 g2)", "add-vertex", "init = copy g2",
                 "(union_outer g1 g2)", "union-step g1 g2",
                 O.g_union_vertex_pass(g1, g2), O.g_union(g1, g2),
                 lambda: O.g_union(g1, g2)),
        two_pass("intersect", "(intersect_vertices g1 g2)", "restrict-vertex g2",
                 empty, "(intersect_outer g1 g2)", "intersect-step g1 g2",
                 O.g_intersect_vertex_pass(g1, g2), O.g_intersect(g1, g2),
                 lambda: O.g_intersect(g1, g2)),
        two_pass("complement", "vertex_copy", "add-vertex", empty,
                 "(complement_outer g1)", "complement-step g1",
                 O.g_copy_vertices(g1), O.g_complement(g1),
                 lambda: O.g_complement(g1)),
        two_pass("mirror", "vertex_copy", "add-vertex", empty,
                 "(mirror_outer g1)", "mirror-step g1",
                 O.g_copy_vertices(g1), O.g_mirror(g1), lambda: O.g_mirror(g1)),
        _check_op(api, "copy_vertices", n, files.write(copy_vertices),
                  [pass_row("copy_vertices", O.g_copy_vertices(g1))],
                  lambda: O.g_copy_vertices(g1), seed=seed),
        _check_op(api, "path", n, files.write(paths),
                  [pass_row("good_path", O.path_ok(g1, good)),
                   pass_row("bad_path", O.path_ok(g1, bad))],
                  lambda: (O.path_ok(g1, good), O.path_ok(g1, bad)), seed=seed),
    ]


def _fault_ops(api, files, s: tuple, at: int) -> list:
    """Five faults on a sum fold over ``s``; ``at`` is the index where the
    model or the reference differs from ``s``."""
    n, coll = len(s), f"collection s = {seq_literal(s)}\n"
    moved = s[:at] + (s[at] + 1,) + s[at + 1:]
    model = f"collection m = {seq_literal(moved)}\n"
    total = O.fold_sum(s)
    sum_inv = SUM_INV.format(model="v")
    plain = lambda: O.fold_sum(s)

    def fault(kind, text, row):
        return _check_op(api, "fault." + kind, n, files.write(text), [row],
                         plain)

    consumer = "consumer = (fun a x -> a + x)"
    body = [consumer, "init = 0"]
    return [
        fault("wrong_init", coll + decl("fold_seq") + call(
            "total", "fold_seq", "folds", sum_inv, "s", REMAINING,
            [consumer, "init = 1"]),
            violation_row("total", O.expect_wrong_init())),
        fault("model_mismatch", coll + model + decl("fold_seq") + call(
            "total", "fold_seq", "folds", SUM_INV.format(model="m"), "s",
            REMAINING, body),
            violation_row("total", O.expect_model_mismatch(at))),
        fault("permitted_mismatch", coll + model + decl("fold_seq", ref="m") + call(
            "total", "fold_seq", "folds", sum_inv, "s", REMAINING, body),
            violation_row("total", O.expect_permitted_mismatch(at))),
        fault("double_step_measure", coll + decl("fold_seq") + call(
            "total", "fold_seq", "folds", sum_inv, "s",
            "(fun c v -> len c - 2 * len v)", body),
            violation_row("total", O.expect_double_step_measure(n))),
        fault("failed_expect", coll + decl("fold_seq") + call(
            "total", "fold_seq", "folds", sum_inv, "s", REMAINING,
            body + [f"expect = {total + 1}"]),
            ("total", "failed", expected_value(total), None)),
    ]


def _fixed_ops(api) -> list:
    ops = []
    for name in GOLDEN_SPECS:
        spec, golden = GOLDEN / f"{name}.spec", GOLDEN / f"{name}.golden"
        if not (spec.is_file() and golden.is_file()):
            raise MissingProgram(f"golden spec {name} is missing under {GOLDEN}")
        argv = ["desugar", str(spec)]
        ops.append(Op("desugar", 1, lambda argv=argv: cli(api, argv),
                      ("ok", 0, golden.read_text(encoding="utf-8")),
                      observe=observe_text, ladder=False))
    demo = ("ok", 0, tuple((row, "pass", expected_value(results))
                           for row, results in DEMO_EXPECTED))
    ops.append(Op("demo", 1, lambda: cli(api, ["demo", "--format", "json"]), demo,
                  observe=observe_demo, ladder=False, checks=check_counts))
    return ops


def build(api, rng, digest, workdir) -> list:
    files = Files(workdir, digest)
    ops = []
    for n in SEQ_SIZES:
        ops += _seq_ops(api, files, tuple(rng.randint(-50, 50) for _ in range(n)))
    for n in TREE_SIZES:
        ops += _tree_ops(api, files, seq_engine.random_tree(rng, n), n)
    # fixed lengths, growing with the graph size: a path file's cost follows
    # its lengths, and these files sit near the top percentiles
    lengths = graph_ops.path_lengths(2 * len(GRAPH_SIZES))
    for i, n in enumerate(GRAPH_SIZES):
        g1 = graph_ops.random_graph(rng, list(range(n)), GRAPH_DENSITY)
        g2 = graph_ops.random_graph(rng, list(range(n // 2, n + n // 2)), GRAPH_DENSITY)
        good = graph_ops.random_walk(rng, g1, lengths[2 * i + 1])
        bad = graph_ops.broken_walk(rng, g1, lengths[2 * i])
        seed = rng.randrange(1000) if i % 2 else None  # some runs permute sets
        digest("seed", seed)
        ops += _graph_ops(api, files, n, g1, g2, good, bad, seed)
    for n in FAULT_SIZES:
        s = tuple(rng.randint(-50, 50) for _ in range(n))
        ops += _fault_ops(api, files, s, seq_engine.fault_position(rng, n))
    return ops + _fixed_ops(api)
