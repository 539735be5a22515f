"""Baseline probe for the north-star rows of ROADMAP.md (informational, not
a gated workload).

    python3 perfbench/baseline.py

Rows:

- a checked fold over 2000 ints with invariant ``True``, against plain ``sum``;
- ``mirror`` and ``complement`` on a seeded graph with 16 vertices and 80
  edges.

The inputs come from seed 0. Each row prints the median, minimum and maximum
wall time over 3 repeats; results are checked against the oracles.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import graph_ops
import oracles as O
from harness import MissingProgram, import_program, reference_ns

SEED = 0
REPEATS = 3


def timed(fn) -> tuple:
    times, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, times


def row(name: str, times: list, unit: float = 1e3, label: str = "ms") -> None:
    print(f"{name:<44} median {statistics.median(times) * unit:10.3f} {label}"
          f"  (min {min(times) * unit:.3f}, max {max(times) * unit:.3f}, "
          f"n={len(times)})")


def main() -> int:
    try:
        api = import_program()
    except MissingProgram as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(f"baseline/{SEED}")

    s = tuple(rng.randint(-50, 50) for _ in range(2000))
    contract = api.ClientContract(inv=lambda v, a: True,
                                  convergence=lambda c, v: len(c) - len(v),
                                  collection=s)
    total, times = timed(lambda: api.checked_fold(lambda a, x: a + x, 0,
                                                  api.seq_cursor(s), contract))
    ok = total == sum(s)
    row("checked_fold, 2000 ints, invariant True", times)
    plain = reference_ns(lambda: sum(s)) / 1e9
    row("plain sum, 2000 ints", [plain], 1e6, "us")

    g = graph_ops.random_graph(rng, list(range(16)), 80 / 256)
    lib = graph_ops.library_graph(api, g)
    print(f"graph: {len(g)} vertices, {len(O.edges_of(g))} edges")
    for name, oracle in (("mirror", O.g_mirror), ("complement", O.g_complement)):
        result, times = timed(lambda: getattr(api, name)(lib))
        ok &= graph_ops.observe_graph(result)[1] == O.graph_outcome(oracle(g))
        row(f"{name}, 16 vertices", times)
    print("results match the oracles" if ok else "RESULTS DIFFER FROM THE ORACLES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
