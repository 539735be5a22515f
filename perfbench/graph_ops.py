"""Workload ``graph_ops``: the graph operations and ``check_path``.

Term-language invariants, ``FiniteSet`` builds and ``GraphModel`` rebuilds
do the work here; visited prefixes stay at most 12 long, so the engine's
snapshot cost is small. The vertex ladder stops at 12 because ``mirror``
grows about as n^5.
"""

from __future__ import annotations

import oracles as O
from harness import Op

VERTICES = (4, 6, 8, 10, 12)
DENSITIES = (0.1, 0.3, 0.5)
# graphs per (vertices, density): more of the cheap ones, so that the
# per-op percentiles rest on many independent inputs
REPLICAS = {4: 3, 6: 3, 8: 3, 10: 2, 12: 1}
PATH_LENGTHS = (5, 60)


def path_lengths(count: int) -> list:
    """``count`` path lengths spread evenly over PATH_LENGTHS, so every seed
    checks paths of the same lengths."""
    lo, hi = PATH_LENGTHS
    return [lo + (hi - lo) * k // (count - 1) for k in range(count)]


def random_graph(rng, vertices: list, density: float) -> dict:
    """Every vertex gets ``max(round(density * n), 1)`` distinct random
    successors: the edge count and the out-degrees are fixed by ``n`` and
    ``density``, so the work per operation varies little with the seed, and
    random walks never get stuck."""
    degree = max(round(density * len(vertices)), 1)
    return {v: frozenset(rng.sample(vertices, degree)) for v in vertices}


def random_walk(rng, g: dict, length: int) -> tuple:
    path = [rng.choice(sorted(g))]
    for _ in range(length - 1):
        path.append(rng.choice(sorted(g[path[-1]])))
    return tuple(path)


def broken_walk(rng, g: dict, length: int) -> tuple:
    """A walk with one element replaced by a non-vertex or by a vertex that
    is not a successor of its predecessor."""
    path = list(random_walk(rng, g, length))
    at = rng.randrange(len(path))
    outside = max(g) + 1 + rng.randrange(10)
    if at and rng.random() < 0.5:
        candidates = sorted(set(g) - g[path[at - 1]])
        path[at] = rng.choice(candidates) if candidates else outside
    else:
        path[at] = outside
    return tuple(path)


def library_graph(api, g: dict):
    return api.GraphModel(sorted(g), {v: sorted(s) for v, s in g.items()})


def observe_graph(raw) -> tuple:
    return ("ok", (frozenset(raw.dom), frozenset(raw.edges())))


def _ops(api, n: int, g1: dict, g2: dict, good: tuple, bad: tuple) -> list:
    a, b = library_graph(api, g1), library_graph(api, g2)

    def graph_op(kind, call, oracle):
        return Op(kind, n, call, ("ok", O.graph_outcome(oracle())),
                  observe=observe_graph, reference=oracle)

    return [
        graph_op("union", lambda: api.union(a, b), lambda: O.g_union(g1, g2)),
        graph_op("intersect", lambda: api.intersect(a, b),
                 lambda: O.g_intersect(g1, g2)),
        graph_op("complement", lambda: api.complement(a),
                 lambda: O.g_complement(g1)),
        graph_op("mirror", lambda: api.mirror(a), lambda: O.g_mirror(g1)),
        graph_op("copy_vertices", lambda: api.copy_vertices(a),
                 lambda: O.g_copy_vertices(g1)),
        Op("check_path", len(good), lambda: api.check_path(a, good),
           ("ok", O.path_ok(g1, good)), reference=lambda: O.path_ok(g1, good),
           ladder=False),
        Op("check_path", len(bad), lambda: api.check_path(a, bad),
           ("ok", O.path_ok(g1, bad)), reference=lambda: O.path_ok(g1, bad),
           ladder=False),
    ]


def build(api, rng, digest, workdir) -> list:
    ops = []
    lengths = path_lengths(2 * sum(REPLICAS.values()) * len(DENSITIES))
    rng.shuffle(lengths)
    for n, density in ((n, d) for n in VERTICES for d in DENSITIES
                       for _ in range(REPLICAS[n])):
        g1 = random_graph(rng, list(range(n)), density)
        g2 = random_graph(rng, list(range(n // 2, n + n // 2)), density)
        good = random_walk(rng, g1, lengths.pop())
        bad = broken_walk(rng, g1, lengths.pop())
        if not O.path_ok(g1, good) or O.path_ok(g1, bad):
            raise AssertionError("path generator broke its construction")
        digest("graphs", sorted(O.edges_of(g1)), sorted(O.edges_of(g2)),
               good, bad)
        ops += _ops(api, n, g1, g2, good, bad)
    return ops
