"""Workload ``seq_engine``: library calls with native-Python contracts.

Every invariant is O(1): it compares the accumulator (or the sink) with a
prefix aggregate precomputed at ``len(v)``, so the time measured belongs to
the engine and the cursors, not to the client. The ``terms`` layer does no
work here.
"""

from __future__ import annotations

import oracles as O
from harness import Op

SEQ_SIZES = (100, 300, 1000, 3000)
TREE_SIZES = (100, 300, 1000)
SET_SIZES = (25, 50, 100, 200)  # set_cursor is cubic today; keep it bounded
FAULT_SIZES = (100, 300, 1000)


def _add(a, x):
    return a + x


def _incr(x):
    return x + 1


def _positive(x):
    return x > 0


def _remaining(c, v):
    return len(c) - len(v)


def fault_position(rng, n: int) -> int:
    """Seeded index in the middle eighth of ``n``: where a fault sits moves
    with the seed, how much work runs before it hardly does."""
    return rng.randrange(7 * n // 16, 9 * n // 16)


def random_tree(rng, n: int):
    """Random binary tree of ``n`` nodes. Each node puts between a quarter
    and three quarters of the rest on its left, which keeps the height
    (and with it the level count) close to the same for every seed."""
    if n == 0:
        return None
    left = rng.randint((n - 1) // 4, 3 * (n - 1) // 4)
    return (random_tree(rng, left), rng.randint(-50, 50),
            random_tree(rng, n - 1 - left))


def library_tree(api, t):
    if t is None:
        return api.LEAF
    return api.Node(library_tree(api, t[0]), t[1], library_tree(api, t[2]))


def _sum_contract(api, P, collection, remaining=_remaining):
    return api.ClientContract(inv=lambda v, a: a == P[len(v)],
                              convergence=remaining, collection=collection)


def _seq_ops(api, s: tuple) -> list:
    n = len(s)
    P = O.prefix_sums(s)
    image = O.map_incr(s)
    kept, last_kept = O.kept_prefix(s)
    fold_c = _sum_contract(api, P, s)
    map_c = api.ClientContract(
        inv=lambda v, out: len(out) == len(v) and (not v or out[-1] == image[len(v) - 1]),
        convergence=_remaining, collection=s)
    filter_c = api.ClientContract(
        inv=lambda v, out: len(out) == kept[len(v)] and (not out or out[-1] == last_kept[len(v)]),
        convergence=_remaining, collection=s)

    def iterate():
        sink = [0, 0]  # count, total

        def consume(x):
            sink[0] += 1
            sink[1] += x

        api.checked_iter(consume, api.seq_cursor(s), api.ClientContract(
            inv=lambda v: sink[0] == len(v) and sink[1] == P[len(v)],
            convergence=_remaining, collection=s))
        return tuple(sink)

    return [
        Op("fold", n, lambda: api.checked_fold(_add, 0, api.seq_cursor(s), fold_c),
           ("ok", O.fold_sum(s)), reference=lambda: O.fold_sum(s)),
        Op("map", n, lambda: api.checked_map(_incr, api.seq_cursor(s), map_c),
           ("ok", image), reference=lambda: O.map_incr(s)),
        Op("filter", n, lambda: api.checked_filter(_positive, api.seq_cursor(s), filter_c),
           ("ok", O.filter_pos(s)), reference=lambda: O.filter_pos(s)),
        Op("iter", n, iterate, ("ok", (n, O.fold_sum(s))),
           reference=lambda: (len(s), O.fold_sum(s))),
        Op("stack", n, lambda: api.stack_of_seq(s).contents(),
           ("ok", O.stack_contents(s)), reference=lambda: O.stack_contents(s)),
        Op("queue", n, lambda: api.queue_of_seq(s).contents(),
           ("ok", O.queue_contents(s)), reference=lambda: O.queue_contents(s)),
    ]


def _tree_ops(api, t, n: int) -> list:
    lib = library_tree(api, t)
    flat = O.flatten(t)
    level_sums = [sum(level) for level in O.levels(t)]
    PT, PL = O.prefix_sums(flat), O.prefix_sums(level_sums)
    tree_c = _sum_contract(api, PT, lib, lambda c, v: n - len(v))
    level_c = _sum_contract(api, PL, lib, lambda c, v: len(level_sums) - len(v))
    return [
        Op("tree", n, lambda: api.checked_fold(_add, 0, api.tree_cursor(lib), tree_c),
           ("ok", O.fold_sum(flat)), reference=lambda: O.fold_sum(O.flatten(t))),
        Op("level", n,
           lambda: api.checked_fold(lambda a, lvl: a + sum(lvl), 0,
                                    api.level_cursor(lib), level_c),
           ("ok", PL[-1]),
           reference=lambda: sum(sum(level) for level in O.levels(t))),
    ]


def _set_op(api, xs: list) -> Op:
    members = api.FiniteSet(xs)
    ordered = sorted(xs)  # canonical enumeration order of an int set
    contract = _sum_contract(api, O.prefix_sums(ordered), members)
    return Op("set", len(xs),
              lambda: api.checked_fold(_add, 0, api.set_cursor(members), contract),
              ("ok", O.fold_sum(xs)), reference=lambda: O.fold_sum(xs))


def _fault_ops(api, s: tuple, wrong: int, drop_at: int, dup: int) -> list:
    """test_c05's three fault shapes: a wrong initial accumulator, a
    consumer dropping the effect of element ``drop_at``, and a producer
    yielding element ``dup`` twice."""
    n = len(s)
    P = O.prefix_sums(s)
    contract = _sum_contract(api, P, s)
    produced = s[:dup + 1] + (s[dup],) + s[dup + 1:]

    def dropped_effect():
        sink = [0, 0]
        seen = [0]

        def consume(x):
            if seen[0] != drop_at:
                sink[0] += 1
                sink[1] += x
            seen[0] += 1

        api.checked_iter(consume, api.seq_cursor(s), api.ClientContract(
            inv=lambda v: sink[0] == len(v) and sink[1] == P[len(v)],
            convergence=_remaining, collection=s))
        return tuple(sink)

    def reyield():
        cursor = api.create_cursor(iter(produced),
                                   permitted=lambda v: v == s[:len(v)],
                                   complete=lambda v: len(v) == len(s))
        return api.checked_fold(_add, 0, cursor, contract)

    plain = lambda: O.fold_sum(s)
    return [
        Op("fault.wrong_init", n,
           lambda: api.checked_fold(_add, wrong, api.seq_cursor(s), contract),
           O.expect_wrong_init(), reference=plain, ladder=False),
        Op("fault.dropped_effect", n, dropped_effect,
           O.expect_dropped_effect(drop_at), reference=plain, ladder=False),
        Op("fault.reyield", n, reyield, O.expect_reyield(produced, s),
           reference=plain, ladder=False),
    ]


def build(api, rng, digest, workdir) -> list:
    ops = []
    for n in SEQ_SIZES:
        s = tuple(rng.randint(-50, 50) for _ in range(n))
        digest("seq", s)
        ops += _seq_ops(api, s)
    for n in TREE_SIZES:
        t = random_tree(rng, n)
        digest("tree", t)
        ops += _tree_ops(api, t, n)
    for n in SET_SIZES:
        xs = rng.sample(range(-10 * n, 10 * n), n)
        digest("set", sorted(xs))
        ops.append(_set_op(api, xs))
    for n in FAULT_SIZES:
        s = tuple(rng.randint(-50, 50) for _ in range(n))
        wrong = rng.choice((-1, 1, 7))
        drop_at, dup = fault_position(rng, n), fault_position(rng, n)
        digest("fault", s, wrong, drop_at, dup)
        ops += _fault_ops(api, s, wrong, drop_at, dup)
    return ops
