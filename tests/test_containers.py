import random

import pytest
from hypothesis import given, settings, strategies as st

from unfold import (
    LEAF,
    ClientContract,
    ContractViolation,
    FiniteSet,
    Node,
    ViolationKind,
    checked_fold,
    checked_iter,
    collect_stats,
    create_cursor,
    level_cursor,
    queue_of_seq,
    seq_cursor,
    set_cursor,
    stack_of_seq,
    tree_cursor,
)
from unfold import containers
from unfold.containers import BinaryTree, _DistinctMembers, _PrefixOf, _PushedPrefix
from unfold.dsl import parse_term_text
from unfold.terms import apply_lambda, eval_term
from unfold.values import value_key

from helpers import bfs_values, random_seq, random_tree, tree_height


def drain(cursor):
    out = []
    while cursor.has_next():
        out.append(cursor.next())
    return tuple(out)


def assert_cursor_soundness(cursor):
    """Generic cursor property suite: permitted at every step, one-element
    growth, exhaustion implies complete."""
    k = 0
    while True:
        assert cursor.permitted(cursor.visited)
        assert len(cursor.visited) == k
        if not cursor.has_next():
            break
        cursor.next()
        k += 1
    assert cursor.complete(cursor.visited)


SAMPLE_TREE = Node(Node(LEAF, 1, LEAF), 2, Node(LEAF, 3, LEAF))


class TestSeqCursor:
    def test_exhaustion(self):
        c = seq_cursor((1, 2, 3))
        assert drain(c) == (1, 2, 3)
        assert c.complete(c.visited)

    def test_empty(self):
        c = seq_cursor(())
        assert c.has_next() is False
        assert c.complete(())

    def test_singleton(self):
        c = seq_cursor((5,))
        assert c.next() == 5


class TestSetCursor:
    def test_exhaustion_is_a_distinct_permutation(self):
        s = FiniteSet([3, 1, 2])
        visited = drain(set_cursor(s))
        assert FiniteSet(visited) == s
        assert len(set(visited)) == 3

    def test_empty_set_completes_immediately(self):
        c = set_cursor(FiniteSet())
        assert c.has_next() is False

    def test_repeating_producer_violates_distinctness(self):
        s = FiniteSet([1, 2])
        template = set_cursor(s)
        rigged = create_cursor(iter((1, 1)), template.permitted,
                               template.complete)
        rigged.next()
        with pytest.raises(ContractViolation) as exc:
            rigged.next()
        assert exc.value.kind is ViolationKind.PERMITTED_VIOLATED

    def test_canonical_enumeration_order(self):
        assert drain(set_cursor(FiniteSet([9, 4, 7]))) == (4, 7, 9)

    def test_seeded_permutation_still_sound(self):
        s = FiniteSet(range(8))
        c = set_cursor(s, rng=random.Random(3))
        assert_cursor_soundness(c)
        assert FiniteSet(c.visited) == s


class TestTreeCursor:
    def test_in_order_traversal(self):
        assert drain(tree_cursor(SAMPLE_TREE)) == (1, 2, 3)

    def test_leaf_completes_immediately(self):
        assert tree_cursor(LEAF).has_next() is False

    def test_sum_over_tree_equals_sum_over_flattening(self):
        rng = random.Random(11)
        for _ in range(30):
            t = random_tree(rng, rng.randint(0, 30))
            flat = t.flatten()
            total = checked_fold(
                lambda a, x: a + x, 0, tree_cursor(t),
                ClientContract(inv=lambda v, a: a == sum(v),
                               convergence=lambda c, v: len(c.flatten()) - len(v),
                               collection=t))
            assert total == sum(flat)


class TestLevelCursor:
    def test_small_tree_levels(self):
        assert drain(level_cursor(SAMPLE_TREE)) == ((2,), (1, 3))

    def test_leaf_has_zero_levels(self):
        c = level_cursor(LEAF)
        assert c.has_next() is False

    def test_right_spine_has_singleton_levels(self):
        t = LEAF
        for x in (4, 3, 2, 1):
            t = Node(LEAF, x, t)
        assert drain(level_cursor(t)) == ((1,), (2,), (3,), (4,))

    def test_height_fold(self):
        rng = random.Random(13)
        for _ in range(30):
            t = random_tree(rng, rng.randint(0, 40))
            height = checked_fold(
                lambda a, lvl: a + 1, 0, level_cursor(t),
                ClientContract(inv=lambda v, a: a == len(v),
                               convergence=lambda c, v: len(c.levels()) - len(v),
                               collection=t))
            assert height == tree_height(t)


class TestTreeStructure:
    def test_flatten_length_equals_size(self):
        rng = random.Random(5)
        for _ in range(50):
            t = random_tree(rng, rng.randint(0, 40))
            assert len(t.flatten()) == t.size()

    def test_levels_concatenate_to_bfs_order(self):
        rng = random.Random(6)
        for _ in range(50):
            t = random_tree(rng, rng.randint(0, 40))
            concat = tuple(x for level in t.levels() for x in level)
            assert concat == bfs_values(t)


class TestDeepTrees:
    """A 3000-deep spine is far beyond the default recursion limit; walking
    it must not recurse."""

    DEPTH = 3000

    def spine(self, right: bool):
        t = LEAF
        for x in range(self.DEPTH, 0, -1):
            t = Node(LEAF, x, t) if right else Node(t, self.DEPTH + 1 - x, LEAF)
        return t

    @pytest.mark.parametrize("right", [True, False])
    def test_spine_size_and_flatten(self, right):
        t = self.spine(right)
        assert t.size() == self.DEPTH
        assert t.flatten() == tuple(range(1, self.DEPTH + 1))

    def test_tree_cursor_folds_a_right_spine(self):
        t = self.spine(right=True)
        total = checked_fold(
            lambda a, x: a + x, 0, tree_cursor(t),
            ClientContract(inv=lambda v, a: a == sum(v),
                           convergence=lambda c, v: self.DEPTH - len(v),
                           collection=t))
        assert total == self.DEPTH * (self.DEPTH + 1) // 2

    @pytest.mark.parametrize("right", [True, False])
    def test_spine_value_key_set_and_repr(self, right):
        t = self.spine(right)
        key, values = value_key(t), []
        while key != (4, ()):  # unwrap without comparing nested keys whole
            tag, (left, value, right_key) = key
            assert tag == 4 and (left if right else right_key) == (4, ())
            values.append(value)
            key = right_key if right else left
        assert values == [(0, x) for x in (range(1, self.DEPTH + 1) if right
                                           else range(self.DEPTH, 0, -1))]
        s = FiniteSet([t])
        assert len(s) == 1 and next(iter(s)) is t
        if right:
            want = "".join(f"Node(left=Leaf(), value={x}, right="
                           for x in range(1, self.DEPTH + 1))
            want += "Leaf()" + ")" * self.DEPTH
        else:
            want = "Node(left=" * self.DEPTH + "Leaf()" + "".join(
                f", value={x}, right=Leaf())" for x in range(1, self.DEPTH + 1))
        assert repr(t) == want

    def test_repr_and_key_match_the_dataclass_forms(self):
        t = Node(Node(LEAF, 1, Node(LEAF, (2, 3), LEAF)), 4, Node(LEAF, 5, LEAF))
        assert repr(t) == ("Node(left=Node(left=Leaf(), value=1, right=Node("
                           "left=Leaf(), value=(2, 3), right=Leaf())), value=4, "
                           "right=Node(left=Leaf(), value=5, right=Leaf()))")
        leaf = (4, ())
        assert value_key(t) == (4, ((4, (leaf, (0, 1), (4, (leaf, value_key((2, 3)),
                                                             leaf)))),
                                    (0, 4), (4, (leaf, (0, 5), leaf))))


class TestSinks:
    def test_stack_of_seq(self):
        assert stack_of_seq((1, 2, 3)).contents() == (3, 2, 1)

    def test_queue_of_seq(self):
        assert queue_of_seq((1, 2, 3)).contents() == (1, 2, 3)

    def test_empty_inputs(self):
        assert stack_of_seq(()).contents() == ()
        assert queue_of_seq(()).contents() == ()

    @pytest.mark.parametrize("build", [stack_of_seq, queue_of_seq])
    def test_a_builder_runs_inside_the_consumer_of_another_loop(self, build):
        # the inner loop checks its own invariant, not the outer levels'
        s = (1, 2, 3)
        with collect_stats() as stats:
            total = checked_fold(
                lambda a, x: a + len(build((x, x)).contents()), 0, seq_cursor(s),
                ClientContract(inv=lambda v, a: a == 2 * len(v),
                               convergence=lambda c, v: len(c) - len(v),
                               collection=s))
        assert total == 6
        # one outer check per step plus the first, three per inner build
        assert stats.inv_checks == len(s) + 1 + 3 * len(s)

    def test_random_sequences_satisfy_postconditions(self):
        rng = random.Random(17)
        for _ in range(100):
            s = random_seq(rng, max_len=40)
            assert tuple(reversed(stack_of_seq(s).contents())) == s
            assert queue_of_seq(s).contents() == s


class _Same:
    """Equal to every ``_Same`` of the same value and identical to none;
    counts the ``__eq__`` calls made on any of them."""

    calls = 0
    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        _Same.calls += 1
        return isinstance(other, _Same) and self.value == other.value

    def __repr__(self):
        return f"_Same({self.value!r})"


NAN = float("nan")
WRONG = 99
SINK_ELEMS = st.one_of(st.integers(-2, 2), st.booleans(), st.just(NAN),
                       st.integers(0, 2).map(_Same))
SINK_FAULTS = ["none", "wrong", "drop", "double", "copy", "nan", "bool"]


def _equal_copy(x):
    """An equal but not identical copy; a NaN copy is unequal to its source."""
    if isinstance(x, _Same):
        return _Same(x.value)
    return float("nan") if x is NAN else x


def _swap_bool(x):
    """``True`` for ``1``, ``0`` for ``False``, and so on: equal elements of
    the other type."""
    if type(x) is bool:
        return int(x)
    return bool(x) if type(x) is int and x in (0, 1) else x


def _faulty_consumer(items, fault, at):
    def push(x):
        k = push.received
        push.received += 1
        if fault == "copy":
            items.append(_equal_copy(x))
        elif fault == "bool":
            items.append(_swap_bool(x))
        elif k != at:
            items.append(x)
        elif fault == "wrong":
            items.append(WRONG)
        elif fault == "double":
            items.extend((x, x))
        elif fault == "nan":
            items.append(float("nan"))
        elif fault == "none":
            items.append(x)
    push.received = 0
    return push


def _slicing_inv(items, source):
    """The builders' invariant before the step form, kept as the oracle."""
    return lambda v: items == list(source[:len(v)])


def _run_sink(make_inv, source, fault="none", at=0):
    items = []
    contract = ClientContract(inv=make_inv(items, source),
                              convergence=lambda c, v: len(c) - len(v),
                              collection=source)
    with collect_stats() as stats:
        try:
            checked_iter(_faulty_consumer(items, fault, at), seq_cursor(source),
                         contract)
            outcome = ("ok", repr(items))
        except ContractViolation as exc:
            outcome = ("violation", exc.kind, exc.step, str(exc))
    return outcome, (stats.inv_checks, stats.variant_checks,
                     stats.permitted_checks, stats.complete_checks)


class TestPushedPrefix:
    """The builders' sink invariant checks only the items pushed since the
    last check that held, and decides exactly what the slicing form did."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SINK_ELEMS, max_size=8).map(tuple),
           st.sampled_from(SINK_FAULTS),
           st.sampled_from(["first", "middle", "last"]))
    def test_faulty_consumers_match_the_slicing_form(self, source, fault, where):
        at = {"first": 0, "middle": len(source) // 2,
              "last": len(source) - 1}[where]
        stepped = _run_sink(_PushedPrefix, source, fault, at)
        sliced = _run_sink(_slicing_inv, source, fault, at)
        assert stepped == sliced

    def test_the_faults_are_caught_or_pass_as_list_equality_decides(self):
        source = (1, NAN, _Same(0), True)
        outcomes = {fault: _run_sink(_PushedPrefix, source, fault, at=1)[0]
                    for fault in SINK_FAULTS}
        assert outcomes["none"][0] == outcomes["bool"][0] == "ok"
        # "copy" fails too: a copied NaN is not equal to the source's NaN
        for fault in ("wrong", "drop", "double", "nan", "copy"):
            assert outcomes[fault][:3] == ("violation",
                                           ViolationKind.INVARIANT_VIOLATED, 2)

    def test_each_item_is_compared_once(self):
        n = 40
        source = tuple(_Same(i) for i in range(n))
        _Same.calls = 0
        (outcome, counts) = _run_sink(_PushedPrefix, source, "copy")
        assert outcome[0] == "ok" and counts[0] == n + 1
        assert _Same.calls == n
        _Same.calls = 0
        assert _run_sink(_slicing_inv, source, "copy")[0][0] == "ok"
        assert _Same.calls == n * (n + 1) // 2

    def test_a_shorter_prefix_starts_again_from_the_first_item(self):
        source = (1, 2, 3)
        items = [1, 2, 3]
        inv = _PushedPrefix(items, source)
        assert inv(source)
        items[:] = [WRONG]
        assert inv(source[:1]) is False
        items[:] = [1]
        assert inv(source[:1]) is True


class TestGenericSoundness:
    def test_all_constructors_pass_the_cursor_property_suite(self):
        rng = random.Random(23)
        for _ in range(40):
            assert_cursor_soundness(seq_cursor(random_seq(rng, max_len=25)))
            assert_cursor_soundness(
                set_cursor(FiniteSet(random_seq(rng, max_len=25))))
            t = random_tree(rng, rng.randint(0, 25))
            assert_cursor_soundness(tree_cursor(t))
            assert_cursor_soundness(level_cursor(t))


# -- the native predicates against the term formulas they restate ------------------

PREFIX_OF = parse_term_text(
    r"(fun v -> len v <= len s /\ forall i. 0 <= i < len v -> v[i] = s[i])")
SEQ_COMPLETE = parse_term_text("(fun v -> len v = len s)")
DISTINCT_MEMBERS = parse_term_text(r"(fun v -> subset v m /\ distinct v)")
SET_COMPLETE = parse_term_text("(fun v -> setof v = m)")
ELEMS = st.one_of(st.integers(-3, 3), st.tuples(st.integers(0, 2), st.integers(0, 2)))


class TestNativePredicatesMatchTheirFormulas:
    """Each visited prefix is checked by the native predicate, its step
    form, and one closure of the term formula, applied to every prefix in
    turn so that the formula's compiled form resumes from the prefix before."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMS, max_size=8).map(tuple),
           st.lists(ELEMS, max_size=3).map(tuple), st.data())
    def test_prefix_of_source_and_sequence_complete(self, source, tail, data):
        produced = source[:data.draw(st.integers(0, len(source)))] + tail
        native, native_complete = _PrefixOf(source), seq_cursor(source).complete
        permitted = eval_term(PREFIX_OF, {"s": source})
        complete = eval_term(SEQ_COMPLETE, {"s": source})
        for k in range(len(produced) + 1):
            v = produced[:k]
            assert native(v) is apply_lambda(permitted, [v])
            assert native_complete(v) is apply_lambda(complete, [v])
            if k and native(v[:-1]):
                assert native.step(k - 1, v[-1]) is native(v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMS, max_size=6), st.data())
    def test_distinct_members_and_set_complete(self, members, data):
        m = FiniteSet(members)
        pick = st.one_of(ELEMS, st.sampled_from(members)) if members else ELEMS
        produced = tuple(data.draw(st.lists(pick, max_size=8)))
        native, native_complete = _DistinctMembers(m), set_cursor(m).complete
        permitted = eval_term(DISTINCT_MEMBERS, {"m": m})
        complete = eval_term(SET_COMPLETE, {"m": m})
        for k in range(len(produced) + 1):
            v = produced[:k]
            assert native(v) is apply_lambda(permitted, [v])
            assert native_complete(v) is apply_lambda(complete, [v])
            if k and native(v[:-1]):
                assert native.step(k - 1, v[-1]) is native(v)


class TestTreeWalkMemo:
    """``flatten`` and ``levels`` walk a tree once and keep the result: the
    demo's tree contracts name ``flatten collection`` at every check."""

    CONTRACTS = {walk: tuple(text.replace("WALK", walk) for text in (
        "(fun v -> len v <= len (WALK collection) /\\"
        " forall i. 0 <= i < len v -> v[i] = (WALK collection)[i])",
        "(fun v -> len v = len (WALK collection))",
        "(fun c v -> len (WALK c) - len v)")) for walk in ("flatten", "levels")}

    def fold(self, tree, walk, fault=None):
        """Count the elements of ``tree`` under the demo's contract for
        ``walk``; ``fault`` = (step, "element" | "consumer") plants one."""
        permitted, complete, convergence = (
            eval_term(parse_term_text(text), {"collection": tree})
            for text in self.CONTRACTS[walk])
        elems = list(getattr(tree, walk)())
        bad_step, kind = fault or (None, None)
        if kind == "element":
            elems.insert(bad_step, ("planted",))
        step = lambda a, x: a + (2 if kind == "consumer" and a == bad_step else 1)
        inv = eval_term(parse_term_text("(fun v a -> a = len v)"), {})
        cursor = create_cursor(elems, lambda v: apply_lambda(permitted, [v]),
                               lambda v: apply_lambda(complete, [v]))
        try:
            return checked_fold(step, 0, cursor, ClientContract(
                inv=lambda v, a: apply_lambda(inv, [v, a]),
                convergence=lambda c, v: apply_lambda(convergence, [c, v]),
                collection=tree))
        except ContractViolation as exc:
            return exc.kind, exc.step, str(exc)

    @pytest.mark.parametrize("walk, helper", [("flatten", "_in_order"),
                                              ("levels", "_by_level")])
    def test_a_checked_fold_walks_the_tree_once(self, walk, helper, monkeypatch):
        walked = []
        original = getattr(containers, helper)
        monkeypatch.setattr(containers, helper,
                            lambda t: walked.append(t) or original(t))
        tree = random_tree(random.Random(9), 2000)
        expected = 2000 if walk == "flatten" else tree_height(tree)
        assert self.fold(tree, walk) == expected
        assert walked == [tree]

    @pytest.mark.parametrize("walk", ["flatten", "levels"])
    def test_faults_at_every_step_match_an_unmemoised_tree(self, walk, monkeypatch):
        make = lambda: random_tree(random.Random(4), 30)
        n = len(getattr(make(), walk)())
        faults = ([(k, "element") for k in range(n + 1)]
                  + [(k, "consumer") for k in range(n)])
        memoised = [self.fold(make(), walk, fault) for fault in faults]
        monkeypatch.setattr(BinaryTree, walk, {
            "flatten": lambda t: containers._in_order(t),
            "levels": lambda t: containers._by_level(t)}[walk])
        unmemoised = [self.fold(make(), walk, fault) for fault in faults]
        assert memoised == unmemoised
        assert {outcome[0] for outcome in memoised} == {
            ViolationKind.PERMITTED_VIOLATED, ViolationKind.INVARIANT_VIOLATED}

    def test_equality_and_hashing_ignore_the_kept_walks(self):
        walked = random_tree(random.Random(2), 50)
        walked.flatten(), walked.levels()
        fresh = random_tree(random.Random(2), 50)
        assert walked == fresh and hash(walked) == hash(fresh)
        assert repr(walked) == repr(fresh)
        assert value_key(walked) == value_key(fresh)
