import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from unfold import ParseError, SemanticError
from unfold.dsl import (
    parse_call,
    parse_decl,
    parse_scenario,
    parse_spec_file,
    parse_term_text,
    render_call,
    render_decl,
    render_term,
)
from unfold.dsl.parser import MAX_NESTING, TApp, TName, TTuple, TVar
from unfold.dsl.render import render_type
from unfold import terms as T
from unfold.demo import DEMOS


FOLD_DECL = r"""(*@ r = fold func acc col
    folds ~permitted:(fun v -> len v <= len collection /\
                      forall i. 0 <= i < len v -> v[i] = collection[i])
          ~complete:(fun v -> len v = len collection)
    with structure = ('b seq), elt = 'b, accumulator = acc *)"""

ITER_DECL = r"""r = iter func col
    iters ~permitted:(fun v -> len v <= len collection /\
                      forall i. 0 <= i < len v -> v[i] = collection[i])
          ~complete:(fun v -> len v = len collection)
    with structure = ('a seq), elt = 'a"""

SUM_CALL = r"""(*@ folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
    ~collection:s ~convergence:(fun c v -> len c - len v) *)"""

STACK_CALL = r"""iters ~inv:(fun v -> reverse stack = prefix s (len v))
    ~collection:s ~convergence:(fun c v -> len c - len v)"""


class TestParseDecl:
    def test_fold_declaration(self):
        d = parse_decl(FOLD_DECL)
        assert d.pattern == "folds"
        assert d.result == "r"
        assert d.name == "fold"
        assert d.args == ("func", "acc", "col")
        assert d.accumulator == "acc"
        assert d.structure == TApp("seq", TVar("'b"))
        assert d.elt == TVar("'b")
        assert isinstance(d.permitted, T.Lambda)
        assert isinstance(d.complete, T.Lambda)

    def test_iter_declaration_has_no_accumulator(self):
        d = parse_decl(ITER_DECL)
        assert d.pattern == "iters"
        assert d.accumulator is None

    def test_wrapped_and_bare_agree(self):
        bare = FOLD_DECL.strip()[3:-2]
        assert parse_decl(bare) == parse_decl(FOLD_DECL)

    def test_folds_without_accumulator_is_rejected(self):
        with pytest.raises(SemanticError, match="accumulator"):
            parse_decl("""r = fold func acc col
                folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
                with structure = ('b seq), elt = 'b""")

    def test_iters_with_accumulator_is_rejected(self):
        with pytest.raises(SemanticError, match="accumulator"):
            parse_decl("""r = iter func col
                iters ~permitted:(fun v -> true) ~complete:(fun v -> true)
                with structure = ('a seq), elt = 'a, accumulator = func""")

    def test_accumulator_must_name_a_header_argument(self):
        with pytest.raises(SemanticError, match="header"):
            parse_decl("""r = fold func acc col
                folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
                with structure = ('b seq), elt = 'b, accumulator = zz""")

    def test_clauses_in_any_order(self):
        d = parse_decl("""r = fold func acc col
            folds ~complete:(fun v -> true)
            with structure = ('b seq), elt = 'b, accumulator = acc
            ~permitted:(fun v -> true)""")
        assert d.pattern == "folds"

    def test_unknown_type_is_rejected(self):
        with pytest.raises(SemanticError, match="unknown"):
            parse_decl("""r = fold func acc col
                folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
                with structure = ('b zorp), elt = 'b, accumulator = acc""")


class TestParseCall:
    def test_sum_client(self):
        c = parse_call(SUM_CALL)
        assert c.pattern == "folds"
        assert c.collection == T.Var("s")
        assert isinstance(c.inv, T.Lambda)
        assert [p.name for p in c.inv.params] == ["v", "a"]
        assert isinstance(c.convergence, T.Lambda)

    def test_stack_client(self):
        c = parse_call(STACK_CALL)
        assert c.pattern == "iters"
        assert [p.name for p in c.inv.params] == ["v"]
        assert isinstance(c.inv.body, T.Cmp)
        assert isinstance(c.inv.body.left, T.Reverse)

    def test_unknown_clause_lists_valid_keys(self):
        with pytest.raises(ParseError) as exc:
            parse_call("folds ~variant:(fun c v -> len c) "
                       "~collection:s ~convergence:(fun c v -> 0) "
                       "~inv:(fun v a -> true)")
        message = str(exc.value)
        assert "~variant" in message
        for key in ("~inv", "~collection", "~convergence"):
            assert key in message

    def test_missing_clause(self):
        with pytest.raises(SemanticError, match="~convergence"):
            parse_call("folds ~inv:(fun v a -> true) ~collection:s")

    def test_duplicate_clause(self):
        with pytest.raises(SemanticError, match="duplicate"):
            parse_call("folds ~collection:s ~collection:s "
                       "~inv:(fun v a -> true) ~convergence:(fun c v -> 0)")

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_call("folds ~inv:(fun v a -> ] ) ~collection:s "
                       "~convergence:(fun c v -> 0)")
        assert exc.value.line == 1
        assert exc.value.column > 0


class TestParseFiles:
    def test_pattern_mismatch_between_call_and_decl(self):
        with pytest.raises(SemanticError, match="iters"):
            parse_spec_file("""
            decl d { r = iter func col
              iters ~permitted:(fun v -> true) ~complete:(fun v -> true)
              with structure = ('a seq), elt = 'a }
            call c uses d {
              folds ~inv:(fun v a -> true) ~collection:s
                    ~convergence:(fun c v -> 0) }
            """)

    def test_within_references_must_resolve(self):
        with pytest.raises(SemanticError, match="unknown call"):
            parse_spec_file("""
            decl d { r = fold func acc col
              folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
              with structure = ('b seq), elt = 'b, accumulator = acc }
            call c uses d within ghost {
              folds ~inv:(fun v a -> true) ~collection:s
                    ~convergence:(fun c v -> 0) }
            """)

    def test_scenario_collections_restricted_to_literals(self):
        with pytest.raises(ParseError, match="sequence literals"):
            parse_scenario("collection s = 1 + 2\n")

    def test_scenario_requires_known_decl(self):
        with pytest.raises(SemanticError, match="unknown declaration"):
            parse_scenario("""
            collection s = [1]
            call c uses ghost {
              folds ~inv:(fun v a -> true) ~collection:s
                    ~convergence:(fun c v -> 0)
              consumer = add; init = 0; }
            """)

    def test_scenario_rejects_duplicate_declaration(self):
        decl = """
            decl d { r = fold func acc col
              folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
              with structure = ('b seq), elt = 'b, accumulator = acc }
            """
        with pytest.raises(SemanticError, match="duplicate declaration 'd'"):
            parse_scenario(decl + decl)

    def test_scenario_rejects_duplicate_collection(self):
        with pytest.raises(SemanticError, match="duplicate collection 's'"):
            parse_scenario("collection s = [1]\ncollection s = [2]\n")


class TestNestingLimit:
    def test_deep_parentheses_are_a_parse_error_at_the_deep_token(self):
        with pytest.raises(ParseError) as exc:
            parse_term_text("\n  " + "(" * 2000 + "1" + ")" * 2000)
        assert (exc.value.line, exc.value.column) == (2, 3 + MAX_NESTING)
        assert "nesting deeper than" in str(exc.value)

    @pytest.mark.parametrize("text", ["not " * 2000 + "true",
                                      "true -> " * 2000 + "true",
                                      "[" * 2000 + "1" + "]" * 2000,
                                      "(fun x -> " * 2000 + "x" + ")" * 2000],
                             ids=["not", "implies", "brackets", "lambdas"])
    def test_deep_terms_are_parse_errors(self, text):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_term_text(text)

    def test_nesting_up_to_the_limit_parses_and_evaluates(self):
        depth = MAX_NESTING - 1
        t = parse_term_text("(" * depth + "1" + ")" * depth)
        assert T.eval_term(t, {}) == 1
        t = parse_term_text("not " * depth + "true")
        assert T.eval_term(t, {}) is (depth % 2 == 0)

    def test_deep_tree_literal_parses_without_recursion(self):
        depth = 3000
        s = parse_scenario("collection t = tree " + "(node leaf 1 " * depth
                           + "leaf" + ")" * depth + "\n")
        assert s.collections["t"].size() == depth


class TestRoundTrip:
    def test_decl_round_trips(self):
        for text in (FOLD_DECL, ITER_DECL):
            d = parse_decl(text)
            assert parse_decl(render_decl(d)) == d

    def test_call_round_trips(self):
        for text in (SUM_CALL, STACK_CALL):
            c = parse_call(text)
            assert parse_call(render_call(c)) == c

    def test_demo_corpus_round_trips(self):
        for source in DEMOS.values():
            scenario = parse_scenario(source)
            for decl in scenario.decls.values():
                assert parse_decl(render_decl(decl)) == decl
            for invocation in scenario.invocations:
                call = invocation.call
                assert parse_call(render_call(call)) == call

    def test_type_round_trips(self):
        for ty in (TVar("'a"), TName("gt"), TApp("seq", TVar("'b")),
                   TApp("tree", TVar("'a")), TTuple((TName("gt"), TName("vt"))),
                   TApp("seq", TApp("tree", TVar("'a")))):
            # embed in a full declaration so the type goes through the parser
            d = parse_decl(f"""r = fold func acc col
                folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
                with structure = {render_type(ty)}, elt = 'b,
                     accumulator = acc""")
            assert d.structure == ty


def _term_strategy():
    names = st.sampled_from(["x", "y", "s", "v"])
    leaf = st.one_of(
        names.map(T.Var),
        st.integers(-20, 20).map(T.IntLit),
        st.booleans().map(T.BoolLit),
        st.just(T.EmptySetLit()),
        st.just(T.UnitLit()),
    )

    def extend(children):
        binary = st.tuples(children, children)
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: T.Arith(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                      children, children).map(
                lambda t: T.Cmp(t[0], t[1], t[2])),
            binary.map(lambda t: T.And(*t)),
            binary.map(lambda t: T.Or(*t)),
            binary.map(lambda t: T.Implies(*t)),
            children.map(T.Not),
            children.map(T.Len),
            children.map(T.Reverse),
            children.map(T.Distinct),
            children.map(T.SetOf),
            children.map(T.Flatten),
            children.map(T.Levels),
            children.map(T.CopyTerm),
            binary.map(lambda t: T.Index(*t)),
            binary.map(lambda t: T.Prefix(*t)),
            binary.map(lambda t: T.UnionOp(*t)),
            binary.map(lambda t: T.InterOp(*t)),
            binary.map(lambda t: T.DiffOp(*t)),
            binary.map(lambda t: T.Subset(*t)),
            binary.map(lambda t: T.Mem(*t)),
            binary.map(lambda t: T.AddElem(*t)),
            children.map(lambda t: T.Field(t, "dom")),
            children.map(lambda t: T.Field(t, "suc")),
            st.lists(children, min_size=2, max_size=3).map(
                lambda items: T.TupleTerm(tuple(items))),
            st.lists(children, min_size=0, max_size=3).map(
                lambda items: T.SeqLit(tuple(items))),
            st.tuples(children, children, children).map(
                lambda t: T.ForallRange("q", t[0], t[1], t[2])),
            binary.map(lambda t: T.ForallMem("q", t[0], t[1])),
            st.tuples(children, children, children).map(
                lambda t: T.SumTerm(t[0], t[1], t[2])),
            st.tuples(children, st.lists(children, min_size=1, max_size=3)).map(
                lambda t: T.App(t[0], tuple(t[1]))),
            st.tuples(st.lists(st.sampled_from(["p", "q2", "r"]), min_size=1,
                               max_size=3, unique=True), children).map(
                lambda t: T.Lambda(tuple(T.VarPat(n) for n in t[0]), t[1])),
            st.tuples(children, children).map(
                lambda t: T.LetTuple(("g", "h"), t[0], t[1])),
        )

    return st.recursive(leaf, extend, max_leaves=12)


class TestTermRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_term_strategy())
    # a sequence literal after another operand must not read as indexing it
    @example(T.SumTerm(T.Var("x"), T.SeqLit(()), T.EmptySetLit()))
    @example(T.App(T.Var("f"), (T.SeqLit((T.IntLit(1),)),)))
    def test_parse_render_is_identity(self, term):
        rendered = render_term(term)
        assert parse_term_text(rendered) == term

    def test_range_quantifier_with_mem_lower_bound(self):
        term = T.ForallRange("q", T.Mem(T.BoolLit(False), T.UnitLit()),
                             T.IntLit(1), T.BoolLit(True))
        assert parse_term_text(render_term(term)) == term

    def test_deep_application_chain(self):
        term = T.App(T.App(T.Var("f"), (T.Var("x"),)), (T.Var("y"),))
        assert parse_term_text(render_term(term)) == term

    def test_negative_literal_in_argument_position(self):
        term = T.App(T.Var("f"), (T.IntLit(-3), T.Var("x")))
        rendered = render_term(term)
        assert parse_term_text(rendered) == term
