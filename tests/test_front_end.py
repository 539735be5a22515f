"""The annotation front end: lexer against its character-loop oracle, parse
errors against a golden file, non-ASCII input, and the CLI parser reused
across calls in one process."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_lexer
from unfold import ParseError, SemanticError
from unfold.cli import main
from unfold.dsl import (
    parse_call,
    parse_decl,
    parse_scenario,
    parse_spec_file,
    parse_term_text,
)
from unfold.dsl.lexer import _PUNCT, tokenize
from unfold.dsl.parser import MAX_NESTING

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

ENTRIES = {"term": parse_term_text, "decl": parse_decl, "call": parse_call,
           "spec": parse_spec_file, "scenario": parse_scenario}

DECL_HEAD = "r = fold func acc col\n  folds "
DECL_TAIL = ("~permitted:(fun v -> true) ~complete:(fun v -> true)\n"
             "  with structure = ('b seq), elt = 'b, accumulator = acc")
CALL_TAIL = "~collection:s ~convergence:(fun c v -> len c - len v)"
SCN_DECL = "decl d {\n  " + DECL_HEAD + DECL_TAIL + "\n}\n"
SCN_CALL = ("call c uses d {\n  folds ~inv:(fun v a -> true) " + CALL_TAIL
            + "\n  BODY\n}\n")

#: (name, entry, text): malformed inputs with the exact error each gives
PARSE_CASES = [
    ("unexpected_character", "term", "len v <= 3 ? x"),
    ("unexpected_character_line_3", "term", "true /\\\n  false /\\\n    @ x"),
    ("unexpected_backslash", "term", "a \\ b"),
    ("dangling_quote_in_term", "term", "x ' y"),
    ("dangling_quote_at_end", "decl", DECL_HEAD + DECL_TAIL.replace("'b,", "'")),
    ("missing_bracket", "term", "[1, 2"),
    ("missing_index_bracket", "term", "v[1 + 2"),
    ("missing_paren", "term", "(1 + 2"),
    ("missing_tuple_paren", "term", "(1, 2\n  , 3"),
    ("missing_lambda_paren", "term", "(fun x -> x"),
    ("bad_field", "term", "g.foo u"),
    ("field_not_a_name", "term", "g.1"),
    ("trailing_input", "term", "1 )"),
    ("chained_comparison", "term", "a = b = c"),
    ("comparison_after_and", "term", "x /\\ a = b < c"),
    ("comparison_after_not", "term", "not a = b <> c"),
    ("comparison_after_forall", "term",
     "forall i. 0 <= i < 3 -> true = false = true"),
    ("unbounded_quantifier", "term", "forall i. i -> true"),
    ("quantifier_over_other_name", "term", "forall i. 0 <= j < 3 -> true"),
    ("mem_quantifier_over_other_name", "term", "forall x. mem y s -> true"),
    ("quantifier_in_operand", "term", "1 + forall i. 0 <= i < 1 -> true"),
    ("lambda_without_parameters", "term", "(fun -> 1)"),
    ("lambda_bad_parameter", "term", "(fun 1 -> 1)"),
    ("negative_non_literal", "term", "f - - x"),
    ("operand_missing", "term", "1 +"),
    ("let_without_in", "term", "let (a, b) = p a"),
    ("empty_input", "term", "   \n  "),
    ("nesting_40_parens", "term",
     "(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1)),
    ("nesting_41_parens", "term", "(" * MAX_NESTING + "1" + ")" * MAX_NESTING),
    ("nesting_40_not", "term", "not " * (MAX_NESTING - 1) + "true"),
    ("nesting_41_not", "term", "not " * MAX_NESTING + "true"),
    ("nesting_41_implies", "term", "true -> " * MAX_NESTING + "true"),
    ("nesting_41_brackets", "term", "[" * MAX_NESTING + "1" + "]" * MAX_NESTING),
    ("unknown_clause", "decl", DECL_HEAD + "~foo:(fun v -> true) " + DECL_TAIL),
    ("unknown_clause_symbol", "call", "folds ~(fun v a -> true) " + CALL_TAIL),
    ("bad_pattern", "decl", DECL_HEAD.replace("folds", "loops") + DECL_TAIL),
    ("header_without_arguments", "decl", "r = fold folds " + DECL_TAIL),
    ("bad_type", "decl", DECL_HEAD + DECL_TAIL.replace("('b seq)", "(,)")),
    ("bad_typing_binding", "decl", DECL_HEAD + DECL_TAIL.replace("elt =", "item =")),
    ("call_trailing_input", "call", "folds ~inv:(fun v a -> true) " + CALL_TAIL + " }"),
    ("spec_junk", "spec", "decl d { " + DECL_HEAD + DECL_TAIL + " }\nbogus"),
    ("spec_call_without_uses", "spec", "call c d { }"),
    ("scenario_junk", "scenario", "collection s = [1]\n\njunk"),
    ("collection_not_a_literal", "scenario", "collection s = 1 + 2\n"),
    ("collection_indexed", "scenario", "collection s = [1, 2][0]\n"),
    ("graph_literal_bad_edge", "scenario",
     "collection g = graph { vertices: 1 2 edge: 1 }\n"),
    ("tree_literal_bad_value", "scenario",
     "collection t = tree (node leaf x leaf)\n"),
    ("tree_literal_unclosed", "scenario", "collection t = tree (node leaf 1 leaf\n"),
    ("consumer_dangling_dash", "scenario",
     SCN_DECL + SCN_CALL.replace("BODY", "consumer = add-;")),
    ("invocation_bad_item", "scenario",
     SCN_DECL + SCN_CALL.replace("BODY", "consumer = add; result = 1;")),
    ("invocation_missing_semicolon", "scenario",
     SCN_DECL + SCN_CALL.replace("BODY", "consumer = add init = 0;")),
]


def render_outcome(entry: str, text: str) -> str:
    try:
        ENTRIES[entry](text)
    except (ParseError, SemanticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def render_parse_cases() -> str:
    return "".join(f"{name} [{entry}]: {render_outcome(entry, text)}\n"
                   for name, entry, text in PARSE_CASES)


def test_parse_errors_match_the_golden_file():
    golden = (GOLDEN / "parse_errors.golden").read_text(encoding="utf-8")
    assert render_parse_cases() == golden


# -- the scanner against the character loop ------------------------------------

def _lex(lexer, text: str):
    """Tokens as (kind, text, line, column) tuples, or the error raised."""
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.column)
                for t in lexer(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


ASCII_PIECES = st.one_of(
    st.sampled_from(list(_PUNCT) + [" ", "  ", "\n", "\t", "\r", "\x0b", "\x0c",
                                    "\x1c", "'", "''", "_", "x'", "forall", "in",
                                    "collection", "0", "007", "?", "@", "\\", "/",
                                    "|", "!", "\"", "#", "$", "%", "&", "^", "`"]),
    st.from_regex(r"[A-Za-z_'][A-Za-z0-9_']{0,6}", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.characters(max_codepoint=127),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ASCII_PIECES, max_size=30).map("".join))
@example("forall i. 0 <= i < len v -> v[i] = (flatten collection)[i]")
@example("'a seq\n  * 'b'")
@example("x'y ' z")
@example("a\x1fb\x0c\rc\n")
def test_scanner_agrees_with_the_character_loop_on_ascii_text(text):
    assert _lex(tokenize, text) == _lex(reference_lexer.tokenize, text)


@pytest.mark.parametrize("text", ["²", "٣", "été", "x\u00a0y", "a\u2028b",
                                  "\U0001d7d8"])
def test_non_ascii_characters_are_unexpected_in_both_lexers(text):
    new = _lex(tokenize, "ok\n  " + text)
    assert new == _lex(reference_lexer.tokenize, "ok\n  " + text)
    assert new[0] == "error" and new[2] == 2
    assert "unexpected character" in new[1]


# -- non-ASCII input through the CLI -------------------------------------------

NON_ASCII = {
    "superscript_digit": ("collection s = [²]\n", 1, 17, "²"),
    "arabic_indic_digit": ("collection s = [1, ٣]\n", 1, 20, "٣"),
    "non_ascii_identifier": ("collection s = [1]\ncollection é = [2]\n",
                             2, 12, "é"),
}


@pytest.mark.parametrize("name", sorted(NON_ASCII))
def test_non_ascii_input_is_a_parse_error_with_exit_two(name, tmp_path, capsys):
    text, line, column, char = NON_ASCII[name]
    path = tmp_path / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"unfold: {path}: {line}:{column}: unexpected character {char!r}\n"


# -- the CLI parser, built once per process ------------------------------------

SCENARIO = r"""
collection s = [1, 2, 3]

decl fold_seq {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len collection /\
                    forall i. 0 <= i < len v -> v[i] = collection[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}

call sum_seq uses fold_seq {
  folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = add;
  init = 0;
  expect = 6;
}
"""


def _fresh_process(*argv) -> tuple:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "unfold.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def _without_millis(stdout: str):
    """The output with its timings taken out: ``millis`` in JSON, and in text
    each ``ms`` figure with the padding that right-aligns it."""
    if stdout.startswith(("[", "{")):
        return json.loads(re.sub(r'"millis": [0-9.e-]+', '"millis": 0', stdout))
    return re.sub(r" *[0-9.]+ ms", "_ ms", stdout)


def test_repeated_calls_in_one_process_see_only_their_own_options(tmp_path, capsys):
    path = tmp_path / "sum.scn"
    path.write_text(SCENARIO, encoding="utf-8")
    calls = [["check", str(path), "--seed", "3", "--trace"],
             ["check", str(path)],
             ["check", str(path), "--no-such-flag"],
             ["demo", "--format", "json"],
             ["check", str(path), "--format", "json"]]
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            rc = exc.code
        out, err = capsys.readouterr()
        fresh_rc, fresh_out, fresh_err = _fresh_process(*argv)
        assert rc == fresh_rc, argv
        assert err == fresh_err, argv
        assert _without_millis(out) == _without_millis(fresh_out), argv
    assert [main(["check", str(path)]) for _ in range(3)] == [0, 0, 0]
    assert "trace of sum_seq" not in capsys.readouterr().out
