"""Tokenizer for the annotation language and scenario files.

One compiled pattern, matched at a moving position, reads each token with
the blanks before it. Its classes are ASCII: any other character is a
ParseError.
"""

from __future__ import annotations

import re

from ..errors import ParseError

KEYWORDS = {
    "fun", "forall", "let", "in", "not", "true", "false",
    "folds", "iters", "maps", "filters",
    "with", "structure", "elt", "accumulator",
    "len", "prefix", "reverse", "distinct", "setof",
    "union", "inter", "diff", "subset", "mem", "add", "sum",
    "emptyset", "flatten", "levels", "copy",
    "collection", "decl", "call", "uses", "within",
    "consumer", "init", "expect",
    "graph", "tree", "node", "leaf", "vertices", "edge",
}

# longest first: the token pattern tries them in this order
_PUNCT = (
    "->", "/\\", "\\/", "<>", "<=", ">=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".",
    "=", "<", ">", "+", "-", "*", "~",
)

# a token, after any blanks (str.isspace on ASCII: tab to carriage return,
# \x1c-\x1f, space); the group that matched names the token's kind
_BLANKS = re.compile(r"[\t\x0b\x0c\r\x1c-\x1f ]*")
_TOKEN = re.compile(_BLANKS.pattern + "(?:" + "|".join((
    r"(?P<NEWLINE>\n)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)",
    r"(?P<TYVAR>'[A-Za-z0-9_']+)",
    r"(?P<INT>[0-9]+)",
    "(?P<PUNCT>" + "|".join(map(re.escape, _PUNCT)) + ")")) + ")")


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # IDENT, TYVAR, INT, KW, PUNCT, EOF
        self.text = text
        self.line = line
        self.column = column


def strip_wrapper(text: str) -> str:
    """Specification blocks may come wrapped as an annotation comment
    ``(*@ ... *)``; accept both wrapped and bare text."""
    stripped = text.strip()
    if stripped.startswith("(*@") and stripped.endswith("*)"):
        return stripped[3:-2]
    return text


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    match = _TOKEN.match
    while m := match(text, pos):
        kind, pos = m.lastgroup, m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
            continue
        word = m[kind]
        if kind == "IDENT" and word in KEYWORDS:
            kind = "KW"
        tokens.append(Token(kind, word, line, pos - len(word) - line_start + 1))
    pos = _BLANKS.match(text, pos).end()
    if pos < len(text):
        message = ("dangling type-variable quote" if text[pos] == "'"
                   else f"unexpected character {text[pos]!r}")
        raise ParseError(message, line, pos - line_start + 1)
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens
