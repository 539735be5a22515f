"""Character-by-character tokenizer: the oracle for ``unfold.dsl.lexer``.

This is the lexer as it was written before the single-regex scanner, kept
as a straight loop over characters so that the scanner can be checked
against it. Word, digit and space classes are the ASCII ones the README
documents: on ASCII text both lexers must give the same tokens, or fail
with the same message at the same position.
"""

from __future__ import annotations

from unfold.dsl.lexer import _PUNCT, KEYWORDS
from unfold.errors import ParseError

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"


def _is_ident_start(ch: str) -> bool:
    return ch in _LETTERS or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch in _LETTERS or ch in _DIGITS or ch in "_'"


def tokenize(text: str) -> list[tuple]:
    """(kind, text, line, column) for each token, ending with ``EOF``."""
    tokens: list[tuple] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isascii() and ch.isspace():
            col += 1
            i += 1
            continue
        start_line, start_col = line, col
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "KW" if word in KEYWORDS else "IDENT"
            tokens.append((kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "'":
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("dangling type-variable quote", line, col)
            tokens.append(("TYVAR", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(("PUNCT", punct, start_line, start_col))
                col += len(punct)
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens
