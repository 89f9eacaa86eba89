"""Tokenizer for the query language.

Keywords are case-insensitive; identifiers keep their spelling. Numbers are
int when the text has no fraction or exponent, float otherwise; a literal
too large for a double, int or float, is an error, not infinity, so every
number has a finite float64 neighbour for the exact comparisons of
predicate.py. Every token carries line and column (1-based) for error
reports.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

KEYWORDS = frozenset(
    {
        "select",
        "from",
        "between",
        "where",
        "and",
        "grid",
        "as",
        "partition",
        "by",
        "fixed",
        "window",
        "preceding",
        "following",
        "stride",
        "hierarchical",
        "circular",
        "radius",
        "step",
    }
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?P<frac>\.\d+)?(?P<exp>[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|[<>=])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
    """,
    re.VERBOSE,
)


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # keyword | ident | int | float | op | lparen | rparen | comma | eof
    text: str
    value: int | float | None
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = m.start() - line_start + 1
        kind = m.lastgroup
        raw = m.group()
        if kind == "ws":
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + raw.rfind("\n") + 1
        elif kind == "number":
            value = float(raw)
            if math.isinf(value):
                raise LexError(f"number {raw!r} is out of range", line, col)
            if m.group("frac") or m.group("exp"):
                tokens.append(Token("float", raw, value, line, col))
            else:
                # int() refuses over 4300 digits; a finite value has at most
                # 309 once leading zeros go
                digits = raw.lstrip("-").lstrip("0") or "0"
                sign = -1 if raw.startswith("-") else 1
                tokens.append(Token("int", raw, sign * int(digits), line, col))
        elif kind == "ident":
            lowered = raw.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, None, line, col))
            else:
                tokens.append(Token("ident", raw, None, line, col))
        elif kind == "op":
            tokens.append(Token("op", raw, None, line, col))
        else:
            tokens.append(Token(kind, raw, None, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens
