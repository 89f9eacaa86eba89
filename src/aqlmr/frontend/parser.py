"""Recursive-descent parser for aggregation queries.

Grammar (keywords case-insensitive, comma after the last partition item
tolerated):

    query  := "select" ident "(" ident ")" "from" source [where] shape
    source := ident
            | "between" "(" ident ("," int)+ ")"
    where  := "where" cmp ("and" cmp)*
    cmp    := ident op number            op: < <= > >= = <>
    shape  := grid | window | hier | circ
    grid   := "grid" "as" "(" "partition" "by" (ident int [","])+ ")"
    window := "fixed" "window" "as" "(" "partition" "by"
              (ident int "preceding" "and" int "following" [","])+
              ["stride" int] ")"
    hier   := "hierarchical" "as" "(" "radius" int "step" int ")"
    circ   := "circular" "as" "(" "radius" int "step" int ")"
"""

from __future__ import annotations

from ..predicate import Comparison
from .lexer import LexError, Token, tokenize
from .nodes import (
    CircularClause,
    GridClause,
    HierarchicalClause,
    QueryAst,
    Source,
    WindowClause,
)


class ParseError(Exception):
    def __init__(self, message: str, token: Token | None = None) -> None:
        if token is not None:
            message = f"{message} at line {token.line}, column {token.col}"
        super().__init__(message)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            got = self.current.text or self.current.kind
            raise ParseError(f"expected {want!r}, found {got!r}", self.current)
        return tok

    def expect_keyword(self, word: str) -> Token:
        return self.expect("keyword", word)

    def expect_ident(self) -> str:
        return self.expect("ident").text

    def expect_int(self) -> int:
        tok = self.current
        if tok.kind != "int":
            raise ParseError(f"expected integer, found {tok.text or tok.kind!r}", tok)
        self.advance()
        return tok.value  # type: ignore[return-value]

    def expect_number(self) -> int | float:
        tok = self.current
        if tok.kind not in ("int", "float"):
            raise ParseError(f"expected number, found {tok.text or tok.kind!r}", tok)
        self.advance()
        return tok.value  # type: ignore[return-value]

    # -- grammar rules ---------------------------------------------------

    def query(self) -> QueryAst:
        self.expect_keyword("select")
        agg = self.expect_ident()
        self.expect("lparen")
        arg = self.expect_ident()
        self.expect("rparen")
        self.expect_keyword("from")
        source = self.source()
        where = self.where_clause()
        shape = self.shape_clause()
        self.expect("eof")
        return QueryAst(agg, arg, source, where, shape)

    def source(self) -> Source:
        if self.accept("keyword", "between"):
            self.expect("lparen")
            name = self.expect_ident()
            coords = []
            while self.accept("comma"):
                coords.append(self.expect_int())
            open_tok = self.expect("rparen")
            if not coords:
                raise ParseError("between needs box coordinates", open_tok)
            if len(coords) % 2 != 0:
                raise ParseError(
                    f"between needs an even number of coordinates, got {len(coords)}",
                    open_tok,
                )
            return Source(name, tuple(coords))
        return Source(self.expect_ident())

    def where_clause(self) -> tuple[Comparison, ...] | None:
        if not self.accept("keyword", "where"):
            return None
        cmps = [self.comparison()]
        while self.accept("keyword", "and"):
            cmps.append(self.comparison())
        return tuple(cmps)

    def comparison(self) -> Comparison:
        attr = self.expect_ident()
        op = self.expect("op").text
        return Comparison(attr, op, self.expect_number())

    def shape_clause(self):
        tok = self.current
        if self.accept("keyword", "grid"):
            return self.grid_body()
        if self.accept("keyword", "fixed"):
            self.expect_keyword("window")
            return self.window_body()
        if self.accept("keyword", "hierarchical"):
            return HierarchicalClause(*self.ring_body())
        if self.accept("keyword", "circular"):
            return CircularClause(*self.ring_body())
        raise ParseError(
            "missing shape clause (expected grid, fixed window, hierarchical, or circular)",
            tok,
        )

    def grid_body(self) -> GridClause:
        self.expect_keyword("as")
        self.expect("lparen")
        self.expect_keyword("partition")
        self.expect_keyword("by")
        items = self.dimension_items(lambda: (self.expect_ident(), self.expect_int()))
        self.expect("rparen")
        return GridClause(items)

    def window_body(self) -> WindowClause:
        self.expect_keyword("as")
        self.expect("lparen")
        self.expect_keyword("partition")
        self.expect_keyword("by")
        items = self.dimension_items(self.window_item)
        stride = None
        if self.accept("keyword", "stride"):
            stride = self.expect_int()
        self.expect("rparen")
        return WindowClause(items, stride)

    def dimension_items(self, item) -> tuple:
        """One or more per-dimension items; commas between them and after the
        last one are optional."""
        items = [item()]
        while True:
            if self.accept("comma"):
                if self.current.kind != "ident":
                    break  # trailing comma
                items.append(item())
            elif self.current.kind == "ident":
                items.append(item())
            else:
                break
        return tuple(items)

    def window_item(self) -> tuple[str, int, int]:
        name = self.expect_ident()
        preceding = self.expect_int()
        self.expect_keyword("preceding")
        self.expect_keyword("and")
        following = self.expect_int()
        self.expect_keyword("following")
        return (name, preceding, following)

    def ring_body(self) -> tuple[int, int]:
        self.expect_keyword("as")
        self.expect("lparen")
        self.expect_keyword("radius")
        radius = self.expect_int()
        self.expect_keyword("step")
        step = self.expect_int()
        self.expect("rparen")
        return radius, step


def _parser(text: str) -> _Parser:
    try:
        return _Parser(tokenize(text))
    except LexError as exc:
        raise ParseError(str(exc)) from exc


def parse(text: str) -> QueryAst:
    return _parser(text).query()


def _whole(text: str, rule):
    """Read ``text`` with one grammar rule, and nothing else."""
    parser = _parser(text)
    value = rule(parser)
    parser.expect("eof")
    return value


def parse_comparison(text: str) -> Comparison:
    """Read one ``where`` condition, ``ident op number``, and nothing else."""
    return _whole(text, _Parser.comparison)


def parse_int(text: str) -> int:
    """Read one integer as query text writes it, and nothing else."""
    return _whole(text, _Parser.expect_int)


def parse_number(text: str) -> int | float:
    """Read one number as query text writes it, and nothing else."""
    return _whole(text, _Parser.expect_number)
