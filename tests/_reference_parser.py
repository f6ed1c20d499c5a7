"""A frozen copy of the recursive-descent parser that ``invdel.parser``
replaced, kept only as a reference: ``parse`` here must give the map, or
the error type, offset and message, that ``invdel.parse`` gives.

It tokenizes the whole text into (kind, text, offset) tuples first and
reads one factor and one atom per production, multiplying a term's
factors left to right with the kernel's ``_multiply``.  Do not change it
to follow a change of the parser.
"""

from __future__ import annotations

import re

from invdel.errors import SourceError, UnsupportedExpression
from invdel.expr import (
    _ONE,
    FUNCTION_TAGS,
    CanonicalForm,
    FunctionAtom,
    _accumulate,
    _invert,
    _multiply,
    _negate,
    _power,
)
from invdel.parser import MAX_NESTING

_TOKEN_RE = re.compile(
    r"(?P<number>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<space>[ \t\r\n\f\v]+)|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise SourceError(match.start(), "a token", f"character {match.group()!r}")
        token = match.group()
        tokens.append((token if kind == "op" else kind, token, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _describe(token: tuple) -> str:
    return "end of input" if token[0] == "end" else f"'{token[1]}'"


def _integer(token: tuple) -> int:
    try:
        return int(token[1])
    except ValueError:
        raise SourceError(token[2], "an integer within the interpreter's digit limit",
                          f"a {len(token[1])}-digit integer") from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.division = None

    def expect(self, kind: str, expected: str) -> tuple:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise SourceError(token[2], expected, _describe(token))
        self.pos += 1
        return token

    def expression(self) -> dict:
        acc = self.term()
        kind = self.tokens[self.pos][0]
        while kind == "+" or kind == "-":
            self.pos += 1
            term = self.term()
            _accumulate(acc, term if kind == "+" else _negate(term))
            kind = self.tokens[self.pos][0]
        return acc

    def term(self) -> dict:
        acc = self.factor()
        kind, _, offset = self.tokens[self.pos]
        while kind == "*" or kind == "/":
            self.pos += 1
            if kind == "*":
                factor = self.factor()
            else:
                outer, self.division = self.division, offset
                factor = _invert(self.factor())
                self.division = outer
            acc = _multiply(acc, factor)
            kind, _, offset = self.tokens[self.pos]
        return acc

    def factor(self) -> dict:
        negations = 0
        while self.tokens[self.pos][0] == "-":
            self.pos += 1
            negations += 1
        d = self.atom()
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            d = _power(d, self.signed_integer())
        return _negate(d) if negations & 1 else d

    def signed_integer(self) -> int:
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        return sign * _integer(self.expect("number", "an integer exponent"))

    def atom(self) -> dict:
        token = self.tokens[self.pos]
        kind, text, offset = token
        if kind == "number":
            self.pos += 1
            value = _integer(token)
            return {(): (value, 1)} if value else {}
        if kind == "name":
            self.pos += 1
            if text in FUNCTION_TAGS:
                opening = self.expect("(", "'(' after function name")
                argument = CanonicalForm(self.group(opening[2]))
                return {((FunctionAtom(text, argument), 1),): _ONE}
            return {((text, 1),): _ONE}
        if kind == "(":
            self.pos += 1
            return self.group(offset)
        raise SourceError(offset, "an expression", _describe(token))

    def group(self, offset: int) -> dict:
        if self.depth == MAX_NESTING:
            raise SourceError(offset, f"at most {MAX_NESTING} nested parentheses", "'('")
        self.depth += 1
        inner = self.expression()
        self.expect(")", "')'")
        self.depth -= 1
        return inner


def parse(text: str) -> CanonicalForm:
    parser = _Parser(text)
    try:
        result = parser.expression()
    except UnsupportedExpression as exc:
        if parser.division is None:
            raise
        raise UnsupportedExpression(f"division at offset {parser.division}: {exc}") from None
    trailing = parser.tokens[parser.pos]
    if trailing[0] != "end":
        raise SourceError(trailing[2], "end of input", _describe(trailing))
    return CanonicalForm(result)
