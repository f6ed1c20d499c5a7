"""Text front-end: tokenizer, recursive-descent parser and renderer.

Grammar (no implicit multiplication, '^' binds tighter than unary minus):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* atom ('^' signed-integer)?
    atom   := integer | identifier | function '(' expr ')' | '(' expr ')'

Division is accepted only when the divisor canonicalizes to a nonzero
constant or a single invertible term; the tree then holds that reciprocal
as a canonical form leaf.  ``render`` emits deterministic text in
the same grammar; parsing it back gives a canonically equal expression, and
distinct canonical forms render to distinct strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SourceError, UnsupportedExpression
from .expr import (
    FUNCTION_TAGS,
    CanonicalForm,
    Expression,
    FunctionApplication,
    IntegerPower,
    Negation,
    ONE,
    Product,
    RationalConstant,
    Sum,
    Variable,
    canonicalize,
    reciprocal,
)

_OPERATORS = "+-*/^()"
_DIGITS = "0123456789"  # ASCII only: str.isdigit also accepts '²' and the like
_SPACE = " \t\r\n\f\v"

# Deepest parenthesis nesting ``parse`` accepts, function calls included.
# Parsing and the later walks over trees and forms recurse per level, so
# this keeps deep input a SourceError rather than a RecursionError.
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of _OPERATORS | "end"
    text: str
    offset: int


def _describe(token: _Token) -> str:
    if token.kind == "end":
        return "end of input"
    return f"'{token.text}'"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACE:
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(_Token("number", text[start:i], start))
            continue
        if ch.isalpha() and ch.isascii():
            start = i
            while i < n and (text[i].isascii() and (text[i].isalnum() or text[i] == "_")):
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise SourceError(i, "a token", f"character {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, expected: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise SourceError(token.offset, expected, _describe(token))
        return self.advance()

    def expression(self) -> Expression:
        children = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            t = self.term()
            children.append(t if op.kind == "+" else Negation(t))
        if len(children) == 1:
            return children[0]
        return Sum(tuple(children))

    def term(self) -> Expression:
        children = [self.factor()]
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            f = self.factor()
            if op.kind == "*":
                children.append(f)
            else:
                children.append(self._reciprocal_of(f, op.offset))
        if len(children) == 1:
            return children[0]
        return Product(tuple(children))

    def _reciprocal_of(self, divisor: Expression, offset: int) -> Expression:
        try:
            return reciprocal(divisor)
        except UnsupportedExpression as exc:
            raise UnsupportedExpression(f"division at offset {offset}: {exc}") from None

    def factor(self) -> Expression:
        negations = 0
        while self.peek().kind == "-":
            self.advance()
            negations += 1
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.signed_integer()
            node = IntegerPower(node, exponent) if exponent else ONE
        for _ in range(negations):
            node = Negation(node)
        return node

    def signed_integer(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        token = self.expect("number", "an integer exponent")
        return sign * int(token.text)

    def atom(self) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return RationalConstant(Fraction(int(token.text)))
        if token.kind == "name":
            self.advance()
            if token.text in FUNCTION_TAGS:
                opening = self.expect("(", "'(' after function name")
                return FunctionApplication(token.text, self.group(opening))
            return Variable(token.text)
        if token.kind == "(":
            return self.group(self.advance())
        raise SourceError(token.offset, "an expression", _describe(token))

    def group(self, opening: _Token) -> Expression:
        """The expression inside the parenthesis ``opening`` up to its ')'."""
        if self.depth == MAX_NESTING:
            raise SourceError(opening.offset,
                              f"at most {MAX_NESTING} nested parentheses", "'('")
        self.depth += 1
        inner = self.expression()
        self.expect(")", "')'")
        self.depth -= 1
        return inner


def parse(text: str) -> Expression:
    """Parse source text into an expression tree (structure preserved)."""
    parser = _Parser(text)
    result = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise SourceError(trailing.offset, "end of input", _describe(trailing))
    return result


def render(expression: Expression) -> str:
    """Deterministic text for the canonical form of an expression."""
    return _render_form(canonicalize(expression))


def _render_form(form: CanonicalForm) -> str:
    if not form.terms:
        return "0"
    first = form.terms[0]
    pieces = []
    if first.coefficient < 0:
        pieces.append("-" + _render_term(-first.coefficient, first.factors))
    else:
        pieces.append(_render_term(first.coefficient, first.factors))
    for term in form.terms[1:]:
        if term.coefficient < 0:
            pieces.append(" - " + _render_term(-term.coefficient, term.factors))
        else:
            pieces.append(" + " + _render_term(term.coefficient, term.factors))
    return "".join(pieces)


def _render_term(coefficient: Fraction, factors) -> str:
    bits = []
    for atom, e in factors:
        text = _render_atom(atom)
        bits.append(text if e == 1 else f"{text}^{e}")
    if coefficient.numerator != 1 or not bits:
        bits.insert(0, str(coefficient.numerator))
    out = "*".join(bits)
    if coefficient.denominator != 1:
        out += f"/{coefficient.denominator}"
    return out


def _render_atom(atom) -> str:
    if isinstance(atom, str):
        return atom
    return f"{atom.tag}({_render_form(atom.argument)})"
