"""Text front-end: tokenizer, recursive-descent parser and renderer.

Grammar (no implicit multiplication, '^' binds tighter than unary minus):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* atom ('^' signed-integer)?
    atom   := integer | identifier | function '(' expr ')' | '(' expr ')'

``parse`` builds the canonical form directly: each production returns the
sparse coefficient map of what it read, so no tree is built and nothing is
flattened later.  Division is accepted only when the divisor is a nonzero
constant or a single invertible term.  ``render`` emits deterministic text in
the same grammar; parsing it back gives an equal form, and distinct canonical
forms render to distinct strings.
"""

from __future__ import annotations

import re

from .errors import SourceError, UnsupportedExpression
from .expr import (
    _LOG10_2,
    _ONE,
    FUNCTION_TAGS,
    CanonicalForm,
    Expression,
    FunctionAtom,
    _accumulate,
    _invert,
    _multiply,
    _negate,
    _power,
    canonicalize,
)

# One token per match: an ASCII integer, an identifier, an operator, a run of
# the six ASCII space characters (skipped) or any other single character (an
# error).  The classes are spelled out: \d and \s would also accept non-ASCII
# digits such as '²' and Unicode spaces.
_TOKEN_RE = re.compile(
    r"(?P<number>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<space>[ \t\r\n\f\v]+)|(?P<bad>.)", re.DOTALL)

# Deepest parenthesis nesting ``parse`` accepts, function calls included.
# Parsing and the later walks over forms recurse per level, so this keeps
# deep input a SourceError rather than a RecursionError.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, offset) tuples; kind is "number", "name", the operator
    character itself or, last, "end".  The whole text is read first, so a
    bad character is reported before any grammar error."""
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
    except ValueError:  # past the interpreter's limit on integer digits
        raise SourceError(token[2], "an integer within the interpreter's digit limit",
                          f"a {len(token[1])}-digit integer") from None


class _Parser:
    """Recursive descent over the token list; every production returns the
    coefficient map of what it read, a new map the parser may still change."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # Offset of the innermost '/' whose divisor is being read; an
        # UnsupportedExpression raised inside it is reported as that division's.
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
        """The expression inside the parenthesis at ``offset`` up to its ')'."""
        if self.depth == MAX_NESTING:
            raise SourceError(offset, f"at most {MAX_NESTING} nested parentheses", "'('")
        self.depth += 1
        inner = self.expression()
        self.expect(")", "')'")
        self.depth -= 1
        return inner


def parse(text: str) -> CanonicalForm:
    """Parse source text into its canonical form."""
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


def render(expression: Expression) -> str:
    """Deterministic text for the canonical form of an expression."""
    return _render_form(canonicalize(expression))


def _render_form(form: CanonicalForm) -> str:
    pieces = []
    for factors, (numerator, denominator) in form.terms:
        sign = (" - " if pieces else "-") if numerator < 0 else (" + " if pieces else "")
        pieces.append(sign + _render_term(abs(numerator), denominator, factors))
    return "".join(pieces) or "0"


def _render_term(numerator: int, denominator: int, factors) -> str:
    bits = []
    for atom, e in factors:
        text = _render_atom(atom)
        bits.append(text if e == 1 else f"{text}^{_digits(e)}")
    if numerator != 1 or not bits:
        bits.insert(0, _digits(numerator))
    out = "*".join(bits)
    if denominator != 1:
        out += f"/{_digits(denominator)}"
    return out


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's limit on integer digits
        raise UnsupportedExpression(
            f"rendering a number of about {int(abs(n).bit_length() * _LOG10_2) + 1} "
            "digits exceeds the interpreter's digit limit") from None


def _render_atom(atom) -> str:
    if isinstance(atom, str):
        return atom
    return f"{atom.tag}({_render_form(atom.argument)})"
