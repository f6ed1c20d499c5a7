"""Text front-end: tokenizer, recursive-descent parser and renderer.

The grammar is the README's "Expression grammar": no implicit
multiplication, and '^' binds tighter than unary minus.  ``parse`` builds
the canonical form directly: each production returns the sparse coefficient
map of what it read, so no tree is built and nothing is flattened later.
The text is read once into a list of token strings, and token offsets are
worked out only when an error is reported.  While a term's product is one
term it is a coefficient and an exponent per atom, and each factor is
merged into them in place; a zero or multi-term factor makes it a map.
A function call whose argument holds no parenthesis is read once per
``parse``: a table that lives for that call alone, keyed by the tag and
the argument's tokens, hands a repeat the first call's atom.  Division is
accepted only when the divisor is a nonzero constant or a single
invertible term.  ``render`` emits deterministic text in the same
grammar; parsing it back gives an equal form, and distinct canonical forms
render to distinct strings.
"""

from __future__ import annotations

import re

from .errors import SourceError, UnsupportedExpression, _digit_count
from .expr import (
    _ONE,
    FUNCTION_TAGS,
    CanonicalForm,
    Expression,
    FunctionAtom,
    _accumulate,
    _atom_key,
    _coeff_inv,
    _coeff_product,
    _invert,
    _multiply,
    _negate,
    _power,
    _subtract,
    canonicalize,
)

# One match per token: a run of the six ASCII space characters, skipped,
# then an ASCII integer, an identifier, an operator or any other single
# character (an error).  Spaces at the end match nothing.  The classes are
# spelled out: \d and \s would also accept non-ASCII digits such as '²' and
# Unicode spaces.
_TOKEN_RE = re.compile(
    r"[ \t\r\n\f\v]*([0-9]+|[A-Za-z][A-Za-z0-9_]*|[-+*/^()]|[^ \t\r\n\f\v])")

# The characters a token may start with.  Deleting them, '_' and the spaces
# from a text leaves its bad characters; '_' is bad only at a token's start.
_TOKEN_STARTS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz+-*/^()"
_ALPHABET = str.maketrans("", "", _TOKEN_STARTS + "_ \t\r\n\f\v")

# Deepest parenthesis nesting ``parse`` accepts, function calls included.
# Parsing and the later walks over forms recurse per level, so this keeps
# deep input a SourceError rather than a RecursionError.
MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text`` and, last, "" for its end.  A bad
    character is reported before any grammar error; the text is scanned
    token by token for one only when it holds a character outside the
    alphabet, or a '_'."""
    if "_" in text or text.translate(_ALPHABET):
        for match in _TOKEN_RE.finditer(text):
            token = match.group(1)
            if token[0] not in _TOKEN_STARTS:
                raise SourceError(match.start(1), "a token", f"character {token!r}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _offset(text: str, index: int) -> int:
    """Offset in ``text`` of its token ``index``; the end's is len(text)."""
    starts = [match.start(1) for match in _TOKEN_RE.finditer(text)]
    starts.append(len(text))
    return starts[index]


def _term_map(coefficient: tuple, exponents: dict) -> dict:
    """The one-term map of a coefficient and an exponent per atom: atoms in
    ``_atom_key`` order, zero exponents dropped."""
    atoms = sorted(exponents, key=_atom_key) if len(exponents) > 1 else exponents
    return {tuple([(a, exponents[a]) for a in atoms if exponents[a]]): coefficient}


class _Parser:
    """Recursive descent over the token strings; every production returns
    the coefficient map of what it read, a new map the parser may still
    change.  A token's first character gives its kind: a digit for an
    integer, a letter for a name, else the operator itself; "" is the end.
    Offsets are worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # Index of the innermost '/' whose divisor is being read; an
        # UnsupportedExpression raised inside it is reported as that division's.
        self.division = None
        self.calls = {}  # tag and argument tokens -> atom; see ``call``

    def error(self, index: int, expected: str) -> SourceError:
        token = self.tokens[index]
        return SourceError(_offset(self.text, index), expected,
                           f"'{token}'" if token else "end of input")

    def integer(self, index: int) -> int:
        token = self.tokens[index]
        try:
            return int(token)
        except ValueError:  # past the interpreter's limit on integer digits
            raise SourceError(_offset(self.text, index),
                              "an integer within the interpreter's digit limit",
                              f"a {len(token)}-digit integer") from None

    def expression(self) -> dict:
        acc = self.term()
        operator = self.tokens[self.pos]
        while operator == "+" or operator == "-":
            self.pos += 1
            term = self.term()
            (_accumulate if operator == "+" else _subtract)(acc, term)
            operator = self.tokens[self.pos]
        return acc

    def term(self) -> dict:
        """A product of factors, each read here, atom and power included.

        While the product is one term it is a coefficient and an exponent
        per atom, and each factor is merged into them; from its first zero
        or multi-term factor on it is a map, multiplied out by ``_multiply``.
        Coefficients are multiplied by ``_coeff_product``, as ``_multiply``
        multiplies two single terms, so each budget error is raised where
        multiplying the factors' maps would raise it."""
        tokens = self.tokens
        coefficient, exponents, product = _ONE, {}, None
        operator = "*"
        while True:
            if operator == "/":
                outer, self.division = self.division, self.pos - 1
            negative = False
            token = tokens[self.pos]
            while token == "-":
                negative = not negative
                self.pos += 1
                token = tokens[self.pos]
            self.pos += 1
            # A name, a function call or a nonzero integer is the term
            # c * atom^e (e = 0 for no atom); a group, a zero or a power of
            # an integer is a map d.
            c, e, d = _ONE, 0, None
            if token[:1].isalpha():
                atom, e = token, 1
                if token in FUNCTION_TAGS:
                    if tokens[self.pos] != "(":
                        raise self.error(self.pos, "'(' after function name")
                    self.pos += 1
                    atom = self.call(token)
            elif token.isdigit():
                value = self.integer(self.pos - 1)
                c = (value, 1)
                if not value or tokens[self.pos] == "^":
                    d = {(): c} if value else {}
            elif token == "(":
                d = self.group(self.pos - 1)
            else:
                raise self.error(self.pos - 1, "an expression")
            if tokens[self.pos] == "^":
                sign = -1 if tokens[self.pos + 1] == "-" else 1
                self.pos += 2 if sign < 0 else 1
                if not tokens[self.pos].isdigit():
                    raise self.error(self.pos, "an integer exponent")
                self.pos += 1
                n = sign * self.integer(self.pos - 1)
                if d is None:
                    e = n
                else:
                    d = _power(d, n)
            if d is None:
                if negative:
                    c = (-c[0], c[1])
                if operator == "/":
                    c, e = _coeff_inv(c), -e
                pairs = ((atom, e),) if e else ()
            else:
                if negative:
                    d = _negate(d)
                if operator == "/":
                    d = _invert(d)
                if product is None and len(d) == 1:
                    (pairs, c), = d.items()
                    d = None
            if operator == "/":
                self.division = outer
            if product is None and d is None:
                if c != _ONE:
                    coefficient = c if coefficient == _ONE else _coeff_product(coefficient, c)
                for a, k in pairs:
                    exponents[a] = exponents.get(a, 0) + k
            else:
                if product is None:
                    product = _term_map(coefficient, exponents)
                product = _multiply(product, {pairs: c} if d is None else d)
            operator = tokens[self.pos]
            if operator != "*" and operator != "/":
                return _term_map(coefficient, exponents) if product is None else product
            self.pos += 1

    def call(self, tag: str) -> FunctionAtom:
        """The atom of the call of ``tag`` whose '(' was just read.  A call
        whose argument holds no parenthesis is read once per parse: a
        repeat of its tag and argument tokens takes the first one's atom and
        jumps past its ')'.  Only below ``MAX_NESTING``, so that a repeat
        skips no depth error."""
        tokens, start = self.tokens, self.pos
        try:
            key = (tag, *tokens[start:tokens.index(")", start)])
        except ValueError:  # no ')' follows, so reading the argument raises
            key = (tag,)
        flat = self.depth < MAX_NESTING and "(" not in key
        atom = self.calls.get(key) if flat else None
        if atom is None:
            atom = FunctionAtom(tag, CanonicalForm(self.group(start - 1)))
            if flat:
                self.calls[key] = atom
        else:
            self.pos = start + len(key)
        return atom

    def group(self, index: int) -> dict:
        """The expression inside the parenthesis at token ``index`` up to its ')'."""
        if self.depth == MAX_NESTING:
            raise self.error(index, f"at most {MAX_NESTING} nested parentheses")
        self.depth += 1
        inner = self.expression()
        if self.tokens[self.pos] != ")":
            raise self.error(self.pos, "')'")
        self.pos += 1
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
        raise UnsupportedExpression(
            f"division at offset {_offset(text, parser.division)}: {exc}") from None
    if parser.tokens[parser.pos]:
        raise parser.error(parser.pos, "end of input")
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
            f"rendering a number of about {_digit_count(n)} digits exceeds the "
            "interpreter's digit limit") from None


def _render_atom(atom) -> str:
    if isinstance(atom, str):
        return atom
    return f"{atom.tag}({_render_form(atom.argument)})"
