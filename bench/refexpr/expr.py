"""Exact symbolic expression kernel.

Trees are built from rational constants, named variables, sums, products,
integer powers and the four function tags sin/cos/exp/ln.  ``canonicalize``
flattens a tree into a deterministic fully distributed sum of terms; canonical
forms back equality tests, rendering and the contains-variable split used by
the integral operators.  Coefficient arithmetic is exact everywhere; floats
appear only inside ``eval_numeric``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from typing import Iterable, Mapping, Union

from .errors import DomainError, UnboundVariable, UnsupportedExpression

FUNCTION_TAGS = ("sin", "cos", "exp", "ln")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

RationalLike = Union[int, Fraction]


class Expression:
    """Base class for immutable expression tree nodes.

    Operators build new trees without simplifying; ``==`` is structural.
    Use ``equals`` for mathematical equality.
    """

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Negation(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Negation(self)))

    def __mul__(self, other):
        return Product((self, _coerce(other)))

    def __rmul__(self, other):
        return Product((_coerce(other), self))

    def __neg__(self):
        return Negation(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent == 0:
            return ONE
        return IntegerPower(self, exponent)

    def __truediv__(self, other):
        if isinstance(other, RationalConstant):
            other = other.value
        if not isinstance(other, (int, Fraction)):
            raise TypeError("can only divide by a rational constant; "
                            "use reciprocal() for invertible expressions")
        return Product((self, RationalConstant(Fraction(1, 1) / other)))


def _coerce(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalConstant(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


@dataclass(frozen=True)
class RationalConstant(Expression):
    """Exact rational literal; Fraction keeps it in lowest terms."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Variable(Expression):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")
        if self.name in FUNCTION_TAGS:
            raise ValueError(f"{self.name!r} is a reserved function name")


@dataclass(frozen=True)
class Sum(Expression):
    children: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Sum needs at least two children")


@dataclass(frozen=True)
class Product(Expression):
    children: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Product needs at least two children")


@dataclass(frozen=True)
class IntegerPower(Expression):
    base: Expression
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent == 0:
            raise ValueError("exponent must be a nonzero integer")


@dataclass(frozen=True)
class FunctionApplication(Expression):
    tag: str
    argument: Expression

    def __post_init__(self):
        if self.tag not in FUNCTION_TAGS:
            raise ValueError(f"unknown function tag {self.tag!r}")


@dataclass(frozen=True)
class Negation(Expression):
    child: Expression


ZERO = RationalConstant(Fraction(0))
ONE = RationalConstant(Fraction(1))


def var(name: str) -> Variable:
    return Variable(name)


def num(numerator: RationalLike, denominator: int = 1) -> RationalConstant:
    return RationalConstant(Fraction(numerator, denominator))


def sin(argument) -> FunctionApplication:
    return FunctionApplication("sin", _coerce(argument))


def cos(argument) -> FunctionApplication:
    return FunctionApplication("cos", _coerce(argument))


def exp(argument) -> FunctionApplication:
    return FunctionApplication("exp", _coerce(argument))


def ln(argument) -> FunctionApplication:
    return FunctionApplication("ln", _coerce(argument))


def sum_of(parts: Iterable[Expression]) -> Expression:
    """Sum of any number of expressions; empty -> 0, singleton -> the part."""
    kept = [p for p in parts if not _is_zero_literal(p)]
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Sum(tuple(kept))


def product_of(parts: Iterable[Expression]) -> Expression:
    """Product of any number of expressions; empty -> 1, singleton -> the part."""
    parts = list(parts)
    if any(_is_zero_literal(p) for p in parts):
        return ZERO
    kept = [p for p in parts if not (isinstance(p, RationalConstant) and p.value == 1)]
    if not kept:
        return ONE
    if len(kept) == 1:
        return kept[0]
    return Product(tuple(kept))


def _is_zero_literal(e: Expression) -> bool:
    return isinstance(e, RationalConstant) and e.value == 0


# --- canonical form -------------------------------------------------------

@dataclass(frozen=True)
class FunctionAtom:
    """Opaque function occurrence keyed by its canonicalized argument."""

    tag: str
    argument: "CanonicalForm"


Atom = Union[str, FunctionAtom]
Factors = "tuple[tuple[Atom, int], ...]"


@dataclass(frozen=True)
class Term:
    """One canonical term: exact coefficient times ordered atom powers."""

    coefficient: Fraction
    factors: tuple


@dataclass(frozen=True)
class CanonicalForm:
    """Ordered, fully distributed sum of terms; () is the zero form."""

    terms: tuple

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not t.factors for t in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0].factors:
            return self.terms[0].coefficient
        raise ValueError("canonical form is not a rational constant")


@lru_cache(maxsize=None)
def _atom_key(atom):
    if isinstance(atom, str):
        return (atom, 0, ())
    return (atom.tag, 1, _form_key(atom.argument))


def _form_key(form: CanonicalForm):
    return tuple(
        (t.coefficient, tuple((_atom_key(a), e) for a, e in t.factors))
        for t in form.terms
    )


def _term_order(t1: Term, t2: Term) -> int:
    # Descending lexicographic order on exponent vectors, atoms ascending:
    # x^2 sorts before the constant term, x*y*z before y^2.
    f1, f2 = t1.factors, t2.factors
    for (a1, e1), (a2, e2) in zip(f1, f2):
        k1, k2 = _atom_key(a1), _atom_key(a2)
        if k1 != k2:
            if k1 < k2:
                return -1 if e1 > 0 else 1
            return 1 if e2 > 0 else -1
        if e1 != e2:
            return -1 if e1 > e2 else 1
    if len(f1) != len(f2):
        if len(f1) > len(f2):
            return -1 if f1[len(f2)][1] > 0 else 1
        return 1 if f2[len(f1)][1] > 0 else -1
    return 0


def _merge_factors(f1, f2):
    out = []
    i = j = 0
    while i < len(f1) and j < len(f2):
        a1, e1 = f1[i]
        a2, e2 = f2[j]
        k1, k2 = _atom_key(a1), _atom_key(a2)
        if k1 == k2:
            e = e1 + e2
            if e:
                out.append((a1, e))
            i += 1
            j += 1
        elif k1 < k2:
            out.append((a1, e1))
            i += 1
        else:
            out.append((a2, e2))
            j += 1
    out.extend(f1[i:])
    out.extend(f2[j:])
    return tuple(out)


def _accumulate(acc: dict, extra: dict) -> None:
    for factors, coeff in extra.items():
        total = acc.get(factors, Fraction(0)) + coeff
        if total:
            acc[factors] = total
        else:
            acc.pop(factors, None)


def _scale(d: dict, k: Fraction) -> dict:
    if not k:
        return {}
    return {f: c * k for f, c in d.items()}


def _multiply(d1: dict, d2: dict) -> dict:
    if not d1 or not d2:
        return {}
    acc: dict = {}
    for f1, c1 in d1.items():
        for f2, c2 in d2.items():
            f = _merge_factors(f1, f2)
            total = acc.get(f, Fraction(0)) + c1 * c2
            if total:
                acc[f] = total
            else:
                acc.pop(f, None)
    return acc


def _invert(d: dict) -> dict:
    if not d:
        raise UnsupportedExpression("reciprocal of zero")
    if len(d) > 1:
        raise UnsupportedExpression(
            "reciprocal of a multi-term expression is outside the term algebra")
    (factors, coeff), = d.items()
    return {tuple((a, -e) for a, e in factors): 1 / coeff}


def _power(d: dict, n: int) -> dict:
    if n < 0:
        return _power(_invert(d), -n)
    result = {(): Fraction(1)}
    base = d
    while n:
        if n & 1:
            result = _multiply(result, base)
        n >>= 1
        if n:
            base = _multiply(base, base)
    return result


def _canon(e: Expression) -> dict:
    if isinstance(e, RationalConstant):
        return {(): e.value} if e.value else {}
    if isinstance(e, Variable):
        return {((e.name, 1),): Fraction(1)}
    if isinstance(e, Negation):
        return _scale(_canon(e.child), Fraction(-1))
    if isinstance(e, Sum):
        acc: dict = {}
        for child in e.children:
            _accumulate(acc, _canon(child))
        return acc
    if isinstance(e, Product):
        return reduce(_multiply, (_canon(c) for c in e.children))
    if isinstance(e, IntegerPower):
        return _power(_canon(e.base), e.exponent)
    if isinstance(e, FunctionApplication):
        atom = FunctionAtom(e.tag, _finalize(_canon(e.argument)))
        return {((atom, 1),): Fraction(1)}
    raise TypeError(f"not an expression node: {e!r}")


def _finalize(d: dict) -> CanonicalForm:
    terms = [Term(c, f) for f, c in d.items() if c]
    terms.sort(key=cmp_to_key(_term_order))
    return CanonicalForm(tuple(terms))


def canonicalize(expression: Expression) -> CanonicalForm:
    """Flatten a tree into its canonical sum-of-terms form.

    Equal expressions produce identical forms; the zero expression produces
    the empty form.  Raises UnsupportedExpression for reciprocals that the
    term algebra cannot represent (negative powers of multi-term sums).
    """
    return _finalize(_canon(expression))


def equals(e1: Expression, e2: Expression) -> bool:
    """Mathematical equality within the supported class."""
    return canonicalize(e1) == canonicalize(e2)


def is_zero(expression: Expression) -> bool:
    return canonicalize(expression).is_zero()


def expression_of(form: CanonicalForm) -> Expression:
    """Deterministic expression tree spelling of a canonical form."""
    if not form.terms:
        return ZERO
    return sum_of([_term_expression(t) for t in form.terms])


def _term_expression(term: Term) -> Expression:
    parts: list[Expression] = []
    if term.coefficient != 1 or not term.factors:
        parts.append(RationalConstant(term.coefficient))
    for atom, e in term.factors:
        ae = _atom_expression(atom)
        parts.append(ae if e == 1 else IntegerPower(ae, e))
    return product_of(parts)


def _atom_expression(atom: Atom) -> Expression:
    if isinstance(atom, str):
        return Variable(atom)
    return FunctionApplication(atom.tag, expression_of(atom.argument))


def reciprocal(expression: Expression) -> Expression:
    """1/expression as a tree, when the canonical form is a single term."""
    form = canonicalize(expression)
    inverted = _invert({t.factors: t.coefficient for t in form.terms})
    return expression_of(_finalize(inverted))


def form_contains(form: CanonicalForm, name: str) -> bool:
    """True iff the variable occurs in any term, including function arguments."""
    return any(_term_contains(t, name) for t in form.terms)


def _term_contains(term: Term, name: str) -> bool:
    return any(_atom_contains(a, name) for a, _ in term.factors)


def _atom_contains(atom: Atom, name: str) -> bool:
    if isinstance(atom, str):
        return atom == name
    return form_contains(atom.argument, name)


def form_has_variables(form: CanonicalForm) -> bool:
    """True iff any variable at all occurs in the form."""
    for term in form.terms:
        for atom, _ in term.factors:
            if isinstance(atom, str) or form_has_variables(atom.argument):
                return True
    return False


def substitute(expression: Expression, name: str, value) -> Expression:
    """Replace every occurrence of the variable, including inside function
    arguments.  The replacement may itself be any expression."""
    value = _coerce(value)

    def walk(e: Expression) -> Expression:
        if isinstance(e, Variable):
            return value if e.name == name else e
        if isinstance(e, RationalConstant):
            return e
        if isinstance(e, Sum):
            return Sum(tuple(walk(c) for c in e.children))
        if isinstance(e, Product):
            return Product(tuple(walk(c) for c in e.children))
        if isinstance(e, IntegerPower):
            return IntegerPower(walk(e.base), e.exponent)
        if isinstance(e, Negation):
            return Negation(walk(e.child))
        if isinstance(e, FunctionApplication):
            return FunctionApplication(e.tag, walk(e.argument))
        raise TypeError(f"not an expression node: {e!r}")

    return walk(expression)


def free_variables(expression: Expression) -> frozenset[str]:
    names: set[str] = set()

    def walk(e: Expression) -> None:
        if isinstance(e, Variable):
            names.add(e.name)
        elif isinstance(e, Sum) or isinstance(e, Product):
            for c in e.children:
                walk(c)
        elif isinstance(e, IntegerPower):
            walk(e.base)
        elif isinstance(e, Negation):
            walk(e.child)
        elif isinstance(e, FunctionApplication):
            walk(e.argument)

    walk(expression)
    return frozenset(names)


def eval_numeric(expression: Expression, point: Mapping[str, float]) -> float:
    """Evaluate at a point (name -> number).  Exact up to float rounding.

    Raises UnboundVariable for missing names and DomainError when the value
    leaves the real domain (ln of a non-positive number, 0**-n, overflow).
    """
    if isinstance(expression, RationalConstant):
        return float(expression.value)
    if isinstance(expression, Variable):
        try:
            return float(point[expression.name])
        except KeyError:
            raise UnboundVariable(expression.name) from None
    if isinstance(expression, Sum):
        return math.fsum(eval_numeric(c, point) for c in expression.children)
    if isinstance(expression, Product):
        result = 1.0
        for c in expression.children:
            result *= eval_numeric(c, point)
        return result
    if isinstance(expression, IntegerPower):
        base = eval_numeric(expression.base, point)
        try:
            return base ** expression.exponent
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power") from None
        except OverflowError:
            raise DomainError("power overflow") from None
    if isinstance(expression, Negation):
        return -eval_numeric(expression.child, point)
    if isinstance(expression, FunctionApplication):
        arg = eval_numeric(expression.argument, point)
        tag = expression.tag
        if tag == "sin":
            return math.sin(arg)
        if tag == "cos":
            return math.cos(arg)
        if tag == "exp":
            try:
                return math.exp(arg)
            except OverflowError:
                raise DomainError("exp overflow") from None
        if arg <= 0.0:
            raise DomainError(f"ln of non-positive value {arg}")
        return math.log(arg)
    raise TypeError(f"not an expression node: {expression!r}")
