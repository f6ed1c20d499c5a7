"""Single-variable calculus on canonical forms.

Every operator here takes and returns canonical forms.

``differentiate`` works term by term: the product rule over a term's atom
powers, and the chain rule through each function atom whose argument
contains the variable.  ``ln(u)`` differentiates to ``u'/u``, so it raises
UnsupportedExpression when ``u`` has more than one term.

``antidifferentiate`` works term by term too and only accepts terms of the
shape

    coefficient * monomial * (at most one sin/cos/exp factor whose argument
    is linear in the integration variable with a rational slope)

where the variable appears either in the monomial or in the function
argument, not both.  Everything else raises NotIntegrable, which carries
the first such term in canonical order and writes its own message.  The
zero integration constant is chosen everywhere, so differentiating the
result gives back the integrand exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import NotIntegrable, UnsupportedExpression
from .expr import (
    _ONE,
    CanonicalForm,
    Expression,
    Frozen,
    FunctionAtom,
    _accumulate,
    _add_term,
    _check_pair_count,
    _coeff_inv,
    _coeff_mul,
    _coeff_product,
    _merge_factors,
    _multiply,
    atom_power,
    canonicalize,
    factors_contain,
)


class SplitPair(Frozen):
    """Terms containing the split variable (plus) and the rest (minus)."""

    __slots__ = ("plus_part", "minus_part")

    def __init__(self, plus_part: CanonicalForm, minus_part: CanonicalForm):
        self._init(plus_part, minus_part)


def split_by_variable(expression: Expression, name: str) -> SplitPair:
    """Partition the canonical terms by whether they contain the variable.

    The two parts add back to the input canonically.
    """
    plus: dict = {}
    minus: dict = {}
    for factors, coefficient in canonicalize(expression).items():
        (plus if factors_contain(factors, name) else minus)[factors] = coefficient
    return SplitPair(CanonicalForm(plus), CanonicalForm(minus))


def differentiate(expression: Expression, name: str) -> CanonicalForm:
    """Partial derivative with respect to the named variable."""
    return _derivative(canonicalize(expression), name)


def _derivative(form: CanonicalForm, name: str) -> CanonicalForm:
    acc: dict = {}
    for factors, coefficient in form.items():
        for i, (atom, e) in enumerate(factors):
            if isinstance(atom, str):
                if atom != name:
                    continue
                chain = None
            elif name in atom.variables:
                chain = _outer_derivative(atom) * _derivative(atom.argument, name)
            else:
                continue
            lowered = ((atom, e - 1),) if e != 1 else ()
            piece = {factors[:i] + lowered + factors[i + 1:]:
                     coefficient if e == 1 else _coeff_mul(coefficient, (e, 1))}
            _accumulate(acc, piece if chain is None else _multiply(piece, chain._map))
    return CanonicalForm(acc)


def _outer_derivative(atom: FunctionAtom) -> CanonicalForm:
    """d tag(u)/du at u = the atom's argument."""
    if atom.tag == "sin":
        return atom_power(FunctionAtom("cos", atom.argument))
    if atom.tag == "cos":
        return -atom_power(FunctionAtom("sin", atom.argument))
    if atom.tag == "exp":
        return atom_power(atom)
    return atom.argument ** -1


def antidifferentiate(expression: Expression, name: str) -> CanonicalForm:
    """Antiderivative with zero integration constant.

    Raises NotIntegrable (carrying the offending term) when any canonical
    term falls outside the supported class.  The terms are integrated in map
    order; only a refusal sorts them, to name the first offender in
    canonical order.
    """
    form = canonicalize(expression)
    acc: dict = {}
    for factors, coefficient in form.items():
        term = _integrate_term(factors, coefficient, name)
        if term is None:
            raise _not_integrable(form, name)
        _add_term(acc, *term)
    return CanonicalForm(acc)


def _integrate_term(factors: tuple, coefficient: tuple, name: str):
    """The antiderivative of one term as a (factors, coefficient) pair, or
    None when the term is outside the supported class."""
    place = carrier = None  # where the variable's power and its function atom are
    for index, (atom, e) in enumerate(factors):
        if atom.__class__ is str:
            if atom == name:
                place = index
        elif name in atom.variables:
            if carrier is not None:
                return None
            carrier = index

    if carrier is not None:
        atom, e = factors[carrier]
        if place is not None or atom.tag == "ln" or e != 1:
            return None
        slope = _linear_slope(atom.argument, name)
        if slope is None:
            return None
        coefficient = _coeff_mul(coefficient, _coeff_inv(slope))
        if atom.tag == "exp":
            return factors, coefficient
        if atom.tag == "sin":
            outer = FunctionAtom("cos", atom.argument)
            coefficient = (-coefficient[0], coefficient[1])
        else:
            outer = FunctionAtom("sin", atom.argument)
        rest = factors[:carrier] + factors[carrier + 1:]
        return _merge_factors(rest, ((outer, 1),)), coefficient

    if place is None:
        return _merge_factors(factors, ((name, 1),)), coefficient
    e = factors[place][1] + 1
    if e == 0:
        log = FunctionAtom("ln", atom_power(name))
        return _merge_factors(factors[:place] + factors[place + 1:], ((log, 1),)), coefficient
    # The variable's new power keeps its place.
    return (factors[:place] + ((name, e),) + factors[place + 1:],
            _coeff_mul(coefficient, _coeff_inv((e, 1))))


def _linear_slope(argument: CanonicalForm, name: str) -> tuple | None:
    """Rational slope of the variable when the argument is affine in it."""
    carriers = [(f, c) for f, c in argument.items() if factors_contain(f, name)]
    if len(carriers) != 1:
        return None
    factors, coefficient = carriers[0]
    if factors != ((name, 1),):
        return None
    return coefficient


def _not_integrable(form: CanonicalForm, name: str, first: str | None = None) -> NotIntegrable:
    """The refusal of ``form``, naming its first term outside the supported class
    in canonical order, with the terms containing ``first``, if given, moved ahead."""
    terms = form.terms
    if first is not None:
        terms = sorted(terms, key=lambda t: not factors_contain(t[0], first))
    factors, coefficient = next(t for t in terms if _integrate_term(*t, name) is None)
    return NotIntegrable(CanonicalForm({factors: coefficient}), name)


def weighted_split_integral(
    expression: Expression,
    split_var: str,
    int_var: str,
    w_plus: Union[int, Fraction],
    w_minus: Union[int, Fraction],
) -> CanonicalForm:
    """Split by one variable, integrate both parts in another, recombine.

    Returns w_plus * antiderivative(part containing split_var)
          + w_minus * antiderivative(part without split_var),
    both antiderivatives taken with respect to int_var: one slot of
    ``_weighted_walk``, which the inverse curl runs with two slots per
    integrand.  It raises what forming the two weighted products would: a
    refusal first, naming the term that ``antidifferentiate`` names on the
    part containing split_var, else the rest; then, for the plus part and
    then the rest, the term-pair budget and the coefficient budget.
    """
    acc: dict = {}
    _weighted_walk(canonicalize(expression), split_var, w_plus, w_minus,
                   ((int_var, acc, False),))(0)
    return CanonicalForm(acc)


def _weighted_walk(form: CanonicalForm, split_var: str, w_plus, w_minus, slots):
    """Weighted split integrals of ``form`` sharing its split variable and
    weights, in one walk over its terms.

    Each slot (name, acc, negate) adds W(form; split_var, d name), negated
    when ``negate``, into the map ``acc``.  Each term is classified once, by
    whether it contains split_var, which picks its weight, integrated once
    per slot and scaled by ``_coeff_product``, whose estimates over a part's
    terms come to the estimate of the part's product.  The walk raises
    nothing: the returned ``check(s)`` raises what slot s's W would, and a
    slot with an error may have added some of its terms.  A part's pair
    count is its number of terms, since integration in one variable keeps
    distinct terms distinct.
    """
    weights = tuple((w.numerator, w.denominator) if w else None for w in (w_plus, w_minus))
    counts = [0, 0]
    refused = [False] * len(slots)
    over = [[None, None] for _ in slots]  # a coefficient budget error per part
    for factors, coefficient in form.items():
        part = 0 if factors_contain(factors, split_var) else 1
        counts[part] += 1
        weight = weights[part]
        for s, (name, acc, negate) in enumerate(slots):
            if refused[s]:
                continue
            term = _integrate_term(factors, coefficient, name)
            if term is None:
                refused[s] = True
            elif weight is not None:
                try:
                    scaled = _coeff_product(term[1], weight)
                except UnsupportedExpression as exc:
                    over[s][part] = exc
                    continue
                _add_term(acc, term[0], (-scaled[0], scaled[1]) if negate else scaled)

    def check(s: int) -> None:
        if refused[s]:
            raise _not_integrable(form, slots[s][0], split_var)
        for part in (0, 1):
            if weights[part] not in (None, _ONE):  # 0 and 1 form no product
                _check_pair_count(counts[part], 1)
            if over[s][part] is not None:
                raise over[s][part]

    return check
