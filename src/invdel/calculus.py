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
argument, not both.  Everything else raises NotIntegrable.  The zero
integration constant is chosen everywhere, so differentiating the result
gives back the integrand exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import NotIntegrable
from .expr import (
    CanonicalForm,
    Expression,
    Frozen,
    FunctionAtom,
    atom_power,
    canonicalize,
    factors_contain,
    form_contains,
    sum_forms,
)
from .parser import render


class SplitPair(Frozen):
    """Terms containing the split variable (plus) and the rest (minus)."""

    __slots__ = ("plus_part", "minus_part")

    def __init__(self, plus_part: CanonicalForm, minus_part: CanonicalForm):
        self._init(plus_part, minus_part)


def contains_variable(expression: Expression, name: str) -> bool:
    """True iff the variable survives in the canonical form, including
    occurrences inside function arguments."""
    return form_contains(canonicalize(expression), name)


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
    pieces = []
    for factors, coefficient in form.items():
        for i, (atom, e) in enumerate(factors):
            if isinstance(atom, str):
                if atom != name:
                    continue
                chain = None
            elif form_contains(atom.argument, name):
                chain = _outer_derivative(atom) * _derivative(atom.argument, name)
            else:
                continue
            lowered = ((atom, e - 1),) if e != 1 else ()
            piece = CanonicalForm(
                {factors[:i] + lowered + factors[i + 1:]: coefficient * e})
            pieces.append(piece if chain is None else piece * chain)
    return sum_forms(pieces)


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
    term falls outside the supported class; terms are tried in canonical
    order, so the first offender is reported.
    """
    form = canonicalize(expression)
    return sum_forms([_integrate_term(f, c, name) for f, c in form.terms])


def _integrate_term(factors: tuple, coefficient: Fraction, name: str) -> CanonicalForm:
    rest = []
    variable_exponent = 0
    carriers = []  # function atoms whose argument contains the variable
    for atom, e in factors:
        if atom == name:
            variable_exponent = e
        elif isinstance(atom, FunctionAtom) and form_contains(atom.argument, name):
            carriers.append((atom, e))
        else:
            rest.append((atom, e))
    rest = tuple(rest)

    if carriers:
        if variable_exponent or len(carriers) > 1:
            raise _not_integrable(factors, coefficient, name)
        atom, e = carriers[0]
        if atom.tag == "ln" or e != 1:
            raise _not_integrable(factors, coefficient, name)
        slope = _linear_slope(atom.argument, name)
        if slope is None:
            raise _not_integrable(factors, coefficient, name)
        coefficient /= slope
        if atom.tag == "sin":
            outer = FunctionAtom("cos", atom.argument)
            coefficient = -coefficient
        elif atom.tag == "cos":
            outer = FunctionAtom("sin", atom.argument)
        else:
            outer = atom
        return CanonicalForm({rest: coefficient}) * atom_power(outer)

    if variable_exponent == -1:
        log = FunctionAtom("ln", atom_power(name))
        return CanonicalForm({rest: coefficient}) * atom_power(log)
    new_exponent = variable_exponent + 1
    return (CanonicalForm({rest: coefficient / new_exponent})
            * atom_power(name, new_exponent))


def _linear_slope(argument: CanonicalForm, name: str) -> Fraction | None:
    """Rational slope of the variable when the argument is affine in it."""
    carriers = [(f, c) for f, c in argument.items() if factors_contain(f, name)]
    if len(carriers) != 1:
        return None
    factors, coefficient = carriers[0]
    if factors != ((name, 1),):
        return None
    return coefficient


def _not_integrable(factors: tuple, coefficient: Fraction, name: str) -> NotIntegrable:
    offender = CanonicalForm({factors: coefficient})
    return NotIntegrable(
        f"term {render(offender)} has no antiderivative in {name} "
        "within the supported class",
        term=offender,
        variable=name,
    )


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
    both antiderivatives taken with respect to int_var.
    """
    pair = split_by_variable(expression, split_var)
    plus = antidifferentiate(pair.plus_part, int_var)
    minus = antidifferentiate(pair.minus_part, int_var)
    return plus * Fraction(w_plus) + minus * Fraction(w_minus)
