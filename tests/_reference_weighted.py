"""A frozen copy of the weighted split integral as it was before it became
one walk over the terms, kept only as a reference: ``weighted_split_integral``
here must give the form, or the error type, message, term and variable, that
``invdel.weighted_split_integral`` gives.

It splits by one variable, integrates the part containing it and then the
rest, estimates each part's scaling against the product budgets and scales
it term by term.  The estimate is the one the product of a part and a
rational makes, restated here: it reads ``MAX_PRODUCT_PAIRS`` and
``MAX_POWER_DIGITS`` from ``invdel.expr`` when it runs.  Only public
operations are used, and the scaling multiplies no two coefficients that are
not 1, so no budget is met outside the estimate.  Do not change it to
follow a change of the library.
"""

from __future__ import annotations

import math
from fractions import Fraction

import invdel
import invdel.expr
from invdel import UnsupportedExpression, antidifferentiate, num, split_by_variable, var

_ONE = (1, 1)


def weighted_split_integral(expression, split_var, int_var, w_plus, w_minus):
    pair = split_by_variable(expression, split_var)
    plus = antidifferentiate(pair.plus_part, int_var)
    minus = antidifferentiate(pair.minus_part, int_var)
    total = num(0)
    for part, weight in ((plus, Fraction(w_plus)), (minus, Fraction(w_minus))):
        _check_scaling(part, weight)
        total = total + _scaled(part, weight)
    return total


def _check_scaling(part, weight: Fraction) -> None:
    """Raise where ``part * weight`` would: neither a zero nor a unit
    operand forms a product."""
    terms = part.terms
    if not terms or not weight or terms == (((), _ONE),) or weight == 1:
        return
    if len(terms) > invdel.expr.MAX_PRODUCT_PAIRS:
        raise UnsupportedExpression(
            f"expanding a product of {len(terms)} by 1 terms exceeds "
            f"the budget of {invdel.expr.MAX_PRODUCT_PAIRS} term pairs")
    if len(terms) == 1 and terms[0][1] == _ONE:
        return
    numerator_bits = max(n.bit_length() for _, (n, _) in terms)
    denominator_bits = max(d.bit_length() for _, (_, d) in terms)
    bits = max(numerator_bits + weight.numerator.bit_length(),
               denominator_bits + weight.denominator.bit_length())
    if bits * math.log10(2) > invdel.expr.MAX_POWER_DIGITS:
        raise UnsupportedExpression(
            f"a coefficient product of more than {invdel.expr.MAX_POWER_DIGITS} "
            "digits exceeds the budget")


def _scaled(part, weight: Fraction):
    """Each term's coefficient times the weight, as a rational, times its
    factors rebuilt one atom power at a time."""
    total = num(0)
    for factors, (n, d) in part.terms:
        term = num(Fraction(n, d) * weight)
        for atom, e in factors:
            base = var(atom) if isinstance(atom, str) else getattr(invdel, atom.tag)(
                atom.argument)
            term = term * base ** e
        total = total + term
    return total
