"""Single-variable calculus on canonical forms, term by term.

``differentiate`` applies the product rule over a term's atom powers and
the chain rule through each function atom whose argument holds the
variable; ``ln(u)`` differentiates to ``u'/u``, so a ``u`` of several
terms is UnsupportedExpression.  ``antidifferentiate`` accepts the term
class the README describes, with the zero integration constant, and raises
NotIntegrable carrying the first other term in canonical order.
``weighted_split_integral`` is one W of the inverse curl; ``_weighted``
adds one W into a caller's map, and the inverse curl makes its six such
calls one at a time, in the order of its formula.  Both integrals take
their terms through one walk, ``_integrated``, and a W's budgets are those
of each integrated part's product with its weight.  The public functions
check each variable name, a ValueError as for ``var``; the package calls the
bodies behind them.
"""

from __future__ import annotations

from .errors import NotIntegrable
from .expr import (
    _ONE,
    CanonicalForm,
    Expression,
    Frozen,
    FunctionAtom,
    RationalLike,
    _accumulate,
    _add_term,
    _check_pairs,
    _coeff_inv,
    _coeff_mul,
    _exact_pair,
    _merge_factors,
    _multiply,
    _subtract,
    atom_power,
    canonicalize,
    check_variable_name,
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
    check_variable_name(name)
    plus: dict = {}
    minus: dict = {}
    for factors, coefficient in canonicalize(expression).items():
        (plus if factors_contain(factors, name) else minus)[factors] = coefficient
    return SplitPair(CanonicalForm(plus), CanonicalForm(minus))


def differentiate(expression: Expression, name: str) -> CanonicalForm:
    """Partial derivative with respect to the named variable."""
    check_variable_name(name)
    return _derivative(canonicalize(expression), name, {})


def _derivative(form: CanonicalForm, name: str, acc: dict, negate: bool = False) -> CanonicalForm:
    """d form/d name, each term added straight into the caller's map
    ``acc``, negated when ``negate``; returns the form of ``acc``.  A sign
    is applied after a chain rule's product, so every budget is checked as
    without it."""
    for factors, coefficient in form.items():
        for i, (atom, e) in enumerate(factors):
            if isinstance(atom, str):
                if atom != name:
                    continue
                chain = None
            elif name in atom.variables:
                chain = (_outer_derivative(atom) * _derivative(atom.argument, name, {}))._map
            else:
                continue
            lowered = ((atom, e - 1),) if e != 1 else ()
            factors_out = factors[:i] + lowered + factors[i + 1:]
            c = coefficient if e == 1 else _coeff_mul(coefficient, (e, 1))
            if chain is not None:
                (_subtract if negate else _accumulate)(acc, _multiply({factors_out: c}, chain))
                continue
            _add_term(acc, factors_out, (-c[0], c[1]) if negate else c)
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
    term falls outside the supported class.
    """
    check_variable_name(name)
    return CanonicalForm(_integrated(canonicalize(expression), name)[1])


def _integrated(form: CanonicalForm, name: str, split_var: str | None = None) -> tuple:
    """The antiderivatives in ``name`` of the terms of ``form`` that contain
    ``split_var`` and of the rest, as two maps; integration in one variable
    keeps distinct terms distinct.  The terms are integrated in map order;
    only a refusal sorts them, to name the first offender as
    ``_not_integrable`` does."""
    plus: dict = {}
    rest: dict = {}
    for factors, coefficient in form.items():
        term = _integrate_term(factors, coefficient, name)
        if term is None:
            raise _not_integrable(form, name, split_var)
        side = plus if split_var is not None and factors_contain(factors, split_var) else rest
        side[term[0]] = term[1]
    return plus, rest


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
    w_plus: RationalLike,
    w_minus: RationalLike,
) -> CanonicalForm:
    """Split by one variable, integrate both parts in another, recombine.

    Returns w_plus * antiderivative(part containing split_var)
          + w_minus * antiderivative(part without split_var),
    both antiderivatives taken with respect to int_var; the weights are ints
    or Fractions.  It raises what forming the two weighted products would: a
    refusal first, naming the term that ``antidifferentiate`` names on the
    part containing split_var, else the rest; then, for the plus part and
    then the rest, the term-pair and coefficient budgets of the part's
    product with its weight.
    """
    check_variable_name(split_var)
    check_variable_name(int_var)
    weights = tuple(map(_exact_pair, (w_plus, w_minus)))
    if None in weights:
        raise TypeError("weights must be ints or Fractions")
    acc: dict = {}
    _weighted(canonicalize(expression), split_var, int_var, weights, acc)
    return CanonicalForm(acc)


def _weighted(form: CanonicalForm, split_var: str, name: str, weights: tuple, acc: dict,
              negate: bool = False) -> None:
    """Add W(form; split_var, d name), negated when ``negate``, into the map
    ``acc``, with ``weights`` the int pairs (w_plus, w_minus); it raises what
    ``weighted_split_integral`` does, in that order, and may have added some
    terms when it raises.

    Each integrated part is scaled by its weight, with the budgets of their
    product, which a weight of 0 or 1 does not form.
    """
    for part, weight in zip(_integrated(form, name, split_var), weights):
        if not part or not weight[0]:
            continue
        if weight != _ONE:
            _check_pairs(part, {(): weight})
        for factors, c in part.items():
            c = _coeff_mul(c, weight)
            _add_term(acc, factors, (-c[0], c[1]) if negate else c)
