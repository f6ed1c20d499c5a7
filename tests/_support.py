"""Shared helpers for building random test fields, among them a corpus
periodic in the angles, for evaluating forms by reference, and a counter of
scale-factor products."""

import random
from fractions import Fraction
from math import gcd

from invdel import (
    DivergenceWeights,
    DomainError,
    InvdelError,
    ScalarField,
    UnboundVariable,
    VectorField,
    builtin,
    cos,
    curl,
    gradient,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
    num,
    sin,
    var,
)
from invdel.expr import CanonicalForm, _atom_key, _eval_function, _eval_power, _eval_sum


def random_polynomial(rng, names, max_terms=3, max_degree=3):
    """Random polynomial with small Fraction coefficients."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = Fraction(
            rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        term = num(coefficient)
        for name in names:
            degree = rng.randint(0, max_degree)
            if degree:
                term = term * var(name) ** degree
        terms.append(term)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def random_vector(rng, system, max_terms=3, max_degree=3):
    components = tuple(
        random_polynomial(rng, system.names, max_terms, max_degree)
        for _ in range(3))
    return VectorField(components, system)


def random_scalar(rng, system, max_terms=3, max_degree=3):
    value = random_polynomial(rng, system.names, max_terms, max_degree)
    return ScalarField(value, system)


# The builtin systems' angle coordinates.
ANGLES = ("theta", "phi")


def random_periodic(rng, names, max_terms=3, max_power=2):
    """Random form single-valued in the angles of ``names``: each term is a
    small Fraction times powers 0..``max_power`` of each length coordinate
    and, per angle, one of 1, sin(k*angle) or cos(k*angle) with k in 1..2."""
    total = num(0)
    for _ in range(rng.randint(1, max_terms)):
        term = num(Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9)))
        for name in names:
            if name in ANGLES:
                function = rng.choice((None, sin, cos))
                k = rng.randint(1, 2)
                if function is not None:
                    term = term * function(k * var(name))
            else:
                term = term * var(name) ** rng.randint(0, max_power)
        total = total + term
    return total


# The inverses the periodic corpus builds, by name: each is the pair (the
# input made from a draw's random vector A and scalar s, the inverse of it).
PERIODIC_OPERATORS = {
    "inverse_curl": (lambda A, s: curl(A), inverse_curl),
    "inverse_divergence": (lambda A, s: s, inverse_divergence),
    "inverse_divergence-1-0-0": (
        lambda A, s: s, lambda f: inverse_divergence(f, DivergenceWeights(1, 0, 0))),
    "inverse_gradient": (lambda A, s: gradient(s), inverse_gradient),
}


def periodic_corpus(seed=7, count=100):
    """(operator, system label) -> ``count`` pairs (input field, result, or
    the InvdelError that refused it), for the cylindrical and spherical
    systems; each draw is a random vector and scalar of ``random_periodic``."""
    rng = random.Random(seed)
    corpus = {}
    for label in ("cylindrical", "spherical"):
        system = builtin(label)
        draws = []
        for _ in range(count):
            A = VectorField(tuple(random_periodic(rng, system.names) for _ in range(3)), system)
            draws.append((A, ScalarField(random_periodic(rng, system.names), system)))
        for operator, (made, inverse) in PERIODIC_OPERATORS.items():
            rows = corpus[operator, label] = []
            for A, s in draws:
                field = made(A, s)
                try:
                    rows.append((field, inverse(field)))
                except InvdelError as err:
                    rows.append((field, err))
    return corpus


def bare_variables(field):
    """The variables a field's forms hold as factors, outside any function."""
    forms = getattr(field, "components", None) or (field.value,)
    return {atom for form in forms for factors, _ in form.terms
            for atom, _ in factors if isinstance(atom, str)}


def fractions_of(coefficients):
    """A kernel coefficient map with each (n, d) pair made a Fraction, for
    comparison with reference arithmetic done in Fractions."""
    return {factors: Fraction(n, d) for factors, (n, d) in coefficients.items()}


def assert_reduced(coefficients):
    """Every coefficient in the map, and in the maps of its function atoms'
    arguments, is an int pair (n, d) in lowest terms with d > 0 and n != 0."""
    for factors, coefficient in coefficients.items():
        n, d = coefficient
        assert type(n) is int and type(d) is int, coefficient
        assert d > 0 and n != 0 and gcd(n, d) == 1, coefficient
        for atom, _ in factors:
            if not isinstance(atom, str):
                assert_reduced(atom.argument._map)


def reference_eval(form, point):
    """A form's value at a point, evaluated as the product of each term's
    coefficient and atom powers, in canonical order, and the fsum of the
    terms.  ``eval_numeric`` must give the same float bit for bit: a term's
    product starts at 1.0, its coefficient, rounded by ``float(Fraction)``,
    is a factor only when it is not 1 or the term has no other factor, and
    fsum, which loses -0.0 and whose overflow is a DomainError, is used only
    for two or more terms."""
    values = [_term_value(f, c, point) for f, c in form.terms]
    if not values:
        return 0.0
    return values[0] if len(values) == 1 else _eval_sum(values)


def _term_value(factors, coefficient, point):
    result = 1.0
    coefficient = Fraction(*coefficient)
    if coefficient != 1 or not factors:
        try:
            result *= float(coefficient)
        except OverflowError:
            raise DomainError("coefficient overflow") from None
    for atom, e in factors:
        if isinstance(atom, str):
            try:
                value = float(point[atom])
            except KeyError:
                raise UnboundVariable(atom) from None
        else:
            value = _eval_function(atom.tag, reference_eval(atom.argument, point))
        result *= value if e == 1 else _eval_power(value, e)
    return result


def reference_term_order(item1, item2) -> int:
    """Comparator of two (factors, coefficient) items in canonical order:
    descending lexicographic order on exponent vectors, atoms ascending, so
    x^2 sorts before the constant term and x*y*z before y^2.  It walks both
    factor tuples, which list atoms in ascending key order, side by side."""
    f1, f2 = item1[0], item2[0]
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


def count_scale_products(monkeypatch, A):
    """The calls h_m * A_m, counted as they are made from now on."""
    h = A.system.scale_factors
    products = {(id(h[m]), id(A.components[m])) for m in range(3)}
    calls = []
    multiply = CanonicalForm.__mul__

    def counted(self, other):
        if (id(self), id(other)) in products:
            calls.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(CanonicalForm, "__mul__", counted)
    return calls
