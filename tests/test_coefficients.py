"""Exact coefficients as reduced (numerator, denominator) int pairs.

The kernel's three coefficient helpers must agree with ``Fraction``
arithmetic on every rational, and what depends on a coefficient's value
rather than on its pair, the order of function atoms and the float a plan
multiplies by, must stay as it was when coefficients were Fractions.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invdel import DomainError, eval_numeric, parse, render  # noqa: E402
from invdel.expr import (  # noqa: E402
    CanonicalForm,
    _coeff_add,
    _coeff_inv,
    _coeff_mul,
    numeric_plan,
)

BIG = 2 ** 1000

# Units, small values and 1000-bit numerators and denominators, either sign.
numerators = st.one_of(st.sampled_from((1, -1)), st.integers(-100, 100),
                       st.integers(-BIG, BIG))
denominators = st.one_of(st.just(1), st.integers(1, 100), st.integers(1, BIG))
rationals = st.builds(Fraction, numerators, denominators).filter(bool)

HELPER_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None,
                           database=None)


def pair(q: Fraction) -> tuple:
    return (q.numerator, q.denominator)


def assert_lowest_terms(c: tuple) -> None:
    n, d = c
    assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1, c


@HELPER_SETTINGS
@given(rationals, rationals)
def test_product_agrees_with_fraction(a, b):
    product = _coeff_mul(pair(a), pair(b))
    assert_lowest_terms(product)
    assert product == pair(a * b)


@HELPER_SETTINGS
@given(rationals, rationals)
def test_sum_agrees_with_fraction(a, b):
    total = _coeff_add(pair(a), pair(b))
    assert_lowest_terms(total)
    assert total == pair(a + b)


@HELPER_SETTINGS
@given(numerators, numerators, denominators)
def test_sum_over_a_shared_denominator_agrees_with_fraction(n1, n2, d):
    # Both operands unreduced over d on the Fraction side, reduced on ours.
    a, b = Fraction(n1, d), Fraction(n2, d)
    if a and b:
        assert _coeff_add(pair(a), pair(b)) == pair(a + b)


@HELPER_SETTINGS
@given(rationals)
def test_sum_that_cancels_is_zero_over_one(a):
    assert _coeff_add(pair(a), pair(-a)) == (0, 1)


@HELPER_SETTINGS
@given(rationals)
def test_reciprocal_agrees_with_fraction(a):
    inverse = _coeff_inv(pair(a))
    assert_lowest_terms(inverse)
    assert inverse == pair(1 / a)


@pytest.mark.parametrize("c", [(1, 1), (-1, 1), (3, 4), (-3, 4), (BIG + 1, BIG)])
def test_helpers_on_units_and_signs(c):
    q = Fraction(*c)
    assert _coeff_mul(c, (1, 1)) == c
    assert _coeff_mul(c, (-1, 1)) == pair(-q)
    assert _coeff_inv(_coeff_inv(c)) == c
    assert _coeff_mul(c, _coeff_inv(c)) == (1, 1)


@pytest.mark.parametrize("source,expected", [
    # Function atoms order by their arguments' rational coefficients (2/5
    # before 1/2, -1 before 1/7 before 2/9), not by the pairs' tuple order.
    ("sin(x/2)*sin(2*x/5)", "sin(2*x/5)*sin(x/2)"),
    ("sin(2*x/5)*sin(x/2)", "sin(2*x/5)*sin(x/2)"),
    ("exp(2*x/9)*exp(x/7)*exp(-x)", "exp(-x)*exp(x/7)*exp(2*x/9)"),
    ("exp(-x)*exp(x/7)*exp(2*x/9)", "exp(-x)*exp(x/7)*exp(2*x/9)"),
])
def test_function_atoms_keep_their_numeric_order(source, expected):
    assert render(parse(source)) == expected


# Around 2^1024, where a float overflows, and down to the subnormals.
NEAR_THE_FLOAT_LIMITS = [
    (2 ** 1024 - 2 ** 971, 1),      # the largest float
    (2 ** 1024 - 2 ** 970, 1),      # halfway to 2^1024: rounds up, overflows
    (2 ** 1024 - 2 ** 970 - 1, 1),  # just below halfway: the largest float
    (2 ** 1024, 1),
    (-(2 ** 1024) + 1, 1),
    (2 ** 1025 + 1, 2),
    (2 ** 1025 - 1, 2),
    (2 ** 1100 + 1, 2 ** 76 + 1),
    (3 ** 700, 2 ** 85),
    (1, 2 ** 1074),                 # the smallest subnormal
    (1, 2 ** 1075),                 # half of it: rounds to zero
    (3, 2 ** 1076),                 # past half of it: the smallest subnormal
    (-(10 ** 400), 10 ** 92 + 1),
]


def plan_coefficient(c: tuple):
    """The float a plan multiplies by, or the overflow message."""
    try:
        (coefficient, _), = numeric_plan(CanonicalForm({(): c}), {})
    except DomainError as error:
        return str(error)
    return coefficient


def fraction_float(c: tuple):
    try:
        return float(Fraction(*c))
    except OverflowError:
        return "coefficient overflow"


@pytest.mark.parametrize("c", NEAR_THE_FLOAT_LIMITS)
def test_plan_coefficient_is_the_fractions_float(c):
    want = fraction_float(c)
    got = plan_coefficient(c)
    assert got == want and str(got) == str(want)
    if isinstance(want, float):
        assert eval_numeric(CanonicalForm({(): c}), {}) == want


@HELPER_SETTINGS
@given(st.integers(2 ** 1015, 2 ** 1035), st.integers(1, 2 ** 20), st.booleans())
def test_plan_coefficient_near_the_overflow_is_the_fractions_float(n, d, negative):
    q = Fraction(-n if negative else n, d)
    assert plan_coefficient(pair(q)) == fraction_float(pair(q))
