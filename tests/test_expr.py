"""Kernel tests: canonical forms, substitution, numeric evaluation."""

import math
import random
from fractions import Fraction

import pytest

from invdel import (
    DomainError,
    UnboundVariable,
    UnsupportedExpression,
    canonicalize,
    cos,
    equals,
    eval_numeric,
    exp,
    free_variables,
    is_zero,
    ln,
    num,
    parse,
    sin,
    substitute,
    var,
)
from invdel import expr
from invdel.expr import CanonicalForm, reciprocal, substitute_all, value_at

from _support import random_polynomial

x, y, z = var("x"), var("y"), var("z")


def test_product_of_conjugates_expands():
    left = (x + num(1)) * (x - num(1))
    right = x ** 2 - num(1)
    assert equals(left, right)


def test_commuted_products_cancel():
    assert is_zero(x * y - y * x)


def test_canonical_form_orders_terms():
    form = canonicalize(num(1) + x ** 2 - num(2))
    assert form.terms == (((("x", 2),), (1, 1)), ((), (-1, 1)))


def test_like_terms_merge_exactly():
    e = num(1, 3) * x + num(1, 6) * x
    form = canonicalize(e)
    assert form.terms == (((("x", 1),), (1, 2)),)


def test_zero_coefficient_terms_drop():
    assert canonicalize(x - x).terms == ()
    assert canonicalize(x - x).is_zero()


def test_function_arguments_canonicalize():
    assert equals(sin(x + y), sin(y + x))
    assert not equals(sin(x + y), sin(x - y))


def test_negative_power_roundtrip():
    e = x ** -2
    form = canonicalize(e)
    assert form.terms == (((("x", -2),), (1, 1)),)


def test_reciprocal_of_multi_term_rejected():
    with pytest.raises(UnsupportedExpression):
        reciprocal(x + y)


def test_reciprocal_of_zero_rejected():
    with pytest.raises(UnsupportedExpression):
        reciprocal(x - x)


def test_substitute_with_constant_symbol():
    e = x * y + x ** 2
    shifted = substitute(e, "x", var("a"))
    assert equals(shifted, var("a") * y + var("a") ** 2)


def test_substitute_inside_function_argument():
    e = sin(x + y)
    assert equals(substitute(e, "x", num(0)), sin(y))


def test_a_constant_value_folds_into_the_coefficient():
    form = parse("3*x^-2*y + x*y^2*z")
    assert substitute_all(form, {"x": num(2, 3), "y": num(-1)}) == parse("-27/4 + 2/3*z")
    assert substitute_all(parse("x*y^-1"), {"x": 0, "y": 1}).is_zero()


def test_a_zero_under_a_negative_power_raises_after_another_zero():
    with pytest.raises(UnsupportedExpression, match="^reciprocal of zero$"):
        substitute_all(parse("x*y^-1"), {"x": 0, "y": 0})


def test_a_folded_power_past_the_digit_budget_raises():
    with pytest.raises(UnsupportedExpression, match="coefficient power of more than 10000"):
        substitute(x ** 12, "x", num(10 ** 1000))
    with pytest.raises(UnsupportedExpression, match="coefficient power of more than 10000"):
        substitute(x ** -12, "x", num(1, 10 ** 1000))
    # A zeroed term forms no product, but still each power.
    assert substitute_all(parse("x*y^8*10^3000"), {"x": 0, "y": 10 ** 1000}).is_zero()
    with pytest.raises(UnsupportedExpression, match="coefficient power of more than 10000"):
        substitute_all(x * y ** 12, {"x": 0, "y": 10 ** 1000})


def test_value_at_of_a_polynomial_leaves_its_terms_unsorted():
    # Only a function atom's check needs the canonical order.
    assert value_at(parse("x^2*y + y^3 + z + 1"), {"x": num(2)})._terms is None


def test_substitute_then_eval():
    e = parse("x*y*z + y^2")
    assert eval_numeric(e, {"x": 1, "y": 2, "z": 3}) == pytest.approx(10.0)


def test_eval_log_domain_error():
    with pytest.raises(DomainError):
        eval_numeric(ln(x), {"x": -1.0})


def test_eval_zero_to_negative_power():
    with pytest.raises(DomainError):
        eval_numeric(x ** -1, {"x": 0.0})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_numeric(x + y, {"x": 1.0})


def test_coefficients_stay_exact():
    e = num(1, 3) * x + num(1, 3) * x + num(1, 3) * x
    form = canonicalize(e)
    assert form.terms == (((("x", 1),), (1, 1)),)


def test_canonicalize_returns_constructor_values_unchanged():
    rng = random.Random(7)
    for _ in range(50):
        e = random_polynomial(rng, ("x", "y", "z"))
        assert canonicalize(e) is e
    with pytest.raises(TypeError, match="not an expression node: 5"):
        canonicalize(5)


def test_free_variables_look_inside_functions():
    form = canonicalize(sin(x * y) + z)
    assert free_variables(form) == frozenset({"x", "y", "z"})


def test_random_equal_pairs_agree_numerically():
    # Each polynomial is drawn once and built twice: as a form, by the
    # constructors, and as its list of terms, evaluated directly in floats.
    rng = random.Random(2024)
    names = ("x", "y", "z")
    for _ in range(1000):
        drawn = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  [rng.randint(0, 3) for _ in names])
                 for _ in range(rng.randint(1, 3))]
        form = num(0)
        for coefficient, degrees in drawn:
            term = num(coefficient)
            for name, degree in zip(names, degrees):
                term = term * var(name) ** degree
            form = form + term
        for _ in range(20):
            point = {n: rng.uniform(-2.0, 2.0) for n in names}
            a = eval_numeric(form, point)
            b = sum(float(c) * math.prod(point[n] ** d for n, d in zip(names, degrees))
                    for c, degrees in drawn)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_every_constructor_returns_a_canonical_form():
    values = [var("x"), num(3, 4), num(0), sin(x), cos(2), exp(Fraction(1, 2)),
              ln(x + 1), x + 1, 1 + x, x - y, 1 - x, x * y, 2 * x, -x, x ** 3,
              x ** 0, x ** -2, x / 2, x / num(2)]
    for value in values:
        assert type(value) is CanonicalForm, value


def test_equality_of_constructor_values_is_mathematical():
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x + 1) ** 2 == x ** 2 + 2 * x + 1
    assert sin(x + y) == sin(y + x)
    assert x - x == num(0) == canonicalize(parse("0"))
    assert num(1, 2) + 1 == num(3, 2)
    assert x / 2 == num(1, 2) * x
    assert var("x") == parse("x")
    assert x + y != x * y
    assert sin(x) != cos(x)


def test_reciprocal_of_a_sum_raises_when_it_is_built():
    with pytest.raises(UnsupportedExpression) as info:
        (x + 1) ** -1
    assert str(info.value) == (
        "reciprocal of a multi-term expression is outside the term algebra")
    with pytest.raises(UnsupportedExpression, match="reciprocal of zero"):
        (x - x) ** -2


@pytest.mark.parametrize("divisor", [0, Fraction(0), num(0), x - x])
def test_division_by_zero_is_the_reciprocal_of_zero(divisor):
    # As x * num(0)**-1 and the parser's x/0 report it: one error type for
    # one condition, not a bare ZeroDivisionError.
    with pytest.raises(UnsupportedExpression) as info:
        x / divisor
    assert str(info.value) == "reciprocal of zero"
    with pytest.raises(UnsupportedExpression, match="^reciprocal of zero$"):
        x * num(0) ** -1
    assert x / Fraction(-2, 3) == num(-3, 2) * x


@pytest.mark.parametrize("name,message", [
    ("sin", "'sin' is a reserved function name"),
    ("1x", "invalid variable name '1x'"),
    ("x y", "invalid variable name 'x y'"),
    (None, "invalid variable name None"),
    (1, "invalid variable name 1"),
    (b"x", "invalid variable name b'x'"),
])
def test_invalid_variable_name_is_a_value_error(name, message):
    with pytest.raises(ValueError) as info:
        var(name)
    assert str(info.value) == message


def test_the_expression_tree_is_gone():
    for name in ("RationalConstant", "Variable", "Sum", "Product", "IntegerPower",
                 "FunctionApplication", "Negation", "_canon", "_coerce", "sum_of",
                 "product_of", "expression_of", "form_has_variables", "Term",
                 "_term_order"):
        assert not hasattr(expr, name), name
    assert expr.Expression is CanonicalForm


@pytest.mark.parametrize("operation,message", [
    (lambda: var("x") / var("y"), "can only divide by a rational constant"),
    (lambda: var("x") ** Fraction(1, 2), "exponent must be an integer"),
    (lambda: var("x") + 0.5, "cannot interpret 0.5 as an expression"),
])
def test_an_operand_outside_the_algebra_is_a_type_error(operation, message):
    with pytest.raises(TypeError, match=message):
        operation()


def test_a_form_is_unequal_to_a_value_of_another_type():
    assert var("x").__eq__("x") is NotImplemented
    assert var("x") != "x"
