"""Differentiation, term-class antidifferentiation and the weighted split."""

import random
from fractions import Fraction

import pytest

import invdel.calculus
import invdel.expr
import invdel.parser
from invdel import (
    NotIntegrable,
    UnsupportedExpression,
    VectorField,
    antidifferentiate,
    builtin,
    curl_potential_formula,
    differentiate,
    equals,
    free_variables,
    inverse_curl,
    parse,
    render,
    split_by_variable,
    substitute,
    weighted_split_integral,
)

from invdel.expr import CanonicalForm

from _support import random_polynomial

W_PLUS = Fraction(1, 3)
W_MINUS = Fraction(1, 2)


def test_split_separates_by_variable():
    pair = split_by_variable(parse("x*y*z + y^2"), "x")
    assert render(pair.plus_part) == "x*y*z"
    assert render(pair.minus_part) == "y^2"


def test_split_sees_function_arguments():
    pair = split_by_variable(parse("sin(x*y) + z"), "x")
    assert render(pair.plus_part) == "sin(x*y)"
    assert render(pair.minus_part) == "z"


def test_split_of_free_expression_is_all_minus():
    pair = split_by_variable(parse("y^2 + z"), "x")
    assert render(pair.plus_part) == "0"
    assert render(pair.minus_part) == "y^2 + z"


def test_contains_variable():
    assert "x" in free_variables(parse("sin(x*y)"))
    assert "x" not in free_variables(parse("y + z"))
    assert "x" not in free_variables(parse("x - x"))


def test_derivative_of_polynomial():
    d = differentiate(parse("-z - y*z^2/2"), "z")
    assert render(d) == "-y*z - 1"


def test_derivative_chain_rule():
    d = differentiate(parse("sin(2*x)"), "x")
    assert equals(d, parse("2*cos(2*x)"))


def test_derivative_of_logarithm():
    d = differentiate(parse("ln(x)"), "x")
    assert equals(d, parse("x^-1"))


def test_derivative_product_rule():
    d = differentiate(parse("x^2*y^3"), "x")
    assert render(d) == "2*x*y^3"


def test_antiderivative_of_monomial():
    assert render(antidifferentiate(parse("x*z"), "z")) == "x*z^2/2"


def test_antiderivative_of_reciprocal():
    assert equals(antidifferentiate(parse("x^-1"), "x"), parse("ln(x)"))


def test_antiderivative_of_affine_sine():
    got = antidifferentiate(parse("sin(2*x)"), "x")
    assert equals(got, parse("0 - cos(2*x)/2"))


def test_antiderivative_of_affine_cosine():
    got = antidifferentiate(parse("cos(3*y + 1)"), "y")
    assert equals(got, parse("sin(3*y + 1)/3"))


def test_antiderivative_of_exponential():
    got = antidifferentiate(parse("exp(0 - x)"), "x")
    assert equals(got, parse("0 - exp(0 - x)"))


def test_antiderivative_of_free_expression():
    assert render(antidifferentiate(parse("y^2"), "z")) == "y^2*z"


NOT_INTEGRABLE = [
    "ln(x)",
    "x*sin(x)",
    "sin(x)^2",
    "sin(x^2)",
    "sin(x*y)",
    "exp(x)*sin(x)",
]


@pytest.mark.parametrize("text", NOT_INTEGRABLE)
def test_outside_term_class_raises(text):
    with pytest.raises(NotIntegrable):
        antidifferentiate(parse(text), "x")


def test_not_integrable_reports_term_and_variable():
    with pytest.raises(NotIntegrable) as info:
        antidifferentiate(parse("y*ln(x)"), "x")
    assert info.value.variable == "x"
    assert "ln(x)" in str(info.value)


def _first_offender(form, name):
    """The first term, in canonical order, that is refused on its own."""
    for factors, coefficient in form.terms:
        term = CanonicalForm({factors: coefficient})
        try:
            antidifferentiate(term, name)
        except NotIntegrable:
            return term
    return None


MIXED = [
    "x*sin(x) + sin(x)^2 + y + x^2",
    "exp(x)*sin(x) + ln(x) + x^-1 + sin(x*y) + cos(2*x)",
    "sin(x^2)*y + x*sin(x)*y^2 + z*x^3 + ln(x)*z",
]


@pytest.mark.parametrize("text", MIXED)
def test_refusal_names_the_canonically_first_offender_in_any_map_order(text):
    # The terms are integrated in map order; the offender named is the
    # first in canonical order however the map was built.
    form = parse(text)
    expected = _first_offender(form, "x")
    assert expected is not None
    rng = random.Random(17)
    items = list(form.terms)
    for _ in range(12):
        rng.shuffle(items)
        shuffled = CanonicalForm(dict(items))
        assert shuffled == form
        with pytest.raises(NotIntegrable) as info:
            antidifferentiate(shuffled, "x")
        assert info.value.term == expected
        assert str(info.value) == (f"term {render(expected)} has no antiderivative "
                                   "in x within the supported class")


def test_an_argument_with_two_terms_in_the_variable_is_refused():
    # x + x*y has the slope 1 + y in x, which is not a rational number.
    form = parse("sin(x + x*y)")
    with pytest.raises(NotIntegrable) as info:
        antidifferentiate(form, "x")
    assert (info.value.term, info.value.variable) == (form, "x")
    assert str(info.value) == ("term sin(x*y + x) has no antiderivative in x "
                               "within the supported class")


def test_refusal_renders_its_term_once(monkeypatch):
    # The error builds its text, reading the renderer from invdel.parser.
    calls = []

    def counting_render(form):
        calls.append(form)
        return render(form)

    monkeypatch.setattr(invdel.parser, "render", counting_render)
    form = parse("x*sin(x) + sin(x)^2 + y + x^2 + ln(x)")
    with pytest.raises(NotIntegrable) as info:
        antidifferentiate(form, "x")
    assert calls == [info.value.term]


@pytest.mark.parametrize("text,where", [
    ("2^20000*x*sin(x)", "coefficient"),
    ("x*sin(x)/3^13000", "denominator"),
    ("x*sin(2^20000*x)", "function argument"),
    ("x*sin(x*exp(y/2^20000))", "nested argument"),
])
def test_refusal_past_the_digit_limit_names_its_term_by_digit_count(text, where):
    # The term cannot be rendered, so its widest number is named by its size.
    form = parse(text)
    with pytest.raises(NotIntegrable) as info:
        antidifferentiate(form, "x")
    assert (info.value.term, info.value.variable) == (form, "x"), where
    digits = 6203 if "3^" in text else 6021
    assert str(info.value) == (f"term with a number of about {digits} digits has no "
                               "antiderivative in x within the supported class")


@pytest.mark.parametrize("text,w_plus,w_minus", [
    # The part holding the split variable y is refused with weight zero.
    ("y*sin(z^2) + x*z", 0, 1),
    # The part without y is refused with weight zero.
    ("y*z + x*sin(z^2)", 1, 0),
])
def test_zero_weight_part_is_still_integrated(text, w_plus, w_minus):
    with pytest.raises(NotIntegrable) as info:
        weighted_split_integral(parse(text), "y", "z", w_plus, w_minus)
    assert info.value.variable == "z"


def test_weighted_scaling_keeps_the_coefficient_budget():
    for text, weights in (
            # 2^33218 is within the budget, but one third of it, times z, is
            # estimated past it: the weighted parts are scaled with the
            # product's estimate, as when they were multiplied by their weights.
            ("2^33218*x", (W_PLUS, W_MINUS)),
            # Two terms of coefficient 1 times the weight 2^33218: the product
            # of the part and its weight is estimated past the budget too.
            ("x + x^2", (1, 2 ** 33218))):
        expression = parse(text)
        assert equals(weighted_split_integral(expression, "y", "z", 1, 1),
                      expression * parse("z"))
        with pytest.raises(UnsupportedExpression) as info:
            weighted_split_integral(expression, "y", "z", *weights)
        assert str(info.value) == ("a coefficient product of more than 10000 digits "
                                   "exceeds the budget")


PAIRS_PAST_TWO = "expanding a product of 3 by 1 terms exceeds the budget of 2 term pairs"


@pytest.mark.parametrize("w_minus,message", [
    (W_MINUS, PAIRS_PAST_TWO),
    (-1, PAIRS_PAST_TWO),
    # A weight of 0 or 1 forms no product.
    (0, None),
    (1, None),
])
def test_weighted_scaling_keeps_the_pair_budget(monkeypatch, w_minus, message):
    # The part without x has three terms: a weight other than 0 or 1 makes a
    # product of three term pairs, past the budget of two.
    expression = parse("y + y^2 + y^3")
    monkeypatch.setattr(invdel.expr, "MAX_PRODUCT_PAIRS", 2)
    if message is None:
        assert equals(weighted_split_integral(expression, "x", "z", W_PLUS, w_minus),
                      parse("y*z + y^2*z + y^3*z") * w_minus)
        return
    with pytest.raises(UnsupportedExpression) as info:
        weighted_split_integral(expression, "x", "z", W_PLUS, w_minus)
    assert str(info.value) == message


def test_inverse_curl_keeps_the_pair_budget_of_its_weighted_integrals(monkeypatch):
    B = VectorField(tuple(parse(t) for t in ("y + y^2 + y^3", "0", "0")),
                    builtin("cartesian"))
    monkeypatch.setattr(invdel.expr, "MAX_PRODUCT_PAIRS", 2)
    with pytest.raises(UnsupportedExpression) as info:
        inverse_curl(B)
    assert str(info.value) == PAIRS_PAST_TWO


def test_weighted_refusal_names_the_part_with_the_split_variable_first():
    # x*sin(z^2) sorts first, but it is in the part without y.
    with pytest.raises(NotIntegrable) as info:
        weighted_split_integral(parse("x*sin(z^2) + y*sin(z^2)"), "y", "z",
                                W_PLUS, W_MINUS)
    assert render(info.value.term) == "sin(z^2)*y"
    assert info.value.variable == "z"


def test_weighted_refusal_comes_before_the_scaling_budget():
    # Scaling 2^33218*x*z by 1/2 is past the coefficient budget (see above),
    # but the refused term is named first.
    with pytest.raises(NotIntegrable) as info:
        weighted_split_integral(parse("2^33218*x + y*sin(z^2)"), "y", "z",
                                W_PLUS, W_MINUS)
    assert render(info.value.term) == "sin(z^2)*y"


@pytest.mark.parametrize("weight", [0.5, "1/2", None])
def test_a_weight_that_is_not_an_int_or_a_fraction_is_a_type_error(weight):
    with pytest.raises(TypeError, match="weights must be ints or Fractions"):
        weighted_split_integral(parse("x*z + y"), "y", "z", W_PLUS, weight)


def test_a_weighted_integral_stops_at_its_refused_term(monkeypatch):
    # The first W, of c1 = B_1 split by y in z, meets sin(z^2) first and
    # integrates nothing more; the refusal integrates it once again to name it.
    B = VectorField(tuple(parse(t) for t in ("0", "sin(z^2) + x + x^2 + x^3 + x^4", "0")),
                    builtin("cartesian"))
    calls = []

    def counting(factors, coefficient, name):
        calls.append(name)
        return integrate_term(factors, coefficient, name)

    integrate_term = invdel.calculus._integrate_term
    monkeypatch.setattr(invdel.calculus, "_integrate_term", counting)
    with pytest.raises(NotIntegrable) as info:
        curl_potential_formula(B)
    assert render(info.value.term) == "sin(z^2)"
    assert calls == ["z", "z"]


def test_weighted_split_integral_second_component_piece():
    got = weighted_split_integral(parse("x*z + y"), "y", "z", W_PLUS, W_MINUS)
    assert render(got) == "x*z^2/4 + y*z/3"


def test_weighted_split_integral_first_component_piece():
    got = weighted_split_integral(parse("x*y*z + y^2"), "x", "z", W_PLUS, W_MINUS)
    assert render(got) == "x*y*z^2/6 + y^2*z/2"


def test_derivative_undoes_antiderivative():
    rng = random.Random(11)
    for _ in range(200):
        p = random_polynomial(rng, ("x", "y", "z"))
        v = rng.choice(("x", "y", "z"))
        assert equals(differentiate(antidifferentiate(p, v), v), p)


def test_antiderivative_is_linear():
    rng = random.Random(13)
    for _ in range(50):
        p = random_polynomial(rng, ("x", "y"))
        q = random_polynomial(rng, ("x", "y"))
        left = antidifferentiate(p + q, "x")
        right = antidifferentiate(p, "x") + antidifferentiate(q, "x")
        assert equals(left, right)


# Each door of a variable name, with the input it takes.  Unchecked, a
# function name became a factor: antidifferentiate(x, "sin") rendered
# "sin*x", which parse refuses; a name that is not text ended in the
# regex's bare TypeError.
NAME_DOORS = {
    "differentiate": lambda name: differentiate(parse("x"), name),
    "antidifferentiate": lambda name: antidifferentiate(parse("x"), name),
    "split_by_variable": lambda name: split_by_variable(parse("x"), name),
    "weighted_split_integral-split": lambda name: weighted_split_integral(
        parse("y"), name, "x", 1, 1),
    "weighted_split_integral-int": lambda name: weighted_split_integral(
        parse("y"), "x", name, 1, 1),
    "substitute": lambda name: substitute(parse("x"), name, 1),
}


@pytest.mark.parametrize("name, message", [
    ("sin", "'sin' is a reserved function name"),
    ("", "invalid variable name ''"),
    ("a b", "invalid variable name 'a b'"),
    ("2x", "invalid variable name '2x'"),
    (1, "invalid variable name 1"),
    (None, "invalid variable name None"),
])
@pytest.mark.parametrize("door", NAME_DOORS)
def test_a_public_function_refuses_a_name_that_is_no_variable(door, name, message):
    with pytest.raises(ValueError) as info:
        NAME_DOORS[door](name)
    assert str(info.value) == message
