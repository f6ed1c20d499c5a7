"""Grammar, round-trip and rendering tests for the expression parser."""

import random

import pytest

from invdel import SourceError, UnsupportedExpression, equals, parse, render
from invdel.expr import (
    IntegerPower,
    Product,
    Sum,
    Variable,
    canonicalize,
)
from invdel.parser import MAX_NESTING

from _support import random_polynomial


def test_parse_tree_shape():
    tree = parse("x*y*z + y^2")
    assert isinstance(tree, Sum)
    product, power = tree.children
    assert isinstance(product, Product)
    assert [c.name for c in product.children] == ["x", "y", "z"]
    assert isinstance(power, IntegerPower)
    assert isinstance(power.base, Variable)
    assert power.base.name == "y"
    assert power.exponent == 2


def test_power_binds_tighter_than_unary_minus():
    assert equals(parse("-x^2"), -(parse("x") ** 2))
    assert not equals(parse("-x^2"), parse("(-x)^2"))


def test_power_of_zero_is_one():
    assert equals(parse("x^0"), parse("1"))


def test_division_by_rational_scales_coefficient():
    assert render(parse("x/2")) == "x/2"
    assert render(parse("-2*x/4")) == "-x/2"


def test_division_by_single_term_builds_reciprocal():
    assert render(parse("1/x")) == "x^-1"
    assert equals(parse("y/x^2"), parse("y*x^-2"))


def test_division_by_sum_is_unsupported():
    with pytest.raises(UnsupportedExpression):
        parse("x/(y+1)")


def test_division_by_zero_is_unsupported():
    with pytest.raises(UnsupportedExpression):
        parse("1/(x - x)")


def test_error_carries_offset():
    with pytest.raises(SourceError) as info:
        parse("x +")
    assert info.value.offset == 3
    assert "offset 3" in str(info.value)


def test_bare_function_name_is_an_error():
    with pytest.raises(SourceError):
        parse("sin")
    with pytest.raises(SourceError):
        parse("sin x")


MALFORMED = ["", "x +", "(x", "x)", "x^", "x^y", "2x", "x**2", "@", "x//y", "+", "()"]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_source_error(text):
    with pytest.raises(SourceError):
        parse(text)


FIXED_RENDERS = [
    ("x^2 - 1", "x^2 - 1"),
    ("0", "0"),
    ("x - x", "0"),
    ("-x - y", "-x - y"),
    ("2/3", "2/3"),
    ("sin(x+y)*3", "3*sin(x + y)"),
    ("exp(0-x)", "exp(-x)"),
    ("x*z^2/4 + y^2*z^2/12 + 2*y*z/3", "x*z^2/4 + y^2*z^2/12 + 2*y*z/3"),
]


@pytest.mark.parametrize("source,expected", FIXED_RENDERS)
def test_fixed_renderings(source, expected):
    assert render(parse(source)) == expected


def test_render_parse_round_trip():
    rng = random.Random(99)
    for _ in range(500):
        e = random_polynomial(rng, ("x", "y", "z"))
        text = render(e)
        assert equals(parse(text), e)


def test_rendering_is_injective_on_canonical_forms():
    rng = random.Random(5)
    seen = {}
    for _ in range(300):
        e = random_polynomial(rng, ("x", "y"))
        text = render(e)
        form = canonicalize(e)
        if text in seen:
            assert seen[text] == form
        seen[text] = form


def test_identifiers_with_underscores_and_digits():
    tree = parse("u_1^2 + v2")
    assert render(tree) == "u_1^2 + v2"


def test_nesting_up_to_the_limit_parses():
    assert MAX_NESTING == 100
    assert parse("(" * 100 + "x" + ")" * 100) == parse("x")
    assert render(parse("sin(" * 50 + "(" * 50 + "x" + ")" * 100)) == (
        "sin(" * 50 + "x" + ")" * 50)


def test_nesting_past_the_limit_is_a_source_error_at_the_first_paren_beyond():
    with pytest.raises(SourceError) as info:
        parse("(" * 2000 + "x" + ")" * 2000)
    assert info.value.offset == 100
    with pytest.raises(SourceError) as info:
        parse("1 + " + "exp(" * 101 + "x" + ")" * 101)
    assert info.value.offset == 4 + 4 * 100 + 3
    assert str(info.value) == (
        "at offset 407: expected at most 100 nested parentheses, found '('")


@pytest.mark.parametrize("text,offset", [("²", 0), ("x^²", 2), ("2*x + ٣", 6), ("x1²", 2)])
def test_only_ascii_digits_are_numbers(text, offset):
    with pytest.raises(SourceError) as info:
        parse(text)
    assert info.value.offset == offset
