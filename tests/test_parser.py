"""Grammar, round-trip and rendering tests for the expression parser."""

import random
import re
from fractions import Fraction

import pytest

from invdel import (
    SourceError,
    UnsupportedExpression,
    cos,
    equals,
    exp,
    ln,
    num,
    parse,
    render,
    sin,
    var,
)
from invdel.expr import CanonicalForm, canonicalize
from invdel.parser import MAX_NESTING

import _reference_parser
from _support import random_polynomial


def test_parse_returns_the_canonical_form():
    form = parse("x*y*z + y^2")
    assert isinstance(form, CanonicalForm)
    one = (1, 1)
    assert form.terms == (((("x", 1), ("y", 1), ("z", 1)), one), ((("y", 2),), one))
    assert canonicalize(form) is form


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


def _function_atoms(form):
    return [atom for factors in form._map for atom, _ in factors if not isinstance(atom, str)]


@pytest.mark.parametrize("text", ["sin(x)*y + sin(x)^2", "sin( x )*y + sin(x)"])
def test_a_repeated_flat_call_shares_its_first_atom(text):
    first, second = _function_atoms(parse(text))
    assert first is second


@pytest.mark.parametrize("text,want", [
    ("sin(x)*y + cos(x)", sin(var("x")) * var("y") + cos(var("x"))),
    ("sin(x)*y + sin(x+1)", sin(var("x")) * var("y") + sin(var("x") + 1)),
    ("sin(00)*y + sin(0)", sin(num(0)) * var("y") + sin(num(0))),
])
def test_calls_with_other_tags_or_argument_tokens_share_no_atom(text, want):
    form = parse(text)
    assert form == want
    first, second = _function_atoms(form)
    assert first is not second


def test_the_call_table_lasts_one_parse():
    (first,), (second,) = _function_atoms(parse("sin(x)")), _function_atoms(parse("sin(x)"))
    assert first == second and first is not second


@pytest.mark.parametrize("depth", [99, 100])
def test_a_repeated_call_at_the_nesting_limit_agrees_with_the_reference(depth):
    text = "sin(x)*" + "(" * depth + "sin(x)" + ")" * depth
    if depth < MAX_NESTING:
        assert list(parse(text).items()) == list(_reference_parser.parse(text).items())
        return
    with pytest.raises(SourceError) as info:
        parse(text)
    with pytest.raises(SourceError) as reference:
        _reference_parser.parse(text)
    assert info.value.offset == reference.value.offset == 7 + depth + 3
    assert str(info.value) == str(reference.value)


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


# (text, error type, offset, message), as the parser that built trees gave
# them; a SourceError's offset is its own, any other error has None.
PARSE_ERRORS = [
    ("", "SourceError", 0, "at offset 0: expected an expression, found end of input"),
    ("x +", "SourceError", 3, "at offset 3: expected an expression, found end of input"),
    ("(x", "SourceError", 2, "at offset 2: expected ')', found end of input"),
    ("x)", "SourceError", 1, "at offset 1: expected end of input, found ')'"),
    ("x^", "SourceError", 2, "at offset 2: expected an integer exponent, found end of input"),
    ("x^y", "SourceError", 2, "at offset 2: expected an integer exponent, found 'y'"),
    ("2x", "SourceError", 1, "at offset 1: expected end of input, found 'x'"),
    ("x**2", "SourceError", 2, "at offset 2: expected an expression, found '*'"),
    ("@", "SourceError", 0, "at offset 0: expected a token, found character '@'"),
    ("x//y", "SourceError", 2, "at offset 2: expected an expression, found '/'"),
    ("()", "SourceError", 1, "at offset 1: expected an expression, found ')'"),
    ("²", "SourceError", 0, "at offset 0: expected a token, found character '²'"),
    ("x^²", "SourceError", 2, "at offset 2: expected a token, found character '²'"),
    ("_x", "SourceError", 0, "at offset 0: expected a token, found character '_'"),
    # Only the six ASCII space characters separate tokens.
    ("x +\xa0y", "SourceError", 3, "at offset 3: expected a token, found character '\\xa0'"),
    ("x\u2003", "SourceError", 1, "at offset 1: expected a token, found character '\\u2003'"),
    # The bad character is reported before the missing ')'.
    ("x + (y $", "SourceError", 7, "at offset 7: expected a token, found character '$'"),
    ("sin", "SourceError", 3, "at offset 3: expected '(' after function name, found end of input"),
    ("sin x", "SourceError", 4, "at offset 4: expected '(' after function name, found 'x'"),
    ("sin(x", "SourceError", 5, "at offset 5: expected ')', found end of input"),
    ("x*y -", "SourceError", 5, "at offset 5: expected an expression, found end of input"),
    ("x^--2", "SourceError", 3, "at offset 3: expected an integer exponent, found '-'"),
    ("x^2^3", "SourceError", 3, "at offset 3: expected end of input, found '^'"),
    ("(" * 101 + "x" + ")" * 101, "SourceError", 100,
     "at offset 100: expected at most 100 nested parentheses, found '('"),
    ("cos(" * 101 + "x" + ")" * 101, "SourceError", 403,
     "at offset 403: expected at most 100 nested parentheses, found '('"),
    ("x/(y+1)", "UnsupportedExpression", None,
     "division at offset 1: reciprocal of a multi-term expression is outside the term algebra"),
    ("1/(x - x)", "UnsupportedExpression", None, "division at offset 1: reciprocal of zero"),
    ("x/0", "UnsupportedExpression", None, "division at offset 1: reciprocal of zero"),
    ("x/(y/(z+1))", "UnsupportedExpression", None,
     "division at offset 4: reciprocal of a multi-term expression is outside the term algebra"),
    ("1/(x + y/(z - z))", "UnsupportedExpression", None,
     "division at offset 8: reciprocal of zero"),
    ("1/((x+1)^-1)", "UnsupportedExpression", None,
     "division at offset 1: reciprocal of a multi-term expression is outside the term algebra"),
    ("2*y/sin((x+1)^-1)", "UnsupportedExpression", None,
     "division at offset 3: reciprocal of a multi-term expression is outside the term algebra"),
    ("1/(y/((x+1)^-1))", "UnsupportedExpression", None,
     "division at offset 4: reciprocal of a multi-term expression is outside the term algebra"),
]


@pytest.mark.parametrize("text,kind,offset,message", PARSE_ERRORS)
def test_parse_errors_keep_their_type_offset_and_message(text, kind, offset, message):
    with pytest.raises((SourceError, UnsupportedExpression)) as info:
        parse(text)
    assert type(info.value).__name__ == kind
    assert getattr(info.value, "offset", None) == offset
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("x/y + (x+1)^-1", "reciprocal of a multi-term expression is outside the term algebra"),
    ("1/x*(0)^-2", "reciprocal of zero"),
])
def test_errors_outside_a_divisor_are_not_reported_as_a_division(text, message):
    # As canonicalizing the parsed tree reported them, with no division offset.
    with pytest.raises(UnsupportedExpression) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,offset", [
    ("7" * 5000 + "*x", 0),
    ("x + 2^" + "3" * 5000, 6),
    ("x^-" + "1" * 5000, 3),
])
def test_integer_past_the_digit_limit_is_a_source_error(text, offset):
    with pytest.raises(SourceError) as info:
        parse(text)
    assert info.value.offset == offset
    assert str(info.value) == (
        f"at offset {offset}: expected an integer within the interpreter's digit "
        "limit, found a 5000-digit integer")


def test_coefficient_past_the_digit_limit_is_unsupported_when_rendered():
    form = parse("(2*x)^20000")
    with pytest.raises(UnsupportedExpression, match="about 6021 digits"):
        render(form)
    with pytest.raises(UnsupportedExpression):
        render(parse("x/3^10000"))
    with pytest.raises(UnsupportedExpression):
        render(parse("(x^" + "9" * 3000 + ")^" + "9" * 3000))


@pytest.mark.parametrize("source,expected", [
    ("--x", "x"),
    ("---x^2", "-x^2"),
    ("x*--y", "x*y"),
    ("2 - -x", "x + 2"),
    ("-(-x)^3", "x^3"),
])
def test_repeated_unary_minus(source, expected):
    assert render(parse(source)) == expected


FUNCTIONS = (sin, cos, exp, ln)

# The generators below return (text, form, divisor) triples built side by
# side from the same draws: the fully parenthesized text of a value, its
# form, and, for a reciprocal, the text it is divided by when it is the right
# factor of a product (None otherwise).


def constant(value):
    value = Fraction(value)
    if value.denominator == 1:
        return f"({value.numerator})", num(value), None
    divisor = str(value.denominator) if value.numerator == 1 else None
    return f"({value.numerator}/{value.denominator})", num(value), divisor


def variable(name):
    return name, var(name), None


def times(left, right):
    if right[2]:
        return f"({left[0]}/{right[2]})", left[1] * right[1], None
    return f"({left[0]}*{right[0]})", left[1] * right[1], None


def power(base, exponent):
    if exponent == 0:
        return constant(1)
    divisor = f"({base[0]}^{-exponent})" if exponent < 0 else None
    return f"({base[0]}^{exponent})", base[1] ** exponent, divisor


def apply(function, argument):
    return f"{function.__name__}({argument[0]})", function(argument[1]), None


def random_single_term(rng, depth):
    """A value whose form is one nonzero term."""
    value = constant(Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4:
            part = variable(rng.choice(("x", "y", "z")))
        elif roll < 0.7:
            part = power(variable(rng.choice(("x", "y", "z"))), rng.choice((-2, -1, 2, 3)))
        else:
            part = apply(rng.choice(FUNCTIONS), random_value(rng, depth - 1))
        value = times(value, part) if rng.random() < 0.7 else times(part, value)
    return value


def random_value(rng, depth):
    """A value whose form exists: sums, negations, nested products with now
    and then a zero factor, positive powers, negative powers of single terms,
    division by constants and by single terms, and function arguments."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        leaf = constant(rng.randint(-4, 4))
        return rng.choice((variable("x"), variable("y"), variable("z"), leaf))
    if roll < 0.35:
        value = random_value(rng, depth - 1)
        for _ in range(rng.randint(1, 2)):
            text, form, _ = random_value(rng, depth - 1)
            if rng.random() < 0.5:
                value = f"({value[0]} + {text})", value[1] + form, None
            else:
                value = f"({value[0]} + (-{text}))", value[1] - form, None
        return value
    if roll < 0.42:
        text, form, _ = random_value(rng, depth - 1)
        return f"(-{text})", -form, None
    if roll < 0.57:
        value = times(random_value(rng, depth - 1), random_value(rng, depth - 1))
        if rng.random() < 0.5:
            value = times(value, constant(0) if rng.random() < 0.2
                          else random_value(rng, depth - 1))
        return value
    if roll < 0.65:
        return power(random_value(rng, depth - 1), rng.randint(0, 3))
    if roll < 0.72:
        return power(random_single_term(rng, depth - 1), rng.choice((-3, -2, -1)))
    if roll < 0.8:
        value = random_value(rng, depth - 1)
        return times(value, constant(1 / Fraction(rng.choice((2, 3, Fraction(4, 3), -5)))))
    if roll < 0.9:
        return times(random_value(rng, depth - 1),
                     power(random_single_term(rng, depth - 1), -rng.randint(1, 2)))
    return apply(rng.choice(FUNCTIONS), random_value(rng, depth - 1))


def test_parsed_spelling_equals_the_constructed_form():
    rng = random.Random(20260505)
    texts = []
    for _ in range(400):
        text, form, _ = random_value(rng, 4)
        assert parse(text) == form, text
        texts.append(text)
    # The spellings reach every construct the grammar has.
    for piece in ("+", "(-", "*", ")^-", "/(", "sin(", "cos(", "exp(", "ln(", "*(0)"):
        assert sum(piece in text for text in texts) >= 10, piece
    assert sum(re.search(r"\)/[0-9]", text) is not None for text in texts) >= 10


SPACES = " \t\r\n\f\v"


@pytest.mark.parametrize("space", SPACES)
def test_each_ascii_space_is_skipped_leading_trailing_and_alone(space):
    # Pinned from the parser that tokenized into (kind, text, offset) tuples.
    for text in (space + "x", "x" + space, 2 * space + "x" + 2 * space):
        assert parse(text) == parse("x"), repr(text)
    for text, offset, found in [
        (space, 1, "end of input"),
        (3 * space, 3, "end of input"),
        (space + "$", 1, "character '$'"),
        ("x" + 2 * space + "$", 3, "character '$'"),
    ]:
        with pytest.raises(SourceError) as info:
            parse(text)
        assert info.value.offset == offset
        expected = "a token" if found.startswith("character") else "an expression"
        assert str(info.value) == f"at offset {offset}: expected {expected}, found {found}"


@pytest.mark.parametrize("text,message", [
    ("x  ", None),
    ("\t\t(x)\n", None),
    ("x + \t", "at offset 5: expected an expression, found end of input"),
    ("x\v\f@ + (", "at offset 3: expected a token, found character '@'"),
])
def test_mixed_spaces_keep_their_result(text, message):
    if message is None:
        assert render(parse(text)) == "x"
        return
    with pytest.raises(SourceError) as info:
        parse(text)
    assert str(info.value) == message
