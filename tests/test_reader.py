"""The one reader of rationals from outside: weights, base points and a
system's base coordinates hold reduced int pairs, and each reads any value
exactly as ``Fraction`` reads it, with ``Fraction``'s own error text, though
only text that is not a plain ratio of ASCII integers goes to ``Fraction``.
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invdel import BasePoint, DivergenceWeights, ValidationError, custom, num  # noqa: E402
from invdel.errors import _echoed  # noqa: E402

# The reading of values when they were held as Fractions: text whose decimal
# exponent is past 10000 is refused, and anything else is Fraction(value).
EXPONENT = re.compile(r"\s*[-+]?[\d_]*(?:\.[\d_]*)?[eE][-+]?([\d_]+)\s*")
BUDGET = "a decimal exponent past 10000 exceeds the budget"
ERRORS = (ValueError, TypeError, OverflowError, ZeroDivisionError)


def fraction_reading(value) -> Fraction:
    if isinstance(value, str):
        match = EXPONENT.fullmatch(value)
        if match:
            digits = match[1].replace("_", "").lstrip("0")
            if len(digits) > 5 or int(digits or 0) > 10000:
                raise ValueError(BUDGET)
    return Fraction(value)


def outcome(build):
    """The value ``build`` makes, or the text of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def check_reading(value) -> None:
    """Weights, a base point and a custom system each read ``value`` as a
    Fraction-held value would: the same pair, or the same error text."""
    stripped = value.strip() if isinstance(value, str) else value
    try:
        want = fraction_reading(stripped)
    except ERRORS as exc:
        refusal = f"{_echoed(repr(value))}: {_echoed(str(exc))}"
        assert outcome(lambda: DivergenceWeights(value, 1, 0)) == f"bad weight {refusal}"
        assert outcome(lambda: BasePoint(0, value, 0)) == f"bad base coordinate {refusal}"
        assert outcome(lambda: BasePoint(0, 0, 0, value)) == f"bad constant {refusal}"
    else:
        pair = (want.numerator, want.denominator)
        weights = DivergenceWeights(value, 1 - want, 0)
        point = BasePoint(0, value, 0, value)
        assert weights._pairs[0] == pair and point._pairs[1] == point._pairs[3] == pair
        assert weights.k1 == point.b == point.c0 == want
        assert type(weights.k1) is type(point.b) is Fraction
        if isinstance(value, str):
            assert weights.k1 == Fraction(value)
        if want != 1:
            try:
                got = f"{want} + 0 + 0"
            except ValueError:
                got = "a weight past the interpreter's digit limit"
            assert outcome(lambda: DivergenceWeights(value, 0, 0)) == (
                f"divergence weights must sum to 1, got {got}")

    # A system's base point is not stripped first; Fraction strips it.
    try:
        want = fraction_reading(value)
    except ERRORS as exc:
        want = f"base point must be rational: {_echoed(str(exc))}"
    system = outcome(lambda: custom(("x", "y", "z"), ("1", "1", "1"), (value, 0, 0),
                                    ((-1, 1),) * 3))
    if isinstance(want, str):
        assert system == want
    else:
        assert system._base[0] == (want.numerator, want.denominator)
        assert system.base_point == (want, 0, 0)


EDGES = (
    "0", "-0", "+7", "007", "-3/6", "3/-6", "4/2", " 1/3 ", "\t-2/4\n", "1 /3", "1/ 3",
    " 1/3", "1/3\u3000", "1/0", "0/0", "-5/00", "/3", "1/", "1//3", "", " ", "-",
    "+-1", "1_000", "1_000/3", "_1", "1__0", "1/3_0", "0.5", ".5", "5.", "1e3", "1E-3",
    "2.5e+2", "1e10000", "1e10001", "1e100000000", "1e1_0000", "٣", "١/٢", "३/४", "²",
    "x", "1/3x", "0x10", "inf", "nan", "7" * 4300, "7" * 4301, "7" * 5000,
    "1/" + "3" * 5000, "-" + "9" * 5000 + "/7",
    0, 1, -4, True, Fraction(-3, 6), 0.5, float("inf"), Decimal("0.1"), None, [1], 10 ** 5000,
)


def label(value) -> str:
    try:
        return repr(value)[:40]
    except ValueError:  # an int past the digit limit
        return "int past the digit limit"


@pytest.mark.parametrize("value", EDGES, ids=label)
def test_a_value_is_read_as_fraction_reads_it(value):
    check_reading(value)


spaces = st.sampled_from(("", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000"))
inner = st.sampled_from(("", "", "", " ", "\u2003"))
signs = st.sampled_from(("", "", "+", "-"))
ascii_digits = st.text("0123456789", min_size=1, max_size=8)
integers = st.one_of(
    ascii_digits,
    st.text("0123456789٠١٢٣٤٥٦٧٨٩०१२३४५६७८९", min_size=1, max_size=4),
    st.lists(ascii_digits, min_size=2, max_size=3).map("_".join),
    st.sampled_from(("0", "00", "", "_", "²")),
    st.integers(4290, 5000).map(lambda n: "7" * n),
)
denominators = st.one_of(
    st.just(""),
    st.tuples(inner, inner, integers).map(lambda t: f"{t[0]}/{t[1]}{t[2]}"),
    st.sampled_from(("/0", "/00", "/-1", "/")),
)
decimals = st.tuples(
    st.sampled_from(("", ".", ".5")) | ascii_digits.map(".".__add__),
    st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), signs, integers).map("".join),
              st.sampled_from(("e10000", "e10001", "e99999999999", "e0010000"))),
).map("".join)
texts = st.one_of(
    st.tuples(spaces, signs, inner, integers, denominators | decimals, spaces).map("".join),
    st.text(max_size=6),
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(texts)
def test_text_is_read_as_fraction_reads_it(text):
    check_reading(text)


@pytest.mark.parametrize("numerator,denominator", [
    (3, 7), (-4, 6), (4, -6), (0, 5), (0, -5), (Fraction(1, 2), 3), (3, Fraction(1, 2)),
    (Fraction(-2, 3), Fraction(4, 9)), (True, 1), (5, True), (10 ** 5000, 3),
    (1, 0), (Fraction(1, 2), 0), (3, Fraction(0)), (0, 0), (1.5, 1), ("1/2", 1), (1, 2.0),
    (None, 1),
], ids=label)
def test_num_is_the_constant_fraction_gives(numerator, denominator):
    try:
        want = Fraction(numerator, denominator)
    except ERRORS as exc:
        with pytest.raises(type(exc)) as info:
            num(numerator, denominator)
        assert str(info.value) == str(exc)
    else:
        assert num(numerator, denominator)._map == (
            {(): (want.numerator, want.denominator)} if want else {})
