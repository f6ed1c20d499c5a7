"""Property: ``parse`` agrees with the frozen reference parser on token soups.

Texts are joined from pieces of the token alphabet and just outside it:
names, function tags, zeros, 30- and 5000-digit integers, the seven
operators, the six ASCII spaces, ``_``, ``x_1``, non-ASCII characters and
powers whose products reach the coefficient budget.  Each text must give the same
map, in the same insertion order, or the same error type, offset and
message.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import _reference_parser  # noqa: E402
from invdel import InvdelError, parse  # noqa: E402

OUTSIDE = ("_", "²", "$", "é")
PIECES = OUTSIDE + (
    "x", "y", "rho", "x_1", "sin", "cos", "exp", "ln",
    "0", "00", "7", "3" * 30, "9" * 5000,
    "+", "-", "*", "/", "^", "(", ")",
    " ", "\t", "\r", "\n", "\f", "\v",
    "^-", "2^3000", "(7/3)^4000",
)
# Soups: half of them keep the pieces outside the alphabet; in the rest,
# most of which would end at the first bad character, they are dropped.
SOUPS = st.tuples(st.lists(st.sampled_from(PIECES), max_size=14), st.booleans()).map(
    lambda drawn: "".join(p for p in drawn[0] if drawn[1] or p not in OUTSIDE))
# Soups seldom parse, so half of the texts nest the same operands in the
# grammar, with spaces between tokens and '^' before any operand.
GAPS = st.sampled_from(("", "", " ", "\t", "\n\v"))
EXPRESSIONS = st.recursive(
    st.sampled_from(("x", "y", "rho", "x_1", "0", "00", "7", "3" * 30, "9" * 5000,
                     "2^3000", "(7/3)^4000")),
    lambda inner: st.one_of(
        st.tuples(inner, GAPS, st.sampled_from(("+", "-", "*", "/", "*-", "/-", "^", "^-")),
                  GAPS, inner).map("".join),
        st.tuples(st.sampled_from(("(", "-(", "sin(", "ln(")), inner, GAPS).map(
            lambda p: "".join(p) + ")")),
    max_leaves=8)


def outcome(parser, text):
    try:
        return list(parser(text).items())
    except InvdelError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.one_of(SOUPS, EXPRESSIONS))
@example("x  ")
@example("x*-y^-2*(7/3)^4000*(7/3)^4000/(7/3)^-4000/0")
@example("2^3000*x/(y - y)")
@example("sin(x_1 + 00)^-1/-rho*\v$")
@example("sin(x)*y + sin(x)^2 - sin( x )")
@example("sin(x) + cos(x) + sin(x+1) + sin(00)*sin(0)")
@example("sin(x)*" + "(" * 99 + "sin(x)" + ")" * 99)
@example("sin(x)*" + "(" * 100 + "sin(x)" + ")" * 100)
@example("sin(x) + sin(x")
@example("sin(x) + sin()")
def test_parse_agrees_with_the_reference_parser(text):
    assert outcome(parse, text) == outcome(_reference_parser.parse, text)
