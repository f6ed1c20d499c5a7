"""Property: ``substitute_all`` and ``value_at`` agree with the frozen
reference substitution, which multiplies every replaced factor through
``_multiply``.

Forms are sums of products of variable powers, negative ones included,
function atoms (nested, under negative powers, with constant or variable
arguments) and coefficients of up to a few thousand digits.  Values map
some of x, y, z to constants (0, 1, -1, proper fractions and rationals of
hundreds to thousands of digits) or to forms of one or more terms.  The
large ones reach ``MAX_POWER_DIGITS`` through a power or a product.  Each
case must give the same map, in the same insertion order, or the same
error type and message.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import _reference_substitute  # noqa: E402
from invdel import parse  # noqa: E402
from invdel.expr import substitute_all, value_at  # noqa: E402

FACTORS = (
    "x", "y", "z", "x^-2", "y^3", "z^-1", "x^12", "y^-5",
    "sin(x)", "sin(x)^-1", "cos(x - y)", "ln(y)^-1", "exp(x*z^-1)",
    "ln(x + y^2)^-2", "sin(sin(x)*y)", "cos(0)^-1", "ln(1 + z)^-1", "sin(2)",
    "-1", "3/7", "(7/3)^4000", "10^3000", "2^-3000",
)
TERMS = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=5).map("*".join)
FORMS = st.lists(TERMS, min_size=1, max_size=4).map(" + ".join)
VALUES = ("0", "1", "-1", "2/3", "-5/7", "10^1000", "10^2000", "(7/3)^-2000", "(2/5)^900",
          "x + 1", "y^-1", "2*z", "sin(y)", "x*y - 3", "0*x")
POINTS = st.dictionaries(st.sampled_from("xyz"), st.sampled_from(VALUES), max_size=3)


def outcome(substitute, text, point):
    try:
        form = parse(text)
        values = {name: parse(value) for name, value in point.items()}
        return list(substitute(form, values).items())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(FORMS, POINTS)
@example("x*y^-1", {"x": "0", "y": "0"})
@example("x*sin(x)*y^-1", {"x": "0", "y": "0"})
@example("x*sin(y)^-1*z^-1", {"x": "0", "y": "0", "z": "0"})
@example("x^12", {"x": "10^1000"})
@example("10^3000*x^8", {"x": "10^1000"})
@example("10^3000*x*y^8", {"x": "0", "y": "10^1000"})
@example("x*y^-12", {"x": "0", "y": "(7/3)^-2000"})
@example("x^2*y^-1", {"x": "0", "y": "x + 1"})
@example("x*sin(y) + x*sin(z)", {"x": "2/3", "y": "z", "z": "y"})
@example("sin(x)^-1 + ln(y)^-1", {"x": "0", "y": "1"})
def test_substitution_agrees_with_the_reference(text, point):
    assert outcome(substitute_all, text, point) == outcome(
        _reference_substitute.substitute_all, text, point)
    assert outcome(value_at, text, point) == outcome(
        _reference_substitute.value_at, text, point)
