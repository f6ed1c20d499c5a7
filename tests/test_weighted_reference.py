"""Property: ``weighted_split_integral`` agrees with the frozen reference.

Seeded forms of one to five terms mix integrable and refused terms in z,
with coefficients that are small rationals or powers of 2 near the
10000-digit budget.  Each is split by x, y or z with weights drawn from
{0, 1, -1, 1/3, 1/2, 2^-16610} and a term-pair budget that is the default or
lowered to 1, 2 or 3.  Each case must give the same form, or the same error
type, message, term and variable.
"""

import random
from fractions import Fraction

import _reference_weighted
import invdel.expr
from invdel import InvdelError, parse, weighted_split_integral

INTEGRABLE = ("x", "y*z", "z^2", "z^-1", "x*y^2", "1", "x*z^-1", "sin(z)",
              "cos(2*z + 1)", "exp(z/3)", "x*sin(y - z)", "y*exp(-z)")
REFUSED = ("z*sin(z)", "sin(z^2)", "ln(z)", "y*sin(x*z)", "cos(z)^2",
           "exp(z)*sin(z)")
WEIGHTS = (0, 1, -1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 2 ** 16610))
BUDGETS = (invdel.expr.MAX_PRODUCT_PAIRS, 1, 2, 3)


def random_coefficient(rng):
    if rng.random() < 0.5:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    return f"2^{rng.choice(('', '-'))}{rng.randint(33210, 33219)}"


def random_case(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        pool = REFUSED if rng.random() < 0.15 else INTEGRABLE
        sign = rng.choice(("", "-"))
        terms.append(parse(f"{sign}{random_coefficient(rng)}*{rng.choice(pool)}"))
    expression = sum(terms[1:], terms[0])
    split_var = rng.choice(("x", "y", "z"))
    return (expression, split_var, "z", rng.choice(WEIGHTS), rng.choice(WEIGHTS))


def outcome(integral, case):
    try:
        return integral(*case)
    except InvdelError as exc:
        return (type(exc), str(exc), getattr(exc, "term", None),
                getattr(exc, "variable", None))


def test_weighted_split_integral_agrees_with_the_reference(monkeypatch):
    rng = random.Random(16)
    seen = set()
    for _ in range(600):
        case = random_case(rng)
        monkeypatch.setattr(invdel.expr, "MAX_PRODUCT_PAIRS", rng.choice(BUDGETS))
        want = outcome(_reference_weighted.weighted_split_integral, case)
        assert outcome(weighted_split_integral, case) == want, case
        seen.add(want[1].split(" of ")[0] if isinstance(want, tuple) else "form")
    # Both budgets, refusals and forms were all reached.
    assert {"form", "expanding a product", "a coefficient product"} <= seen
    assert any(s.startswith("term ") for s in seen)
