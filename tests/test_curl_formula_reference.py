"""Property: ``curl_potential_formula`` agrees with the frozen six-call
assembly in ``_reference_curl_formula``.

Seeded fields of up to four terms per component mix integrable terms with
terms refused in one coordinate, with coefficients that are small rationals
or powers of 2 near the 10000-digit budget.  They live in the builtin
systems and in custom ones: a scale factor 2*rho, whose reciprocal scales
every coefficient, and a multi-term scale factor in the first or the last
place, whose reciprocal is refused.  Weights are drawn from
{0, 1, -1, 1/3, 1/2, 2^-16610} and the term-pair budget is the default or
lowered to 1, 2 or 3.  Each case must give the same field, or the same
error type, message, term and variable.
"""

import random
from fractions import Fraction

import _reference_curl_formula
import invdel.expr
from invdel import (
    CurlWeights,
    InvdelError,
    NotIntegrable,
    VectorField,
    builtin,
    curl_integrands,
    curl_potential_formula,
    custom,
    parse,
)

BOX = ((0.5, 2), (0.5, 2), (0.5, 2))
SYSTEMS = (
    builtin("cartesian"),
    builtin("cylindrical"),
    builtin("spherical"),
    custom(("rho", "phi", "z"), ("1", "2*rho", "1"), (1, 0, 0), BOX),
    custom(("u", "v", "w"), ("1 + u^2", "1", "1"), (0, 0, 0), BOX),
    custom(("u", "v", "w"), ("1", "v", "w^2 + 1"), (0, 1, 0), BOX),
)
# {a} is the coordinate a refused term is refused in; {b} and {c} are the others.
INTEGRABLE = ("{a}", "{a}*{b}", "{a}^2*{c}", "{b}^-1", "sin({a})", "cos(2*{b} + 1)",
              "exp({c}/3)", "{a}*sin({b} - {c})", "1")
REFUSED = ("{a}*sin({a})", "sin({a}^2)", "ln({a})", "cos({a})^2", "exp({a})*sin({a})")
WEIGHTS = (0, 1, -1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 2 ** 16610))
# The default half the time: a budget of 1, 2 or 3 refuses most fields.
BUDGETS = (invdel.expr.MAX_PRODUCT_PAIRS,) * 3 + (1, 2, 3)


def random_coefficient(rng):
    if rng.random() < 0.85:
        return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    return f"2^{rng.choice(('', '-'))}{rng.randint(33210, 33219)}"


def random_component(rng, names):
    terms = ["0"]
    for _ in range(rng.randint(0, 4)):
        pool = REFUSED if rng.random() < 0.2 else INTEGRABLE
        a, b, c = rng.sample(names, 3)
        sign = rng.choice(("", "-"))
        terms.append(f"{sign}{random_coefficient(rng)}*" + rng.choice(pool).format(a=a, b=b, c=c))
    return parse(" + ".join(terms))


def random_case(rng):
    system = rng.choice(SYSTEMS)
    B = VectorField(tuple(random_component(rng, system.names) for _ in range(3)), system)
    return B, CurlWeights(rng.choice(WEIGHTS), rng.choice(WEIGHTS))


def outcome(formula, case):
    try:
        return formula(*case)
    except InvdelError as exc:
        return (type(exc), str(exc), getattr(exc, "term", None),
                getattr(exc, "variable", None))


def refused_slot(B, want):
    """(integrand, variable) of a refusal: the first c_m holding the term."""
    if not (isinstance(want, tuple) and want[0] is NotIntegrable):
        return None
    (factors, _), = want[2].items()
    m = next(m for m, c in enumerate(curl_integrands(B)) if factors in dict(c.items()))
    return m, B.system.names.index(want[3])


def test_curl_potential_formula_agrees_with_the_reference(monkeypatch):
    rng = random.Random(20)
    seen = set()
    slots = set()
    for _ in range(400):
        case = random_case(rng)
        monkeypatch.setattr(invdel.expr, "MAX_PRODUCT_PAIRS", rng.choice(BUDGETS))
        want = outcome(_reference_curl_formula.curl_potential_formula, case)
        assert outcome(curl_potential_formula, case) == want, case
        seen.add(want[1].split(" of ")[0] if isinstance(want, tuple) else "field")
        slots.add(refused_slot(case[0], want))
    # Fields, both budgets and the refused reciprocal were all reached, and
    # a refusal in each of the six (integrand, variable) slots.
    assert {"field", "expanding a product", "a coefficient product", "reciprocal"} <= seen
    assert {(m, v) for m in range(3) for v in range(3) if v != m} <= slots


# Cartesian fields whose first component meets two errors; the message the
# reference raises, and the budget of term pairs.
FIRST_ERROR_CASES = (
    # W(c1; y, dz) scales 2^33218*x*z past the coefficient budget before it
    # meets y*sin(z^2), which it cannot integrate: the refusal wins.
    (("0", "2^33218*x + y*sin(z^2)", "0"), "term sin(z^2)*y has no antiderivative", 100_000),
    # The two W of A_0 each refuse a term: W(c1; y, dz) is taken first.
    (("0", "y*sin(z^2)", "z*sin(y^2)"), "term sin(z^2)*y has no antiderivative", 100_000),
    # The plus part of W(c1; y, dz) is past the coefficient budget and the
    # rest past the pair budget, and the other way round: the plus part wins.
    (("0", "2^33218*y + x + x^2 + x^3", "0"), "a coefficient product", 2),
    (("0", "y + y^2 + y^3 + 2^33218*x", "0"), "expanding a product", 2),
)


def test_the_first_error_of_a_component_is_the_references(monkeypatch):
    for texts, message, budget in FIRST_ERROR_CASES:
        monkeypatch.setattr(invdel.expr, "MAX_PRODUCT_PAIRS", budget)
        B = VectorField(tuple(map(parse, texts)), builtin("cartesian"))
        case = (B, CurlWeights("1/3", "1/2"))
        want = outcome(_reference_curl_formula.curl_potential_formula, case)
        assert outcome(curl_potential_formula, case) == want, texts
        assert want[1].startswith(message), (texts, want)
