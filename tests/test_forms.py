"""Canonical forms as the operators' value: results, numerics and work count."""

import functools
import math
import random
from fractions import Fraction

import pytest

from invdel import (
    BasePoint,
    BasePointSingular,
    UnsupportedExpression,
    VectorField,
    builtin,
    canonicalize,
    construct,
    cos,
    differentiate,
    equals,
    eval_numeric,
    exp,
    ln,
    num,
    parse,
    render,
    sin,
    var,
)
from invdel import expr
from invdel.errors import InvdelError
from invdel.expr import CanonicalForm, FunctionAtom, substitute_all

from _support import assert_reduced, fractions_of, reference_eval, reference_term_order

NAMES = ("x", "y", "z")


def random_argument(rng, depth):
    """A small polynomial, now and then with a function atom inside."""
    total = num(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 2)):
        term = num(Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3)))
        term = term * var(rng.choice(NAMES)) ** rng.randint(1, 2)
        if depth and rng.random() < 0.3:
            term = term * random_atom(rng, depth - 1)
        total = total + term
    return total


def random_atom(rng, depth):
    if rng.random() < 0.5:
        return var(rng.choice(NAMES)) ** rng.choice((-2, -1, 1, 2, 3))
    tag = rng.choice((sin, cos, exp, ln))
    return tag(random_argument(rng, depth)) ** rng.choice((-1, 1, 1, 2))


def random_form(rng):
    total = num(0)
    for _ in range(rng.randint(1, 4)):
        term = num(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(0, 3)):
            term = term * random_atom(rng, depth=1)
        total = total + term
    return total


def outcome(form, point, evaluate=eval_numeric):
    try:
        return evaluate(form, point).hex()
    except InvdelError as error:
        return f"{type(error).__name__}: {error}"


def test_form_evaluation_is_bit_identical_to_its_tree_spelling():
    rng = random.Random(20260218)
    values = errors = 0
    for _ in range(300):
        form = random_form(rng)
        for _ in range(10):
            point = {n: rng.uniform(-2.0, 2.0) for n in NAMES}
            got = outcome(form, point)
            assert got == outcome(form, point, reference_eval), render(form)
            if "Error" in got:
                errors += 1
            else:
                values += 1
    # Both the value path and the error path were exercised.
    assert values > 1000 and errors > 100


SLOTS = {name: i for i, name in enumerate(NAMES)}


def run_block(form, points):
    """``evaluate`` over the points as columns: their values and the indices
    of the points that left the domain."""
    columns = [[point[name] for point in points] for name in NAMES]
    failed = set()
    values = expr.evaluate(form, SLOTS, columns, len(points), failed=failed)
    assert len(values) == len(points)
    return values, failed


def assert_block_matches_each_point(form, points, evaluate):
    """Every point of one block reads ``evaluate``'s bits there, or is
    flagged exactly where ``evaluate`` raises DomainError; returns the
    number of flagged points."""
    values, failed = run_block(form, points)
    for i, point in enumerate(points):
        expected = outcome(form, point, evaluate)
        if i in failed:
            assert expected.startswith("DomainError: ") and math.isnan(values[i]), (
                render(form), point, expected)
        else:
            assert values[i].hex() == expected, (render(form), point)
    return len(failed)


def test_a_block_of_points_is_bit_identical_to_each_point():
    rng = random.Random(20260218)
    points = flagged = 0
    for _ in range(300):
        form = random_form(rng)
        block = [{n: rng.uniform(-2.0, 2.0) for n in NAMES} for _ in range(rng.randint(1, 12))]
        flagged += assert_block_matches_each_point(form, block, reference_eval)
        points += len(block)
    # Both the value path and the flagged path were exercised.
    assert points - flagged > 1000 and flagged > 100, (points, flagged)


MIXED_BLOCK = [
    {"x": x, "y": y, "z": z}
    for x in (-1.5, -0.0, 0.0, 0.7, 1.0, 2.0)
    for y in (-2.0, 0.5, 1.25, 2.0)
    for z in (-0.5, 0.0, 1.0)
]


@pytest.mark.parametrize("source", [
    "ln(x)",
    "x^-1 + y",
    "exp(800*x) - y",
    "sin(exp(700)*exp(701))",
    "sin(exp(700*x)*exp(701*x))*y",
    "exp(300*y)*exp(301*y) - exp(300*y)*exp(302*y)",
    "10^308*y + 10^308*z",
    "ln(x)*z + y^-2 + exp(800*x) + cos(exp(700*z)*exp(701*z)) + 10^308*x + 10^308*y",
    # A coefficient past the float range: every point is flagged.
    "10^400*x + y",
    "sin(10^400*x)*y",
])
def test_a_mixed_block_flags_exactly_the_points_that_raise(source):
    flagged = assert_block_matches_each_point(parse(source), MIXED_BLOCK, eval_numeric)
    assert 0 < flagged <= len(MIXED_BLOCK)


def nesting(form):
    """Length of the longest chain of function atoms, one inside the next."""
    return max((1 + nesting(a.argument) for f, _ in form.items() for a, _ in f
                if isinstance(a, FunctionAtom)), default=0)


def test_terms_follow_the_reference_term_order():
    rng = random.Random(20260309)
    negative = nested = 0
    for _ in range(300):
        form = random_form(rng)
        assert form.terms == tuple(
            sorted(form.items(), key=functools.cmp_to_key(reference_term_order))), render(form)
        negative += any(e < 0 for f, _ in form.items() for _, e in f)
        nested += nesting(form) > 1
    # The forms carry negative exponents and atoms nested in atoms.
    assert negative > 150 and nested > 50, (negative, nested)


def test_repr_rebuilds_an_equal_form():
    rng = random.Random(20260309)
    names = {"CanonicalForm": CanonicalForm, "FunctionAtom": FunctionAtom}
    for _ in range(300):
        form = random_form(rng)
        rebuilt = eval(repr(form), names)
        assert rebuilt == form and rebuilt.terms == form.terms


def test_every_map_holds_reduced_coefficient_pairs():
    # Forms from the generator and from every operator on them: sums,
    # differences, products, powers, derivatives, substitutions and
    # reciprocals of single terms.  An operator may refuse its operands.
    rng = random.Random(20260310)
    maps = 0
    for _ in range(300):
        f1, f2 = random_form(rng), random_form(rng)
        name = rng.choice(NAMES)
        value = num(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        operations = [lambda: f1, lambda: f1 + f2, lambda: f1 - f2, lambda: f2 - f1,
                      lambda: f1 * f2, lambda: f1 ** 2, lambda: f1 - f1,
                      lambda: differentiate(f1, name),
                      lambda: substitute_all(f1, {name: value})]
        for factors, coefficient in f1.items():
            operations.append(lambda term=CanonicalForm({factors: coefficient}): term ** -2)
        for operation in operations:
            try:
                form = operation()
            except UnsupportedExpression:
                continue
            assert_reduced(form._map)
            maps += 1
    assert maps > 3000, maps


def test_canonicalize_returns_a_form_itself():
    form = canonicalize(parse("x*sin(y) + 1/z"))
    assert isinstance(form, CanonicalForm)
    assert canonicalize(form) is form


DERIVATIVES = [
    ("x^2*y^3", "x", "2*x*y^3"),
    ("x*sin(x)", "x", "cos(x)*x + sin(x)"),
    ("sin(2*x)*exp(x*y)", "x", "2*cos(2*x)*exp(x*y) + exp(x*y)*sin(2*x)*y"),
    ("cos(x^2)", "x", "-2*sin(x^2)*x"),
    ("exp(sin(x))", "x", "cos(x)*exp(sin(x))"),
    ("x^-2*y", "x", "-2*x^-3*y"),
    ("r*sin(theta)^-1", "theta", "-cos(theta)*r*sin(theta)^-2"),
    ("sin(x*y)*cos(y)^2", "y", "cos(x*y)*cos(y)^2*x - 2*cos(y)*sin(x*y)*sin(y)"),
    ("x^3*ln(x)", "x", "3*ln(x)*x^2 + x^2"),
    ("ln(x^2*y)", "x", "2*x^-1"),
    ("ln(x^2*y)", "y", "y^-1"),
    ("ln(2*x)", "x", "x^-1"),
    ("exp(3*x - 1)", "z", "0"),
]


@pytest.mark.parametrize("source,name,expected", DERIVATIVES)
def test_form_derivative_golden_renders(source, name, expected):
    got = differentiate(parse(source), name)
    assert isinstance(got, CanonicalForm)
    assert render(got) == expected


def test_derivative_of_log_of_a_sum_is_unsupported():
    with pytest.raises(UnsupportedExpression) as info:
        render(differentiate(parse("ln(x+1)"), "x"))
    assert str(info.value) == (
        "reciprocal of a multi-term expression is outside the term algebra")


def test_substitution_of_several_variables_is_simultaneous():
    form = parse("x^2*y^-1 + z")
    assert equals(substitute_all(form, {"x": 2, "y": 4}), parse("1 + z"))
    with pytest.raises(UnsupportedExpression, match="reciprocal of zero"):
        substitute_all(form, {"x": 0, "y": 0})


def test_base_point_singularity_in_a_term_the_path_zeroes():
    # At the base point x = y = 0 the term x^2/y is 0/0, even though
    # substituting x first would drop the term.
    field = VectorField(
        tuple(parse(t) for t in ("9/4", "-5*z^3 - 3/4", "-9/2*x^2 - 2*x^2*y^-1 - 4")),
        builtin("cartesian"))
    with pytest.raises(BasePointSingular, match="reciprocal of zero"):
        construct("inv_grad", field, base=BasePoint(0, 0, 0), unchecked=True)


ERROR_PATH = [
    ("x^-1", {"x": 0.0}, "DomainError: zero raised to a negative power"),
    ("x^400*y", {"x": 10.0, "y": 1.0}, "DomainError: power overflow"),
    ("exp(x) + y", {"x": 1000.0, "y": 1.0}, "DomainError: exp overflow"),
    ("ln(x - 1)*y", {"x": 0.5, "y": 1.0}, "DomainError: ln of non-positive value -0.5"),
    ("sin(ln(x))", {"x": 0.0}, "DomainError: ln of non-positive value 0.0"),
    ("x + y", {"x": 1.0}, "UnboundVariable: y"),
    # One term skips fsum, so the sign of a negative zero survives.
    ("-x", {"x": 0.0}, (-0.0).hex()),
    ("-x*y^2", {"x": 0.0, "y": 3.0}, (-0.0).hex()),
    ("-x + y", {"x": 0.0, "y": 0.0}, (0.0).hex()),
    ("exp(300*y)*exp(301*y) - exp(300*y)*exp(302*y)", {"y": 2.0},
     "DomainError: sum of opposite infinities"),
    ("10^308*y + 10^308*z", {"y": 1.0, "z": 1.0}, "DomainError: sum overflow"),
    # The first failure in canonical term order, a coefficient's overflow among them.
    ("ln(-1) + 10^400", {}, "DomainError: ln of non-positive value -1.0"),
    ("sin(exp(1000) + 10^400)", {}, "DomainError: exp overflow"),
]


@pytest.mark.parametrize("source,point,expected", ERROR_PATH)
def test_form_evaluation_keeps_error_messages_and_negative_zero(source, point, expected):
    form = canonicalize(parse(source))
    assert outcome(form, point) == expected
    assert outcome(form, point, reference_eval) == expected


def reference_merge(f1, f2):
    """Factors of a product of two terms, merged by summing exponents and
    sorting on the atom keys, without the kernel's merge."""
    powers = {}
    for atom, e in f1 + f2:
        powers[atom] = powers.get(atom, 0) + e
    return tuple(sorted(((a, e) for a, e in powers.items() if e),
                        key=lambda pair: expr._atom_key(pair[0])))


def reference_multiply(d1, d2):
    """Every pair multiplied and accumulated in Fractions, with no fast path,
    for maps of Fraction coefficients."""
    acc = {}
    for f1, c1 in d1.items():
        for f2, c2 in d2.items():
            factors = reference_merge(f1, f2)
            acc[factors] = acc.get(factors, 0) + c1 * c2
    return {f: c for f, c in acc.items() if c}


def single_terms(rng, count):
    """Single-term kernel maps from the seeded random forms, each term now
    and then followed by its reciprocal, so that exponents cancel."""
    terms = []
    while len(terms) < count:
        for factors, coeff in random_form(rng).items():
            terms.append({factors: coeff})
            if rng.random() < 0.3:
                inverse = 1 / Fraction(*coeff)
                terms.append({tuple((a, -e) for a, e in factors):
                              (inverse.numerator, inverse.denominator)})
    return terms


def test_single_term_products_match_the_general_product():
    rng = random.Random(20260404)
    terms = single_terms(rng, 600)
    cancelled = 0
    for d1, d2 in zip(terms, terms[1:]):
        got = expr._multiply(d1, d2)
        assert fractions_of(got) == reference_multiply(fractions_of(d1), fractions_of(d2))
        cancelled += got == {(): (1, 1)}
    # A term times its reciprocal cancels every exponent.
    assert cancelled > 50
    for _ in range(200):
        f1, f2 = random_form(rng), random_form(rng)
        assert fractions_of((f1 * f2)._map) == reference_multiply(
            fractions_of(f1._map), fractions_of(f2._map))


def test_left_to_right_products_match_the_reference_product():
    rng = random.Random(20260405)
    terms = single_terms(rng, 800)
    for start in range(0, 800, 4):
        children = terms[start:start + rng.randint(2, 5)]
        if rng.random() < 0.3:
            # A sum, a zero or a one among the children takes the general,
            # empty and unit paths of the product.
            children.insert(rng.randrange(len(children) + 1),
                            rng.choice((parse("x + 2*y"), num(0), num(1)))._map)
        if len(children) < 2:
            continue
        want = {(): Fraction(1)}
        for child in children:
            want = reference_multiply(want, fractions_of(child))
        assert fractions_of(functools.reduce(expr._multiply, children)) == want


@pytest.mark.parametrize("source,expected", [
    ("x*x^-1", "1"),
    ("3*x^2*y*x^-2*z", "3*y*z"),
    ("2*x*sin(y)*x^-1*sin(y)^-1/2", "1"),
    ("x*(x + 1)*x^-1", "x + 1"),
    ("0*(x + y)*x", "0"),
])
def test_cancelling_products_render(source, expected):
    assert render(parse(source)) == expected


def test_product_past_the_expansion_budget_is_unsupported():
    assert expr.MAX_PRODUCT_PAIRS == 100_000
    # 317 * 317 term pairs are past the budget, 316 * 316 are not.
    with pytest.raises(UnsupportedExpression, match="budget of 100000 term pairs"):
        canonicalize(parse("(x+1)^316*(y+1)^316"))
    assert len(canonicalize(parse("(x+1)^315*(y+1)^315"))._map) == 316 * 316


def test_coefficient_beyond_the_float_range_is_a_domain_error():
    form = parse("7" * 400 + "*x")
    for evaluate in (eval_numeric, reference_eval):
        assert outcome(form, {"x": 1.0}, evaluate) == "DomainError: coefficient overflow"


@pytest.mark.parametrize("build", [
    lambda: parse("3^10000000"),
    lambda: parse("x*(7/3)^3000000"),
    lambda: parse("(2*x)^-10000000"),
    lambda: parse("x/10^10001"),
    lambda: parse("2^" + "9" * 400),
    lambda: parse("((2*x)^9000)^9000"),
    lambda: num(3) ** 10_000_000,
    lambda: parse("3*x") ** 10_000_000,
])
def test_coefficient_power_past_the_digit_budget_is_unsupported(build):
    assert expr.MAX_POWER_DIGITS == 10_000
    with pytest.raises(UnsupportedExpression, match="more than 10000 digits exceeds the budget"):
        build()


def test_coefficient_power_within_the_digit_budget_is_computed():
    assert parse("x/10^10000") == parse("x") * Fraction(1, 10 ** 10000)
    assert parse("(2*x)^20000") == CanonicalForm({(("x", 20000),): (2 ** 20000, 1)})
    # A unit coefficient raises nothing, whatever the exponent.
    assert parse("(-x)^10000001") == parse("-x^10000001")


@pytest.mark.parametrize("build", [
    lambda: parse("(2^9000*x + 1)^300"),
    lambda: parse("(2^16609*x + 1)^2"),
    lambda: parse("(x + 2^-16609)*(y + 2^-16609)"),
    lambda: (num(2) ** 9000 * var("x") + 1) ** 300,
    lambda: parse("(2^9000*x + 1)^2") * parse("(3^6000*y + 1)^2"),
    lambda: parse("*".join(["(7/3)^4000"] * 300)),
    lambda: parse("(x + 1)*" + "*".join(["(7/3)^4000"] * 100)),
    lambda: parse("2^11000*2^11000*2^11000*2^300"),
    lambda: num(7, 3) ** 4000 * num(7, 3) ** 4000 * var("x") * num(7, 3) ** 4000,
])
def test_coefficient_product_past_the_digit_budget_is_unsupported(build):
    # Estimated from the operands' largest numerator and denominator bit
    # lengths: 2 * 16610 bits is past 10000 digits, 2 * 16609 is not.
    with pytest.raises(UnsupportedExpression,
                       match="coefficient product of more than 10000 digits exceeds the budget"):
        build()


def test_coefficient_product_within_the_digit_budget_is_computed():
    assert parse("(2^16608*x + 1)^2") == parse("2^33216*x^2 + 2^16609*x + 1")
    assert parse("(x + 2^-16608)*(y + 2^-16608)") == (
        parse("x*y") + parse("x + y") / 2 ** 16608 + Fraction(1, 2 ** 33216))
    # Three factors of 9001 bits stay within it, and the result is refused
    # only when it is rendered.
    cube = parse("(2^9000*x + 1)^3")
    assert cube.terms[0] == ((('x', 3),), (2 ** 27000, 1))
    with pytest.raises(UnsupportedExpression, match="rendering a number"):
        render(cube)
    # Along a chain of single terms the bit lengths add: 22002 + 11001 bits
    # is within the budget, one more factor of 301 bits is not.
    assert parse("2^11000*2^11000*2^11000") == num(2) ** 33000
    assert parse("x*2^11000*y*2^11000*2^11000") == parse("x*y") * 2 ** 33000
