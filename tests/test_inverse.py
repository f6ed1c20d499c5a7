"""Inverse curl, inverse divergence and inverse gradient."""

import random
from fractions import Fraction

import pytest

import invdel.inverse
from invdel import (
    DEFAULT_CURL_WEIGHTS,
    BasePoint,
    BasePointSingular,
    ConstructionFailed,
    CurlWeights,
    DivergenceWeights,
    NotConservative,
    NotIntegrable,
    NotSolenoidal,
    ScalarField,
    UnsupportedExpression,
    ValidationError,
    VectorField,
    builtin,
    canonicalize,
    curl,
    curl_integrands,
    curl_potential_formula,
    custom,
    differentiate,
    divergence,
    equals,
    free_variables,
    gauge_shift_curl,
    gauge_shift_div,
    gradient,
    inverse_curl,
    inverse_curl_unchecked,
    inverse_divergence,
    inverse_gradient,
    inverse_gradient_unchecked,
    is_zero,
    parse,
    render,
    split_by_variable,
)
from invdel.expr import ZERO_FORM
from invdel.inverse import roundtrip_residual
from invdel.vecops import curl_numerators

from _support import random_scalar, random_vector

CARTESIAN = builtin("cartesian")
CYLINDRICAL = builtin("cylindrical")
SPHERICAL = builtin("spherical")


def vec(system, *texts):
    return VectorField(tuple(parse(t) for t in texts), system)


GOLDEN_B = ("x*y*z + y^2", "x*z + y", "-z - y*z^2/2")
GOLDEN_A = (
    "x*z^2/4 + y^2*z^2/12 + 2*y*z/3",
    "-x*y*z^2/3 - x*z/3 - y^2*z/2",
    "-x^2*z/4 + x*y^2*z/6 - x*y/3 + y^3/6",
)


def test_known_vector_potential_is_reproduced_exactly():
    A = inverse_curl(vec(CARTESIAN, *GOLDEN_B))
    assert tuple(render(c) for c in A.components) == GOLDEN_A


def test_inverse_curl_of_zero_is_zero():
    A = inverse_curl(vec(CARTESIAN, "0", "0", "0"))
    assert all(is_zero(c) for c in A.components)


def test_inverse_curl_of_cyclic_field():
    A = inverse_curl(vec(CARTESIAN, "y", "z", "x"))
    expected = ("z^2/4 - x*y/2", "x^2/4 - y*z/2", "y^2/4 - x*z/2")
    for got, want in zip(A.components, expected):
        assert equals(got, parse(want))


def test_inverse_curl_rejects_nonsolenoidal_input():
    with pytest.raises(NotSolenoidal) as info:
        inverse_curl(vec(CARTESIAN, "x", "0", "0"))
    assert render(info.value.residual) == "1"


def test_unchecked_inverse_curl_reports_residual():
    A, residual = inverse_curl_unchecked(vec(CARTESIAN, "x", "0", "0"))
    assert render(residual) == "1"
    assert not all(
        equals(c, b) for c, b in zip(curl(A).components, (parse("x"), parse("0"), parse("0"))))


def test_curl_integrands_carry_scale_factors():
    B = vec(SPHERICAL, "1", "0", "0")
    c1, c2, c3 = curl_integrands(B)
    assert equals(c1, parse("r^2*sin(theta)"))
    assert is_zero(c2)
    assert is_zero(c3)


def test_plus_parts_of_solenoidal_field_cancel():
    rng = random.Random(31)
    for system in (CARTESIAN, CYLINDRICAL, SPHERICAL):
        for _ in range(10):
            B = curl(random_vector(rng, system))
            pieces = curl_integrands(B)
            total = parse("0")
            for name, c in zip(system.names, pieces):
                total = total + differentiate(split_by_variable(c, name).plus_part, name)
            assert is_zero(total)


def test_default_weights_are_required_for_the_golden_field():
    B = vec(CARTESIAN, *GOLDEN_B)
    for w_plus, w_minus in ((Fraction(1, 2), Fraction(1, 2)),
                            (Fraction(1, 3), Fraction(1, 3))):
        A = curl_potential_formula(B, CurlWeights(w_plus, w_minus))
        matches = all(equals(c, parse(b)) for c, b in zip(curl(A).components, GOLDEN_B))
        assert not matches


# h1 has two terms, so 1/h1 and every reciprocal holding it are outside the
# term algebra; the gates form them before the construction can fail.
MULTI_TERM = custom(("u", "v", "w"), ("1 + u^2", "1", "1"), (0, 0, 0),
                    ((-2, 2), (-2, 2), (-2, 2)))
# Non-unit coefficients, nonzero at the base point.
NON_UNIT = custom(("u", "v", "w"), ("2", "3*u", "u*v"), (1, 1, 0),
                  ((0.5, 2), (0.5, 2), (-2, 2)))
MULTI_TERM_MESSAGE = "reciprocal of a multi-term expression is outside the term algebra"


@pytest.mark.parametrize("operator,texts", [
    (inverse_curl, ("0", "0", "0")),
    # The construction alone would refuse v*sin(v^2)*u^2 as not integrable.
    (inverse_curl, ("0", "0", "v*sin(v^2)")),
    (inverse_gradient, ("0", "0", "0")),
    # The path integral alone would succeed.
    (inverse_gradient, ("0", "0", "w")),
])
def test_multi_term_scale_factor_is_unsupported_before_anything_else(operator, texts):
    with pytest.raises(UnsupportedExpression) as info:
        operator(vec(MULTI_TERM, *texts))
    assert str(info.value) == MULTI_TERM_MESSAGE


def test_unchecked_construction_fails_first_with_a_multi_term_scale_factor():
    # Without the gate the construction runs first and meets its own failure.
    with pytest.raises(NotIntegrable):
        inverse_curl_unchecked(vec(MULTI_TERM, "0", "0", "v*sin(v^2)"))


def test_self_check_succeeds_exactly_when_the_residual_is_zero(monkeypatch):
    # The self-check compares the numerators of curl(A) with h_j*h_k*B_i.
    # Perturbing the assembled potential by a gradient keeps it a preimage;
    # by a random field it usually does not.  Either way inverse_curl must
    # succeed exactly when the round-trip residual is zero, and report that
    # residual when it is not.
    rng = random.Random(41)
    formula = invdel.inverse.curl_potential_formula
    shift = {}

    def perturbed(B, *args, **kwargs):
        A = formula(B, *args, **kwargs)
        return VectorField(tuple(a + s for a, s in zip(A.components, shift["by"])), B.system)

    monkeypatch.setattr(invdel.inverse, "curl_potential_formula", perturbed)
    outcomes = {"ok": 0, "failed": 0}
    for system in (CARTESIAN, CYLINDRICAL, SPHERICAL, NON_UNIT):
        done = 0
        while done < 12:
            B = curl(random_vector(rng, system, max_terms=2, max_degree=2))
            if rng.random() < 0.5:
                shift["by"] = gradient(random_scalar(rng, system, 2, 2)).components
            else:
                shift["by"] = random_vector(rng, system, 1, 2).components
            try:
                A = perturbed(B)
            except NotIntegrable:
                continue
            residual = roundtrip_residual("inv_curl", B, A)
            expected = all(part.is_zero() for part in residual)
            try:
                got = inverse_curl(B)
            except ConstructionFailed as failure:
                assert not expected
                assert failure.residual.components == residual
                outcomes["failed"] += 1
            else:
                assert expected
                assert got == A
                outcomes["ok"] += 1
            done += 1
    assert min(outcomes.values()) >= 12


def test_self_check_matches_a_potential_whose_curl_is_past_the_budget():
    # h2*h3 has 2000 bits of coefficient and B_1 31219, so c_1 = h2*h3*B_1
    # has 33219, the most the 10000-digit budget allows: forming c_1 and the
    # construction stay within it, but the forward curl's product
    # 1/(h2*h3) * c_1 is estimated at 33220 bits.  The self-check compares
    # numerators and forms no such product, so it accepts the potential.
    system = custom(("x", "y", "z"), ("2^1000 - 1",) * 3, (1, 1, 1), ((0.5, 2),) * 3)
    within = vec(system, "(2^31218 - 1)*y^2*z^2", "0", "0")
    past = vec(system, "(2^31219 - 1)*y^2*z^2", "0", "0")
    assert roundtrip_residual("inv_curl", within, inverse_curl(within)) == (ZERO_FORM,) * 3
    A = inverse_curl(past)
    assert [numerator for _, numerator in curl_numerators(A)] == list(curl_integrands(past))
    with pytest.raises(UnsupportedExpression) as info:
        curl(A)
    assert str(info.value) == ("a coefficient product of more than 10000 digits "
                               "exceeds the budget")


def test_inverse_curl_round_trip_on_random_fields():
    rng = random.Random(33)
    for system in (CARTESIAN, CYLINDRICAL):
        for _ in range(25):
            B = curl(random_vector(rng, system))
            A = inverse_curl(B)
            for got, want in zip(curl(A).components, B.components):
                assert equals(got, want)


def test_inverse_divergence_of_constant():
    A = inverse_divergence(ScalarField(parse("3"), CARTESIAN))
    for got, want in zip(A.components, ("x", "y", "z")):
        assert equals(got, parse(want))


def test_inverse_divergence_with_concentrated_weights():
    f = ScalarField(parse("4*rho"), CYLINDRICAL)
    A = inverse_divergence(f, DivergenceWeights(1, 0, 0))
    assert render(A.components[0]) == "4*rho^2/3"
    assert is_zero(A.components[1])
    assert is_zero(A.components[2])


def test_zero_weight_components_skip_integration():
    f = ScalarField(parse("theta"), SPHERICAL)
    A = inverse_divergence(f, DivergenceWeights(1, 0, 0))
    assert equals(divergence(A), parse("theta"))


def test_divergence_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        DivergenceWeights(1, 1, 1)
    assert DivergenceWeights.symmetric().as_tuple() == (
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_weights_that_miss_one_are_named_in_the_message():
    with pytest.raises(ValidationError) as info:
        DivergenceWeights("1", 1, Fraction(1))
    assert str(info.value) == "divergence weights must sum to 1, got 1 + 1 + 1"
    # str() of a weight of 5001 digits raises ValueError past the
    # interpreter's digit limit; the message must not.
    with pytest.raises(ValidationError) as info:
        DivergenceWeights("1e5000", 0, 0)
    assert str(info.value).startswith("divergence weights must sum to 1, got ")


def test_value_types_read_ints_fractions_and_text():
    assert DivergenceWeights("1/2", " 1/4 ", Fraction(1, 4)) == DivergenceWeights(
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert BasePoint("1/2", "0", -3, "5") == BasePoint(Fraction(1, 2), 0, -3, 5)
    assert CurlWeights("1/3", "1/2") == DEFAULT_CURL_WEIGHTS


@pytest.mark.parametrize("build,message", [
    (lambda: BasePoint("a", 0, 0), "bad base coordinate 'a': Invalid literal for Fraction: 'a'"),
    (lambda: BasePoint(0, 0, 0, "q"), "bad constant 'q': Invalid literal for Fraction: 'q'"),
    (lambda: DivergenceWeights("1/0", 0, 1), "bad weight '1/0': Fraction(1, 0)"),
    (lambda: CurlWeights("x", 1), "bad weight 'x': Invalid literal for Fraction: 'x'"),
    (lambda: BasePoint(None, 0, 0), "bad base coordinate None: "),
    (lambda: CurlWeights(float("inf"), 1), "bad weight inf: "),
])
def test_a_value_that_names_no_rational_is_a_validation_error(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("build,what,text", [
    (lambda text: DivergenceWeights(text, 0, 0), "weight", "1e100000000"),
    (lambda text: CurlWeights("1/3", text), "weight", "-1E-100000000"),
    (lambda text: BasePoint(0, text, 0), "base coordinate", "2.5e10_001"),
    (lambda text: BasePoint(0, 0, 0, text), "constant", "1e\u0663\u0663\u0663\u0663\u0663\u0663"),
])
def test_a_decimal_exponent_past_the_budget_is_refused_before_it_is_read(build, what, text):
    # Fraction reads 1e100000000 in time that grows with the exponent; an
    # exponent of 10000 or less is read (see the 1e5000 weights above).
    with pytest.raises(ValidationError) as info:
        build(text)
    assert str(info.value) == (
        f"bad {what} {text!r}: a decimal exponent past 10000 exceeds the budget")


def test_inverse_divergence_round_trip_on_random_fields():
    rng = random.Random(34)
    for system in (CARTESIAN, CYLINDRICAL):
        for _ in range(25):
            f = random_scalar(rng, system)
            A = inverse_divergence(f)
            assert equals(divergence(A), f.value)


def test_inverse_gradient_of_coordinate_direction():
    phi = inverse_gradient(vec(CARTESIAN, "1", "0", "0"))
    assert equals(phi.value, parse("x"))


def test_inverse_gradient_of_polynomial_field():
    phi = inverse_gradient(
        vec(CARTESIAN, "2*x*y", "x^2", "1"),
        BasePoint(0, 0, 0))
    assert equals(phi.value, parse("x^2*y + z"))


def test_inverse_gradient_of_triple_product():
    phi = inverse_gradient(
        vec(CARTESIAN, "y*z", "x*z", "x*y"),
        BasePoint(0, 0, 0))
    assert equals(phi.value, parse("x*y*z"))


def test_inverse_gradient_additive_constant():
    phi = inverse_gradient(
        vec(CARTESIAN, "2*x*y", "x^2", "1"),
        BasePoint(0, 0, 0, 5))
    assert equals(phi.value, parse("x^2*y + z + 5"))


def test_inverse_gradient_leaves_an_atom_with_a_free_variable_to_its_segment():
    # On the u3 segment only x and y are substituted, so the base-point scan
    # skips cos(z), which keeps z; sin(0) from the lower limit is decided.
    A = gradient(ScalarField(parse("sin(z)"), CARTESIAN))
    assert gradient(inverse_gradient(A)) == A


def test_inverse_gradient_rejects_rotation_field():
    with pytest.raises(NotConservative) as info:
        inverse_gradient(vec(CARTESIAN, "0 - y", "x", "0"))
    assert [render(c) for c in info.value.residual.components] == ["0", "0", "2"]


def test_unchecked_inverse_gradient_reports_residual():
    phi, residual = inverse_gradient_unchecked(
        vec(CARTESIAN, "0 - y", "x", "0"), BasePoint(0, 0, 0))
    assert [render(c) for c in residual.components] == ["0", "0", "2"]
    assert phi is not None


def test_singular_base_point_is_detected():
    with pytest.raises(BasePointSingular):
        inverse_gradient(vec(CARTESIAN, "x^-1", "0", "0"))


@pytest.mark.parametrize("system,source,potential", [
    (builtin("cylindrical"), "rho^2 + z", "rho^2 + z - 1"),
    (builtin("spherical"), "r*theta", "r*theta - 1"),
    (custom(("u", "v", "w"), ("1", "1", "1"), (1, 2, 3), ((-2, 2),) * 3),
     "u + 10*v + 100*w", "u + 10*v + 100*w - 321"),
])
def test_inverse_gradient_starts_at_the_system_base_point(system, source, potential):
    # With no base given the path starts at the system's base point, in
    # coordinate order, with the constant 0.
    A = gradient(ScalarField(parse(source), system))
    assert inverse_gradient(A).value == parse(potential)
    assert inverse_gradient(A) == inverse_gradient(A, BasePoint(*system.base_point))


def test_inverse_gradient_in_spherical():
    phi = inverse_gradient(vec(SPHERICAL, "2*r", "0", "0"))
    difference = canonicalize(phi.value - parse("r^2"))
    assert not free_variables(difference)


def test_inverse_gradient_round_trip_on_random_potentials():
    rng = random.Random(35)
    for system in (CARTESIAN, CYLINDRICAL, SPHERICAL):
        for _ in range(15):
            f = random_scalar(rng, system)
            A = gradient(f)
            phi = inverse_gradient(A)
            for got, want in zip(gradient(phi).components, A.components):
                assert equals(got, want)


def test_gauge_shift_preserves_curl():
    rng = random.Random(36)
    B = curl(random_vector(rng, CARTESIAN))
    A = inverse_curl(B)
    shifted = gauge_shift_curl(A, random_scalar(rng, CARTESIAN))
    for got, want in zip(curl(shifted).components, B.components):
        assert equals(got, want)


def test_gauge_shift_preserves_divergence():
    rng = random.Random(37)
    f = random_scalar(rng, CARTESIAN)
    A = inverse_divergence(f)
    shifted = gauge_shift_div(A, random_vector(rng, CARTESIAN))
    assert equals(divergence(shifted), f.value)


def test_gauge_shift_requires_matching_systems():
    A = inverse_divergence(ScalarField(parse("3"), CARTESIAN))
    with pytest.raises(ValidationError,
                       match="^gauge vector lives in a different coordinate system$"):
        gauge_shift_div(A, vec(CYLINDRICAL, "rho", "0", "0"))
    with pytest.raises(ValidationError,
                       match="^gauge scalar lives in a different coordinate system$"):
        gauge_shift_curl(A, ScalarField(parse("rho"), CYLINDRICAL))
