"""Forward operators: gradient, divergence, curl."""

import random

import pytest

from invdel import (
    ScalarField,
    ValidationError,
    VectorField,
    builtin,
    curl,
    divergence,
    equals,
    gradient,
    is_zero,
    parse,
    render,
    var,
)

from _support import count_scale_products, random_scalar, random_vector

CARTESIAN = builtin("cartesian")
CYLINDRICAL = builtin("cylindrical")
SPHERICAL = builtin("spherical")


def vec(system, *texts):
    return VectorField(tuple(parse(t) for t in texts), system)


def test_gradient_of_coordinate():
    g = gradient(ScalarField(parse("x"), CARTESIAN))
    assert [render(c) for c in g.components] == ["1", "0", "0"]


def test_gradient_in_spherical():
    g = gradient(ScalarField(parse("r^2"), SPHERICAL))
    assert [render(c) for c in g.components] == ["2*r", "0", "0"]


def test_divergence_of_radial_field():
    d = divergence(vec(CARTESIAN, "x", "y", "z"))
    assert render(d) == "3"


def test_divergence_in_cylindrical():
    d = divergence(vec(CYLINDRICAL, "rho", "0", "0"))
    assert render(d) == "2"


def test_curl_of_rotation_field():
    c = curl(vec(CARTESIAN, "0 - y", "x", "0"))
    assert [render(x) for x in c.components] == ["0", "0", "2"]


def test_curl_of_known_potential():
    A = vec(
        CARTESIAN,
        "x*z^2/4 + y^2*z^2/12 + 2*y*z/3",
        "-x*y*z^2/3 - x*z/3 - y^2*z/2",
        "-x^2*z/4 + x*y^2*z/6 - x*y/3 + y^3/6",
    )
    B = curl(A)
    expected = ["x*y*z + y^2", "x*z + y", "-y*z^2/2 - z"]
    assert [render(c) for c in B.components] == expected


def test_field_variables_must_match_system():
    with pytest.raises(ValidationError):
        ScalarField(parse("q"), CARTESIAN)
    with pytest.raises(ValidationError):
        vec(SPHERICAL, "x", "0", "0")


def test_a_symbolic_constant_is_a_variable_outside_the_system():
    # A field is its forms plus its system; there is no slot for constants.
    with pytest.raises(ValidationError,
                       match="variables outside the coordinate system: a$"):
        ScalarField(parse("a*x"), CARTESIAN)
    with pytest.raises(TypeError):
        ScalarField(parse("a*x"), CARTESIAN, constants=frozenset({"a"}))


def test_foreign_variable_that_cancels_in_constructor_input_is_accepted():
    # Fields are checked on the form, in which q is gone.
    x, q = var("x"), var("q")
    f = ScalarField(x + q - q, CARTESIAN)
    assert render(f.value) == "x"
    assert render(gradient(f).components[0]) == "1"


def test_divergence_of_curl_is_zero():
    rng = random.Random(21)
    for system in (CARTESIAN, CYLINDRICAL, SPHERICAL):
        for _ in range(25):
            A = random_vector(rng, system)
            assert is_zero(divergence(curl(A)))


def test_curl_of_gradient_is_zero():
    rng = random.Random(22)
    for system in (CARTESIAN, CYLINDRICAL, SPHERICAL):
        for _ in range(25):
            f = random_scalar(rng, system)
            for component in curl(gradient(f)).components:
                assert is_zero(component)


def test_operators_are_linear():
    rng = random.Random(23)
    for _ in range(20):
        A = random_vector(rng, CARTESIAN)
        B = random_vector(rng, CARTESIAN)
        summed = VectorField(
            tuple(a + b for a, b in zip(A.components, B.components)), CARTESIAN)
        left = curl(summed)
        for i in range(3):
            right = curl(A).components[i] + curl(B).components[i]
            assert equals(left.components[i], right)


def test_a_vector_field_needs_three_components():
    with pytest.raises(ValidationError, match="a vector field needs exactly three components"):
        VectorField((parse("x"), parse("y")), CARTESIAN)


def test_curl_forms_each_scale_factor_product_once(monkeypatch):
    A = vec(SPHERICAL, "r*theta", "phi^2", "r*sin(theta)")
    calls = count_scale_products(monkeypatch, A)
    curl(A)
    assert len(calls) == 3
