"""invdel's forward and inverse operators checked by SymPy.

The forward operators are compared with their Lamé-coefficient formulas,
and each inverse result is put through SymPy's forward operator and
compared with the field it was built from.  ``tests/oracle_corpus.py``
runs the same checks over the acceptance corpora; a seeded slice of the
corpus periodic in the angles is checked here.
"""

import random

import pytest

pytest.importorskip("sympy")

from invdel import (  # noqa: E402
    CoordinateSystem,
    DivergenceWeights,
    InvdelError,
    ScalarField,
    VectorField,
    builtin,
    curl,
    gradient,
    parse,
)

from _oracle import (  # noqa: E402
    forward_check,
    inverse_curl_check,
    inverse_divergence_check,
    inverse_gradient_check,
)
from _support import periodic_corpus  # noqa: E402

CUSTOM = CoordinateSystem(("u", "v", "w"), ("2", "3*u", "u*v"), (1, 1, 0),
                          ((0.5, 2), (0.5, 2), (-2, 2)))

# (system, vector potential A0, scalar phi0): two per system, each one the
# inverse operators construct.
CASES = [
    (builtin("cartesian"), ("y*z^2", "x^2*z", "x*y/2"), "x^2*y - 3*z^3/4"),
    (builtin("cartesian"), ("sin(z)", "exp(x)", "cos(y)"), "exp(2*x)*sin(y) + z"),
    (builtin("cylindrical"), ("rho*z", "rho^2", "phi*z"), "rho^2*z + phi"),
    (builtin("cylindrical"), ("sin(phi)", "rho*cos(z)", "exp(z)"), "rho*sin(phi)"),
    (builtin("spherical"), ("phi", "r^2", "r*phi"), "r*cos(phi) + r^3"),
    (builtin("spherical"), ("0", "r*phi", "0"), "r*phi^2"),
    (CUSTOM, ("u*v", "w", "v^2"), "u*v*w"),
    (CUSTOM, ("sin(w)", "u^2", "v*w"), "u^2 + exp(w)"),
]
IDS = [f"{system.label}-{i % 2}" for i, (system, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("operator", ["curl", "divergence", "gradient"])
@pytest.mark.parametrize("system,potential,scalar", CASES, ids=IDS)
def test_forward_operator_is_the_lame_formula(system, potential, scalar, operator):
    assert forward_check(operator, system, scalar if operator == "gradient" else potential)


@pytest.mark.parametrize("system,potential,scalar", CASES, ids=IDS)
def test_inverse_curl_of_a_curl(system, potential, scalar):
    A0 = VectorField(tuple(parse(t) for t in potential), system)
    assert inverse_curl_check(curl(A0))


@pytest.mark.parametrize("weights", [DivergenceWeights.symmetric(), DivergenceWeights(1, 0, 0)],
                         ids=["symmetric", "1-0-0"])
@pytest.mark.parametrize("system,potential,scalar", CASES, ids=IDS)
def test_inverse_divergence(system, potential, scalar, weights):
    assert inverse_divergence_check(ScalarField(parse(scalar), system), weights)


@pytest.mark.parametrize("system,potential,scalar", CASES, ids=IDS)
def test_inverse_gradient_of_a_gradient(system, potential, scalar):
    assert inverse_gradient_check(gradient(ScalarField(parse(scalar), system)))


# The oracle's check of each inverse of the angle-periodic corpus.
PERIODIC_CHECKS = {
    "inverse_curl": inverse_curl_check,
    "inverse_divergence": lambda f: inverse_divergence_check(f, DivergenceWeights.symmetric()),
    "inverse_divergence-1-0-0": lambda f: inverse_divergence_check(f, DivergenceWeights(1, 0, 0)),
    "inverse_gradient": inverse_gradient_check,
}


def test_a_seeded_slice_of_the_angle_periodic_corpus():
    rng = random.Random(7)
    for (operator, label), rows in periodic_corpus().items():
        built = [field for field, result in rows if not isinstance(result, InvdelError)]
        for field in rng.sample(built, 5):
            assert PERIODIC_CHECKS[operator](field), (operator, label)
