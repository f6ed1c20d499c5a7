"""The metric table of a coordinate system, and the fields the library builds.

``CoordinateSystem`` forms its pair products h_j*h_k, its Jacobian
(h1*h2)*h3 and their reciprocals once and keeps them.  The seeded property
here runs every forward and inverse operator and both gauge shifts with
the table and with each entry computed directly from the scale factors:
they must give the same field, or the same error type and message.  Each
operator runs twice on a system whose table starts empty, so a failure
that was kept would show on the second call.  The table stays out of
``==``, hash, repr and pickling.

Fields the library builds are not checked for foreign variables again; a
second property checks that every component they hold lives in the system.
"""

import pickle
import random

import pytest

from _support import random_polynomial
from invdel import (
    BasePoint,
    CoordinateSystem,
    DivergenceWeights,
    InvdelError,
    ScalarField,
    VectorField,
    builtin,
    construct,
    curl,
    curl_potential_formula,
    custom,
    divergence,
    free_variables,
    gauge_shift_curl,
    gauge_shift_div,
    gradient,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
    parse,
    sin,
    var,
)
from invdel.expr import reciprocal
from invdel.vecops import curl_numerators, flux

BOX = ((0.5, 2), (0.5, 2), (0.5, 2))
SYSTEMS = (
    builtin("cartesian"),
    builtin("cylindrical"),
    builtin("spherical"),
    custom(("rho", "phi", "z"), ("1", "2*rho", "1"), (1, 0, 0), BOX),
    custom(("u", "v", "w"), ("exp(u)", "1", "v"), (0, 1, 0), BOX),
    custom(("u", "v", "w"), ("1 + u^2", "1", "1"), (0, 0, 0), BOX),
    custom(("u", "v", "w"), ("1", "v", "w^2 + 1"), (0, 1, 0), BOX),
)

# The other two indices of each cycle (i, j, k), written out.
OTHERS = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def _pair(system, i):
    j, k = OTHERS[i]
    return system.scale_factors[j] * system.scale_factors[k]


def _jacobian(system):
    h = system.scale_factors
    return h[0] * h[1] * h[2]


DIRECT = {
    "pair": _pair,
    "jacobian": _jacobian,
    "inverse_scale": lambda system, i: reciprocal(system.scale_factors[i]),
    "inverse_pair": lambda system, i: reciprocal(_pair(system, i)),
    "inverse_jacobian": lambda system: reciprocal(_jacobian(system)),
}


def _component(rng, names):
    """A small polynomial, now and then times a sine, so that some
    integrands are refused."""
    form = random_polynomial(rng, names, max_terms=2, max_degree=2)
    if rng.random() < 0.25:
        form = form * sin(var(rng.choice(names)))
    return form


def _operations(rng, system):
    """(name, call) for every operator on seeded fields of ``system``."""
    names = system.names
    A = VectorField(tuple(_component(rng, names) for _ in range(3)), system)
    f = ScalarField(_component(rng, names), system)
    g = ScalarField(_component(rng, names), system)
    base = BasePoint(*(rng.randint(0, 2) for _ in range(3)), rng.randint(-3, 3))
    weights = DivergenceWeights(*rng.choice(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))))

    def solenoidal():
        return curl(A)

    def conservative():
        return gradient(f)

    return (
        ("gradient", lambda: gradient(f)),
        ("divergence", lambda: divergence(A)),
        ("curl", lambda: curl(A)),
        ("flux", lambda: flux(A)),
        ("curl_numerators", lambda: list(curl_numerators(A))),
        ("inverse_curl", lambda: inverse_curl(solenoidal())),
        ("inverse_curl of any field", lambda: inverse_curl(A)),
        ("construct inv_curl, unchecked", lambda: construct("inv_curl", A, unchecked=True)),
        ("curl_potential_formula", lambda: curl_potential_formula(A)),
        ("inverse_divergence", lambda: inverse_divergence(f)),
        ("inverse_divergence, weighted", lambda: inverse_divergence(f, weights)),
        ("inverse_gradient", lambda: inverse_gradient(conservative())),
        ("inverse_gradient from a base", lambda: inverse_gradient(conservative(), base)),
        ("inverse_gradient of any field", lambda: inverse_gradient(A)),
        ("construct inv_grad, unchecked",
         lambda: construct("inv_grad", A, base=base, unchecked=True)),
        ("gauge_shift_curl", lambda: gauge_shift_curl(A, g)),
        ("gauge_shift_div", lambda: gauge_shift_div(A, A)),
    )


def _outcome(call):
    """The call's result, or its error as a dict, which no operator returns."""
    try:
        return call()
    except InvdelError as exc:
        return {"error": type(exc), "message": str(exc)}


def _fresh(system):
    """An equal system whose metric table is empty."""
    return CoordinateSystem(*(getattr(system, name) for name in CoordinateSystem._fields))


def test_metric_table_gives_what_the_scale_factors_give(monkeypatch):
    rng = random.Random(21)
    seen = set()
    for case in range(140):
        system = SYSTEMS[case % len(SYSTEMS)]
        state = rng.getstate()
        with monkeypatch.context() as direct:
            for name, build in DIRECT.items():
                direct.setattr(CoordinateSystem, name, build)
            want = [(name, _outcome(call)) for name, call in _operations(rng, _fresh(system))]
        rng.setstate(state)
        fresh = _fresh(system)
        for (name, call), expected in zip(_operations(rng, fresh), want):
            for attempt in ("cold", "warm"):
                assert (name, _outcome(call)) == expected, (system.label, attempt)
            failed = isinstance(expected[1], dict)
            seen.add(expected[1]["message"].split(" ")[0] if failed else "ok")
    # Results, refusals, failed gates and refused reciprocals were all reached.
    assert {"ok", "term", "divergence", "curl", "reciprocal"} <= seen


def test_table_entries_are_formed_once_and_failures_every_time():
    spherical = _fresh(builtin("spherical"))
    assert spherical.pair(2) is spherical.pair(2)
    assert spherical.inverse_jacobian() is spherical.inverse_jacobian()
    assert spherical.pair(0) == parse("r^2*sin(theta)")
    assert spherical.inverse_pair(1) == parse("r^-1*sin(theta)^-1")
    assert spherical.inverse_scale(2) == parse("r^-1*sin(theta)^-1")
    assert spherical.jacobian() == parse("r^2*sin(theta)")
    multi = _fresh(SYSTEMS[5])
    for _ in range(2):
        with pytest.raises(InvdelError, match="reciprocal of a multi-term expression"):
            multi.inverse_jacobian()
    assert multi.inverse_pair(0) == parse("1")


@pytest.mark.parametrize("system", SYSTEMS, ids=[f"system{n}" for n in range(len(SYSTEMS))])
def test_the_table_is_not_part_of_the_value(system):
    cold, warm = _fresh(system), _fresh(system)
    for i in range(3):
        warm.pair(i)
        try:
            warm.inverse_scale(i), warm.inverse_pair(i), warm.inverse_jacobian()
        except InvdelError:
            pass
    assert cold == warm and hash(cold) == hash(warm)
    assert repr(cold) == repr(warm)
    assert pickle.dumps(cold) == pickle.dumps(warm)
    assert pickle.loads(pickle.dumps(warm)) == system


def test_library_built_fields_live_in_their_system():
    rng = random.Random(2021)
    built = 0
    for case in range(60):
        system = SYSTEMS[case % len(SYSTEMS)]
        for name, call in _operations(rng, system):
            result = _outcome(call)
            if isinstance(result, tuple) and name.endswith("unchecked"):
                result = result[0]
            if isinstance(result, (VectorField, ScalarField)):
                parts = result.components if isinstance(result, VectorField) else (result.value,)
                for part in parts:
                    assert free_variables(part) <= set(system.names), (name, system.label)
                built += 1
    assert built > 300
