"""Round-trip verification reports."""

import math
import random
from collections import Counter

import pytest

from invdel import (
    SamplingExhausted,
    ScalarField,
    UnsupportedExpression,
    ValidationError,
    VectorField,
    builtin,
    curl,
    custom,
    gradient,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
    parse,
    roundtrip_report,
)
from invdel import expr, verify
from invdel.errors import DomainError
from invdel.expr import eval_numeric
from invdel.inverse import DivergenceWeights, construct, roundtrip_residual

from _support import random_scalar, random_vector

CARTESIAN = builtin("cartesian")
SPHERICAL = builtin("spherical")


def vec(system, *texts):
    return VectorField(tuple(parse(t) for t in texts), system)


def test_report_for_known_solenoidal_field():
    report = roundtrip_report("inv_curl", vec(CARTESIAN, "x*y*z + y^2", "x*z + y",
                                              "-z - y*z^2/2"))
    assert report.kind == "inv_curl"
    assert report.symbolic_equal
    assert report.within_tolerance
    assert report.sample_count == 100
    assert report.max_abs_error == 0.0
    assert report.max_rel_error == 0.0
    assert all(r == "0" for r in report.to_dict()["residual"])


def test_report_dict_round_trips_to_json_types():
    report = roundtrip_report(
        "inv_div", ScalarField(parse("3"), CARTESIAN), samples=10)
    payload = report.to_dict()
    assert payload["kind"] == "inv_div"
    assert payload["residual"] == ["0"]
    assert isinstance(payload["sampling_box"], list)
    assert payload["within_tolerance"] is True


def test_report_dict_keys_are_in_their_json_order():
    report = roundtrip_report("inv_curl", vec(CARTESIAN, "y", "z", "x"), samples=10)
    assert list(report.to_dict()) == [
        "kind", "symbolic_equal", "residual", "sample_count", "max_abs_error",
        "max_rel_error", "rng_seed", "sampling_box", "resample_count",
        "within_tolerance"]
    assert report.to_dict()["residual"] == ["0", "0", "0"]
    assert report.to_dict()["sampling_box"] == [[-2.0, 2.0]] * 3


def test_reports_are_deterministic_for_a_seed():
    field = vec(CARTESIAN, "y", "z", "x")
    first = roundtrip_report("inv_curl", field, seed=7)
    second = roundtrip_report("inv_curl", field, seed=7)
    assert first.to_dict() == second.to_dict()


def test_seed_is_recorded_in_the_report():
    f = random_scalar(random.Random(4), CARTESIAN)
    a = roundtrip_report("inv_div", f, seed=1)
    b = roundtrip_report("inv_div", f, seed=2)
    assert a.rng_seed == 1 and b.rng_seed == 2
    assert a.symbolic_equal and b.symbolic_equal
    assert a.within_tolerance and b.within_tolerance


def test_precomputed_result_is_verified_as_given():
    f = ScalarField(parse("3"), CARTESIAN)
    good = inverse_divergence(f)
    report = roundtrip_report("inv_div", f, result=good)
    assert report.symbolic_equal

    bad = VectorField(
        (good.components[0] + parse("x^2"),
         good.components[1], good.components[2]), CARTESIAN)
    report = roundtrip_report("inv_div", f, result=bad, samples=10)
    assert not report.symbolic_equal
    assert not report.within_tolerance
    assert report.to_dict()["residual"] == ["2*x"]


def test_points_outside_the_domain_are_resampled():
    f = ScalarField(parse("ln(x)"), CARTESIAN)
    filler = inverse_divergence(ScalarField(parse("1"), CARTESIAN))
    report = roundtrip_report("inv_div", f, result=filler, samples=20)
    assert report.resample_count > 0
    assert not report.symbolic_equal


def test_sampling_gives_up_when_the_domain_is_empty():
    f = ScalarField(parse("ln(x - 10)"), CARTESIAN)
    filler = inverse_divergence(ScalarField(parse("1"), CARTESIAN))
    with pytest.raises(SamplingExhausted):
        roundtrip_report("inv_div", f, result=filler, samples=5)


# exp(700)*exp(701) overflows to inf without raising, and sin(1/10^400)
# underflows to sin(0.0) = 0.0: the product is nan at every point.
NAN_EVERYWHERE = "exp(700)*exp(701)*sin(1/10^400)"


@pytest.mark.parametrize("filler", [None, "1"])
def test_a_residual_or_input_that_reads_nan_is_outside_the_domain(filler):
    # With no filler the residual is zero and only the input reads nan; with
    # one, the residual 1 - f reads nan too.  nan passes every tolerance, so
    # such a point would otherwise count as a sample within it.
    f = ScalarField(parse(NAN_EVERYWHERE), CARTESIAN)
    result = None if filler is None else inverse_divergence(
        ScalarField(parse(filler), CARTESIAN))
    with pytest.raises(SamplingExhausted) as info:
        roundtrip_report("inv_div", f, result=result, samples=5)
    assert str(info.value) == "more than 50 sample points fell outside the domain"


def test_points_where_the_input_reads_nan_are_resampled_like_domain_errors():
    # exp(700*x)*exp(701*x) raises past x = 1.014 and is inf without raising
    # from x = 0.506, where times sin(0.0) it reads nan.  The report resamples
    # exactly the points where evaluating one point at a time raises or
    # reads nan.
    f = ScalarField(parse("exp(700*x)*exp(701*x)*sin(1/10^400)"), CARTESIAN)
    rng = random.Random(3)
    kept = nan = raised = 0
    while kept < 40:
        point = {n: rng.uniform(lo, hi) for n, (lo, hi) in zip("xyz", CARTESIAN.sampling_box)}
        try:
            value = eval_numeric(f.value, point)
        except DomainError:
            raised += 1
            continue
        nan += value != value
        kept += value == value
    report = roundtrip_report("inv_div", f, weights=DivergenceWeights(0, 1, 0),
                              samples=40, seed=3)
    assert (nan, raised) == (8, 12)
    assert (report.resample_count, report.max_abs_error) == (nan + raised, 0.0)
    assert report.symbolic_equal and report.within_tolerance


NAN_ARGUMENT = "sin(exp(700*x)*exp(701*x)*sin(1/10^400))"


def test_a_function_of_an_argument_that_reads_nan_is_outside_the_domain():
    # sin(nan) is nan without raising, like exp and ln; the report screens a
    # zero residual's input by its factor columns, so the sin column itself
    # must flag the points where its argument reads nan.
    failed = set()
    column = expr.evaluate(parse(NAN_ARGUMENT), {"x": 0}, [[0.25, 0.75]], 2, failed)
    assert failed == {1} and column[0] == math.sin(math.exp(175) * math.exp(175.25) * 0.0)
    f = ScalarField(parse(NAN_ARGUMENT), CARTESIAN)
    report = roundtrip_report("inv_div", f, weights=DivergenceWeights(0, 1, 0),
                              samples=40, seed=3)
    assert report.symbolic_equal and not report.residual._map
    assert (report.resample_count, report.max_abs_error) == (20, 0.0)


SCALAR = ScalarField(parse("x"), CARTESIAN)
VECTOR = vec(CARTESIAN, "y", "z", "x")


@pytest.mark.parametrize("kind,field,result", [
    ("inv_div", VECTOR, VECTOR),
    ("inv_curl", SCALAR, VECTOR),
    ("inv_grad", SCALAR, SCALAR),
])
def test_a_field_its_kind_does_not_take_is_rejected(kind, field, result):
    # The kind's own result type is passed, so only the field is wrong.
    message = f"^{kind} takes a \\w+, not a {type(field).__name__}$"
    for call in (lambda: roundtrip_report(kind, field),
                 lambda: roundtrip_report(kind, field, result=result),
                 lambda: construct(kind, field),
                 lambda: construct(kind, field, unchecked=True)):
        with pytest.raises(ValidationError, match=message):
            call()


def test_unknown_kind_is_rejected():
    with pytest.raises(ValidationError):
        roundtrip_report("inverse-curl", vec(CARTESIAN, "0", "0", "0"))
    with pytest.raises(ValidationError):
        roundtrip_report("inv_curl", vec(CARTESIAN, "0", "0", "0"), samples=0)
    with pytest.raises(ValidationError, match="^unknown inverse kind 'inv-curl'$"):
        construct("inv-curl", vec(CARTESIAN, "0", "0", "0"))


@pytest.mark.parametrize("keywords,message", [
    ({"samples": 0}, "sample count must be positive"),
    ({"samples": -3}, "sample count must be positive"),
    ({"samples": verify.MAX_SAMPLES + 1}, "sample count must be at most 1000000"),
    ({"samples": 10**5000}, "sample count must be at most 1000000"),
    ({"samples": 2.5}, "sample count must be an int, not float"),
    ({"samples": "100"}, "sample count must be an int, not str"),
    ({"samples": True}, "sample count must be an int, not bool"),
    ({"samples": None}, "sample count must be an int, not NoneType"),
    ({"seed": [1]}, "seed must be an int, not list"),
    ({"seed": None}, "seed must be an int, not NoneType"),
    ({"seed": 1.0}, "seed must be an int, not float"),
    ({"seed": False}, "seed must be an int, not bool"),
])
def test_samples_and_seed_are_checked_when_the_report_is_called(monkeypatch, keywords,
                                                                 message):
    # No construction or evaluation runs before the check.
    monkeypatch.setattr(verify, "construct", None)
    monkeypatch.setattr(verify, "evaluate", None)
    with pytest.raises(ValidationError) as info:
        roundtrip_report("inv_curl", vec(CARTESIAN, "y", "z", "x"), **keywords)
    assert str(info.value) == message


def test_the_sample_bound_is_a_million_and_a_large_seed_is_an_int():
    assert verify.MAX_SAMPLES == 10**6
    report = roundtrip_report("inv_curl", vec(CARTESIAN, "y", "z", "x"), samples=1,
                              seed=10**40)
    assert (report.sample_count, report.rng_seed) == (1, 10**40)


def test_a_report_past_the_work_budget_is_refused_before_a_point_is_drawn(monkeypatch):
    # The reference form x*y + sin(z) has 7 factors: each term's
    # coefficient, x, y, sin and its argument form's coefficient and z.  The
    # residual is zero and has none.
    field = ScalarField(parse("x*y + sin(z)"), CARTESIAN)
    assert verify._factor_count([field.value]) == 7
    monkeypatch.setattr(verify, "MAX_REPORT_WORK", 700)
    assert roundtrip_report("inv_div", field, samples=100).sample_count == 100

    class Undrawn(random.Random):
        def random(self):
            raise AssertionError("a point was drawn")

    monkeypatch.setattr(verify.random, "Random", Undrawn)
    with pytest.raises(UnsupportedExpression) as info:
        roundtrip_report("inv_div", field, samples=101)
    assert str(info.value) == ("a report of 101 samples over forms of 7 factors exceeds the "
                               "budget of 700 sample factors")


def test_the_work_budget_is_ten_million_sample_factors():
    assert verify.MAX_REPORT_WORK == 10**7


def test_a_result_from_another_system_is_rejected():
    # Unit scale factors, but not cylindrical's: in B's system curl(A) is
    # (0, 0, 3*rho/2 + 1), while A's own system would read back B exactly.
    B = vec(builtin("cylindrical"), "0", "0", "2*rho")
    unit = custom(("rho", "phi", "z"), ("1",) * 3, (1, 0, 0), ((0.5, 2), (0.1, 3), (-2, 2)))
    A = inverse_curl(VectorField(B.components, unit))
    with pytest.raises(ValidationError, match="^result lives in a different coordinate system$"):
        roundtrip_report("inv_curl", B, result=A)


def test_a_result_of_another_field_type_is_rejected():
    with pytest.raises(ValidationError, match="^ScalarField is not an inv_curl result$"):
        roundtrip_report("inv_curl", vec(CARTESIAN, "y", "z", "x"),
                         result=ScalarField(parse("x"), CARTESIAN))


def test_random_round_trips_stay_within_tolerance():
    rng = random.Random(41)
    for system in (CARTESIAN, builtin("cylindrical")):
        for _ in range(10):
            B = curl(random_vector(rng, system))
            report = roundtrip_report("inv_curl", B, samples=25, seed=rng.randint(0, 10**6))
            assert report.symbolic_equal
            assert report.within_tolerance

            f = random_scalar(rng, system)
            report = roundtrip_report("inv_grad", gradient(f), samples=25,
                                      seed=rng.randint(0, 10**6))
            assert report.symbolic_equal
            assert report.within_tolerance


def _perturbed(field, *extra):
    """The field with parsed text added to its components ("0" keeps one)."""
    return VectorField(tuple(c + parse(t) for c, t in zip(field.components, extra)),
                       field.system)


def _div_bad():
    f = ScalarField(parse("3"), CARTESIAN)
    return f, _perturbed(inverse_divergence(f), "x^2", "0", "0")


def _div_cylindrical():
    f = ScalarField(parse("rho*sin(phi) + exp(z)"), builtin("cylindrical"))
    return f, _perturbed(inverse_divergence(f), "0", "cos(rho*z)/3", "-exp(z)*phi/7")


def _curl_cartesian():
    B = vec(CARTESIAN, "x*y*z + y^2", "x*z + y", "-z - y*z^2/2")
    return B, _perturbed(inverse_curl(B), "sin(x*y)/3", "-exp(z)*x^2", "0")


def _curl_spherical():
    B = vec(SPHERICAL, "0", "0", "r")
    return B, _perturbed(inverse_curl(B), "0", "r*theta", "ln(r)")


def _grad(extra):
    def build():
        A = vec(CARTESIAN, "2*x*y", "x^2", "1")
        return A, ScalarField(inverse_gradient(A).value + parse(extra), CARTESIAN)
    return build


def _ln_against_filler():
    filler = inverse_divergence(ScalarField(parse("1"), CARTESIAN))
    return ScalarField(parse("ln(x)"), CARTESIAN), filler


def _ln_exact():
    exact = VectorField((parse("x*ln(x) - x"), parse("0"), parse("0")), CARTESIAN)
    return ScalarField(parse("ln(x)"), CARTESIAN), exact


# Reports whose residual is not zero, with the bits the form interpreter
# that evaluated each form afresh at every point gave: max_abs_error.hex(),
# max_rel_error.hex(), resample_count, within_tolerance.
NONEXACT_REPORTS = [
    ("inv_div", _div_bad, 10, 42,
     "0x1.e4d3c138291f4p+1", "0x1.4337d62570bf8p+0", 0, False),
    ("inv_div", _div_cylindrical, 50, 5,
     "0x1.c0a2fb9f5e740p+0", "0x1.a52e117e61e7ep-2", 0, False),
    ("inv_curl", _curl_cartesian, 100, 11,
     "0x1.6f4a3ea2f9f1ap+4", "0x1.5629a03fdaa9ep+4", 0, False),
    ("inv_curl", _curl_spherical, 40, 3,
     "0x1.7e622412e02bdp+2", "0x1.7e622412e02bdp+2", 0, False),
    ("inv_grad", _grad("sin(x)*y/5 - z^3"), 100, 9,
     "0x1.758e6d35e16dcp+3", "0x1.758e6d35e16dcp+3", 0, False),
    ("inv_grad", _grad("x*y*z/100000000000000"), 30, 2,
     "0x1.4077edada11a0p-45", "0x1.4077edada11a0p-45", 0, True),
    ("inv_div", _ln_against_filler, 20, 42,
     "0x1.111d2aa542355p+2", "0x1.da3a01d6d15ccp+0", 15, False),
]


@pytest.mark.parametrize("kind,build,samples,seed,abs_hex,rel_hex,resamples,within",
                         NONEXACT_REPORTS)
def test_nonexact_reports_keep_their_bits(kind, build, samples, seed, abs_hex, rel_hex,
                                          resamples, within):
    field, result = build()
    report = roundtrip_report(kind, field, result=result, samples=samples, seed=seed)
    assert not report.symbolic_equal
    assert (report.max_abs_error.hex(), report.max_rel_error.hex(),
            report.resample_count, report.within_tolerance) == (
        abs_hex, rel_hex, resamples, within)


def test_zero_residual_still_resamples_where_the_input_leaves_the_domain():
    f = ScalarField(parse("ln(x)"), CARTESIAN)
    exact = VectorField((parse("x*ln(x) - x"), parse("0"), parse("0")), CARTESIAN)
    report = roundtrip_report("inv_div", f, result=exact, samples=40, seed=3)
    assert report.symbolic_equal and report.within_tolerance
    assert report.max_abs_error == 0.0
    assert report.resample_count == 39


def _counting_run(monkeypatch, counts):
    """Counts the report's screenings of a form into ``counts``: the points
    of each outermost evaluation (recursion into function arguments stays
    inside expr) and of each zero residual's input that the magnitude bound
    screens without one, and the most points one saw."""
    run = verify.evaluate
    by_bound = verify._screened_by_bound

    def count(n):
        counts["points"] += n
        counts["largest"] = max(counts["largest"], n)

    def counting_run(form, slots, columns, n, **keywords):
        count(n)
        return run(form, slots, columns, n, **keywords)

    def counting_bound(form, slots, columns, n, failed, table, peaks):
        before = counts["points"]
        by_bound(form, slots, columns, n, failed, table, peaks)
        if counts["points"] == before:
            # Screened by the bound, without an evaluation.
            count(n)

    monkeypatch.setattr(verify, "evaluate", counting_run)
    monkeypatch.setattr(verify, "_screened_by_bound", counting_bound)


def _counting_draws(monkeypatch, counts):
    """Counts the report's ``random()`` draws into ``counts``."""

    class CountingRandom(random.Random):
        def random(self):
            counts["draws"] += 1
            return super().random()

    monkeypatch.setattr(verify.random, "Random", CountingRandom)


@pytest.mark.parametrize("perturb", [False, True])
def test_each_form_is_laid_out_once_per_report(monkeypatch, perturb):
    """While a 100-sample inverse-curl report runs: each component screened
    at each point once, with zero residuals not screened, and three draws a
    point."""
    counts = {"points": 0, "largest": 0, "draws": 0}
    _counting_run(monkeypatch, counts)
    _counting_draws(monkeypatch, counts)
    B, result = _curl_cartesian()
    if not perturb:
        result = inverse_curl(B)
    report = roundtrip_report("inv_curl", B, result=result, samples=100)
    nonzero = sum(not c.is_zero() for c in report.residual.components)
    assert nonzero == (2 if perturb else 0)
    assert report.resample_count == 0
    assert counts == {"points": 100 * (3 + nonzero), "largest": 100, "draws": 300}


@pytest.mark.parametrize("build", [_ln_against_filler, _ln_exact])
def test_a_resampling_report_draws_each_point_once(monkeypatch, build):
    counts = {"points": 0, "largest": 0, "draws": 0}
    _counting_run(monkeypatch, counts)
    _counting_draws(monkeypatch, counts)
    field, result = build()
    report = roundtrip_report("inv_div", field, result=result, samples=100, seed=3)
    assert report.resample_count == 89
    assert counts["draws"] == 3 * (100 + 89)
    # Each drawn point is screened once per input or nonzero residual component.
    components = 1 if report.symbolic_equal else 2
    assert counts["points"] == components * (100 + 89)


@pytest.mark.parametrize("build,abs_hex,rel_hex", [
    (_ln_against_filler, "0x1.321e9ffb0a1cep+3", "0x1.ff278ad0e3c70p+0"),
    (_ln_exact, "0x0.0p+0", "0x0.0p+0"),
])
def test_a_report_over_several_blocks_keeps_its_bits(monkeypatch, build, abs_hex, rel_hex):
    # Pinned from the point-at-a-time sampler that this one replaced.
    counts = {"points": 0, "largest": 0}
    _counting_run(monkeypatch, counts)
    field, result = build()
    report = roundtrip_report("inv_div", field, result=result, samples=1000, seed=3)
    assert (report.max_abs_error.hex(), report.max_rel_error.hex(),
            report.resample_count) == (abs_hex, rel_hex, 969)
    assert 1000 > counts["largest"] == verify.BLOCK_POINTS >= 100


@pytest.mark.parametrize("source,slope,within", [
    ("1", "10^-8", False),
    ("1", "10^-10", True),
    ("1000", "10^-7", True),
    ("0", "10^-11", False),
    ("0", "10^-13", True),
])
def test_the_tolerance_is_relative_to_the_input_above_an_absolute_floor(source, slope, within):
    # The residual is the constant slope; the input's magnitude scales the
    # tolerance 1e-9, and 1e-12 is the floor where the input is 0.
    f = ScalarField(parse(source), CARTESIAN)
    result = _perturbed(inverse_divergence(f), f"{slope}*x", "0", "0")
    report = roundtrip_report("inv_div", f, result=result, samples=10)
    assert not report.symbolic_equal
    assert report.within_tolerance is within


# The per-block table of factor columns.

def test_the_factor_table_keeps_a_signed_zero():
    # Both arguments are 0.0 in floats, +0.0 and -0.0 at x = -1: the two
    # atoms have equal float coefficients, yet sin(-0.0) * sin(0.0) is -0.0.
    value = eval_numeric(parse("sin(x/10^400)*sin(-x/10^400)"), {"x": -1.0})
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


def _factor_occurrences(forms):
    """Each (atom, exponent) factor the forms hold, those inside function
    arguments too, once per occurrence; a variable is named by its name."""
    found = []
    for form in forms:
        for factors, _ in form.terms:
            for atom, e in factors:
                found.append((atom, e))
                if not isinstance(atom, str):
                    found.extend(_factor_occurrences([atom.argument]))
    return found


def test_a_block_forms_each_distinct_factor_column_once(monkeypatch):
    """A 100-sample spherical report: each distinct sin atom is evaluated
    once per point of its block, and each distinct power column is formed
    once, where the forms hold them several times."""
    A = vec(SPHERICAL, "sin(theta)^2*r^2", "r*cos(phi)*sin(theta)", "r^2")
    phi = ScalarField(parse("r^2*sin(theta)*cos(phi)^2"), SPHERICAL)
    forms = [f for f in roundtrip_residual("inv_grad", A, phi) if not f.is_zero()]
    occurrences = _factor_occurrences(forms + list(A.components))
    sines = [atom for atom, _ in occurrences if getattr(atom, "tag", None) == "sin"]
    powers = [factor for factor in occurrences if factor[1] != 1]
    assert (len(sines), len(set(sines)), len(powers), len(set(powers))) == (6, 2, 8, 3)

    calls = Counter()
    sine = expr._FUNCTIONS["sin"]

    def counting_sine(value):
        calls["sin"] += 1
        return sine(value)

    formed = Counter()
    column = expr._column

    def counting_column(atom, e, *rest):
        if e != 1:
            formed[atom, e] += 1
        return column(atom, e, *rest)

    monkeypatch.setitem(expr._FUNCTIONS, "sin", counting_sine)
    monkeypatch.setattr(expr, "_column", counting_column)
    report = roundtrip_report("inv_grad", A, result=phi, samples=100)
    assert not report.symbolic_equal and report.resample_count == 0
    assert calls["sin"] == 100 * len(set(sines))
    assert formed == Counter(set(powers))


# The magnitude bound that screens a zero residual's input.

# Factors whose columns reach the float range's edges over the cartesian box
# [-2, 2]^3: products that overflow at some points only, an argument that
# reads nan at some points only, negative powers and functions that raise.
BOUND_FACTORS = ("x", "y^2", "z^-1", "x^-3", "exp(350*x)", "exp(350*y)", "exp(-800*z)",
                 "exp(700*x)", NAN_ARGUMENT, "ln(x)", "cos(exp(354*y)*exp(354*z))",
                 "exp(x)^-2", "sin(1/y)", "exp(-x)^3", "z", "sin(x*y)", "cos(z)^2",
                 "exp(y - z)", "ln(x^2 + 1)", "sin(1/10^400)")
# Coefficients near 1e300 and either side of the float range.
BOUND_COEFFICIENTS = ("1", "-3", "5/7", "10^300", "-10^299/7", "2^1000", "10^-320",
                      "10^310")


def _bound_form(rng):
    """A sum of one to three terms, each a coefficient times up to four factors."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = rng.sample(BOUND_FACTORS, rng.randint(0, 4))
        terms.append("*".join([rng.choice(BOUND_COEFFICIENTS)] + factors))
    return parse(" + ".join(terms))


def _screen_block(by_bound, forms, columns, n):
    """The failed points of one block whose forms are screened in turn, by
    the bound or by evaluation."""
    failed, table, peaks = set(), {}, {}
    for form in forms:
        if by_bound:
            verify._screened_by_bound(form, {"x": 0, "y": 1, "z": 2}, columns, n, failed,
                                      table, peaks)
        else:
            screened(form, {"x": 0, "y": 1, "z": 2}, columns, n, failed, table)
    return failed


def screened(form, slots, columns, n, failed, table):
    """The form's column over one block, each point where it reads nan
    joining ``failed``: the evaluation the bound falls back to."""
    return expr.evaluate(form, slots, columns, n, failed=failed, table=table)


def test_the_magnitude_bound_fails_the_points_that_evaluation_fails(monkeypatch):
    rng = random.Random(38)
    fallbacks = []
    monkeypatch.setattr(verify, "evaluate",
                        lambda form, *rest, **keywords: fallbacks.append(form)
                        or screened(form, *rest, **keywords))
    # Products at the overflow edge first: the second is inf times 0.0, nan
    # where x + y > 2.03 though no point fails, and the third is its sine.
    edges = [[parse("exp(350*x)*exp(350*y)*exp(-800*z)")],
             [parse("exp(350*x)*exp(350*y)*sin(1/10^400)")],
             [parse("cos(z) + sin(exp(350*x)*exp(350*y)*sin(1/10^400))")]]
    forms = edges.pop(0)
    blocks = bounded = 0
    while blocks < 300:
        n = 100 if blocks < 3 else rng.choice((1, 9, 100))
        columns = [[rng.uniform(lo, hi) for _ in range(n)] for lo, hi in CARTESIAN.sampling_box]
        before = len(fallbacks)
        failed = _screen_block(True, forms, columns, n)
        bounded += len(forms) - (len(fallbacks) - before)
        # A block's earlier forms may have failed points that a later one meets.
        assert failed == _screen_block(False, forms, columns, n), forms
        blocks += 1
        forms = edges.pop(0) if edges else [_bound_form(rng) for _ in range(rng.randint(1, 3))]
    # Both ways are taken many times.
    assert min(bounded, len(fallbacks)) > 100, (bounded, len(fallbacks))


def test_the_bound_and_evaluation_fail_the_same_points_in_every_block_of_a_report(
        monkeypatch):
    by_bound = verify._screened_by_bound
    checked = Counter()

    def both(form, slots, columns, n, failed, table, peaks):
        expected = set(failed)
        screened(form, slots, columns, n, expected, dict(table))
        by_bound(form, slots, columns, n, failed, table, peaks)
        assert failed == expected
        checked[bool(failed)] += 1

    monkeypatch.setattr(verify, "_screened_by_bound", both)
    rng = random.Random(3800)
    reports = 0
    while reports < 12:
        phi = ScalarField(_bound_form(rng), CARTESIAN)
        try:
            field = gradient(phi)
        except UnsupportedExpression:  # the derivative of ln(x^2 + 1)
            continue
        reports += 1
        try:
            roundtrip_report("inv_grad", field, result=phi, samples=300,
                             seed=rng.randint(0, 10**6))
        except SamplingExhausted:
            pass
    assert checked[True] > 10 and checked[False] > 10, checked


def test_the_bound_is_read_over_a_block_with_a_failed_point(monkeypatch):
    # A column holds nan only at a failed point, which max skips unless it
    # comes first, and then the bound reads nan and falls back.
    fallbacks = []
    monkeypatch.setattr(verify, "evaluate",
                        lambda form, *rest, **keywords: fallbacks.append(form))
    form = parse("2*x")
    failed = {0}
    verify._screened_by_bound(form, {"x": 0}, [[1.0, 2.0]], 2, failed, {}, {})
    assert fallbacks == [] and failed == {0}
    form = parse("ln(x)")
    failed, peaks = set(), {}
    verify._screened_by_bound(form, {"x": 0}, [[-1.0, 2.0]], 2, failed, {}, peaks)
    assert failed == {0} and math.isnan(*peaks.values())
    assert fallbacks == [form]
