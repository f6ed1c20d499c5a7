"""Acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so a failing criterion is both displayed and recorded.  Corpora are
built once per module and shared; construction is timed where a criterion
carries a runtime budget.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import _reference_curl_formula
from invdel import (
    ConstructionFailed,
    CurlWeights,
    DivergenceWeights,
    InvdelError,
    NotIntegrable,
    NotSolenoidal,
    SourceError,
    VectorField,
    builtin,
    canonicalize,
    curl,
    curl_integrands,
    differentiate,
    divergence,
    equals,
    free_variables,
    gauge_shift_curl,
    gauge_shift_div,
    gradient,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
    parse,
    render,
    roundtrip_report,
    split_by_variable,
)
from invdel.cli import main as cli_main
from invdel.inverse import roundtrip_residual

from _support import (
    ANGLES,
    bare_variables,
    periodic_corpus,
    random_polynomial,
    random_scalar,
    random_vector,
)

SYSTEMS = tuple(builtin(name) for name in ("cartesian", "cylindrical", "spherical"))

GOLDEN_B = ("x*y*z + y^2", "x*z + y", "-z - y*z^2/2")
GOLDEN_A = (
    "x*z^2/4 + y^2*z^2/12 + 2*y*z/3",
    "-x*y*z^2/3 - x*z/3 - y^2*z/2",
    "-x^2*z/4 + x*y^2*z/6 - x*y/3 + y^3/6",
)


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def curl_corpus():
    """200 random potentials per system; B := curl(A0), then invert."""
    rng = random.Random(20260201)
    per_system = {}
    start = time.perf_counter()
    for system in SYSTEMS:
        entries = []
        for _ in range(200):
            B = curl(random_vector(rng, system))
            entry = {"B": B, "A": None, "error": None, "match": False}
            try:
                A = inverse_curl(B)
            except (NotIntegrable, ConstructionFailed) as err:
                entry["error"] = err
            else:
                entry["A"] = A
                entry["match"] = all(
                    equals(got, want)
                    for got, want in zip(curl(A).components, B.components))
            entries.append(entry)
        per_system[system.label] = entries
    elapsed = time.perf_counter() - start
    return {"entries": per_system, "elapsed": elapsed}


@pytest.fixture(scope="module")
def div_corpus():
    """100 constructible scalar fields per system and weight vector.

    Fields whose construction raises NotIntegrable (spherical fields with a
    polar-angle power, integrated against the metric factor) are regenerated
    and counted rather than silently dropped; a group that takes 5000 draws
    fails by its name (the worst takes 1166).
    """
    rng = random.Random(20260202)
    weight_sets = (
        DivergenceWeights.symmetric(),
        DivergenceWeights(1, 0, 0),
        DivergenceWeights(Fraction(1, 2), Fraction(1, 2), 0),
    )
    entries = []
    rejected = {}
    for system in SYSTEMS:
        for weights in weight_sets:
            key = (system.label, weights.as_tuple())
            rejected[key] = 0
            kept = 0
            while kept < 100:
                if kept + rejected[key] == 5000:
                    pytest.fail(f"div_corpus group {key}: {kept} of 5000 fields construct")
                f = random_scalar(rng, system)
                try:
                    A = inverse_divergence(f, weights)
                except NotIntegrable:
                    rejected[key] += 1
                    continue
                entries.append((f, weights, A))
                kept += 1
    return {"entries": entries, "rejected": rejected}


@pytest.fixture(scope="module")
def grad_corpus():
    """100 random potentials per system; A := gradient(phi0), then invert."""
    rng = random.Random(20260203)
    entries = []
    for system in SYSTEMS:
        for _ in range(100):
            phi0 = random_scalar(rng, system)
            A = gradient(phi0)
            phi = inverse_gradient(A)
            entries.append((phi0, A, phi))
    return entries


def test_criterion_01_known_cartesian_potential():
    B = VectorField(tuple(parse(t) for t in GOLDEN_B), builtin("cartesian"))
    start = time.perf_counter()
    A = inverse_curl(B)
    elapsed = time.perf_counter() - start
    rendered = tuple(render(c) for c in A.components)
    exact = rendered == GOLDEN_A
    closes = all(equals(g, w) for g, w in zip(curl(A).components, B.components))
    _verdict(1, exact and closes and elapsed < 1.0,
             f"exact={exact} curl_matches={closes} elapsed={elapsed:.3f}s")


def test_criterion_02_inverse_curl_round_trips(curl_corpus):
    attempted = succeeded = not_integrable = construction_failed = 0
    for label, entries in curl_corpus["entries"].items():
        for entry in entries:
            if isinstance(entry["error"], NotIntegrable):
                not_integrable += 1
                continue
            attempted += 1
            if isinstance(entry["error"], ConstructionFailed):
                construction_failed += 1
            elif entry["match"]:
                succeeded += 1
    elapsed = curl_corpus["elapsed"]
    ok = (succeeded == attempted and construction_failed == 0
          and elapsed < 60.0)
    _verdict(2, ok,
             f"succeeded={succeeded}/{attempted} attempted, "
             f"not_integrable={not_integrable} excluded, "
             f"construction_failed={construction_failed}, elapsed={elapsed:.1f}s")


def test_criterion_03_containing_parts_cancel(curl_corpus):
    checked = holds = 0
    for label, entries in curl_corpus["entries"].items():
        system = builtin(label)
        for entry in entries:
            pieces = curl_integrands(entry["B"])
            total = parse("0")
            for name, c in zip(system.names, pieces):
                total = total + differentiate(
                    split_by_variable(c, name).plus_part, name)
            checked += 1
            if canonicalize(total).is_zero():
                holds += 1
    _verdict(3, holds == checked, f"identity held on {holds}/{checked} fields")


def test_criterion_04_inverse_divergence_round_trips(div_corpus):
    entries = div_corpus["entries"]
    matched = sum(
        1 for f, weights, A in entries if equals(divergence(A), f.value))
    regenerated = sum(div_corpus["rejected"].values())
    ok = matched == len(entries) == 900
    _verdict(4, ok,
             f"matched={matched}/{len(entries)}, "
             f"regenerated_after_not_integrable={regenerated}")


def test_criterion_05_inverse_gradient_round_trips(grad_corpus):
    grad_matches = constant_differences = 0
    for phi0, A, phi in grad_corpus:
        if all(equals(g, w) for g, w in zip(gradient(phi).components, A.components)):
            grad_matches += 1
        if not free_variables(phi.value - phi0.value):
            constant_differences += 1
    total = len(grad_corpus)
    ok = grad_matches == total == constant_differences and total == 300
    _verdict(5, ok,
             f"gradient_matches={grad_matches}/{total}, "
             f"constant_differences={constant_differences}/{total}")


def test_criterion_06_gauge_freedom():
    rng = random.Random(20260206)
    curl_ok = div_ok = pairs = 0
    for _ in range(50):
        system = SYSTEMS[rng.randrange(3)]
        A = random_vector(rng, system)
        f = random_scalar(rng, system)
        C = random_vector(rng, system)
        pairs += 1
        shifted = gauge_shift_curl(A, f)
        if all(equals(g, w) for g, w in zip(curl(shifted).components,
                                            curl(A).components)):
            curl_ok += 1
        if equals(divergence(gauge_shift_div(A, C)), divergence(A)):
            div_ok += 1
    _verdict(6, curl_ok == div_ok == pairs,
             f"curl_preserved={curl_ok}/{pairs}, div_preserved={div_ok}/{pairs}")


def test_criterion_07_forward_identities():
    rng = random.Random(20260207)
    div_curl = curl_grad = total = 0
    for system in SYSTEMS:
        for _ in range(200):
            total += 1
            if canonicalize(divergence(curl(random_vector(rng, system)))).is_zero():
                div_curl += 1
            rotation = curl(gradient(random_scalar(rng, system)))
            if all(canonicalize(c).is_zero() for c in rotation.components):
                curl_grad += 1
    _verdict(7, div_curl == curl_grad == total,
             f"div_of_curl_zero={div_curl}/{total}, curl_of_grad_zero={curl_grad}/{total}")


def test_criterion_08_weights_are_load_bearing():
    B = VectorField(tuple(parse(t) for t in GOLDEN_B), builtin("cartesian"))
    broken = 0
    # The library assembles with the default weights only; the frozen
    # reference assembly still takes another pair.
    for w_plus, w_minus in ((Fraction(1, 2), Fraction(1, 2)),
                            (Fraction(1, 3), Fraction(1, 3))):
        A = _reference_curl_formula.curl_potential_formula(B, CurlWeights(w_plus, w_minus))
        if not all(equals(g, w) for g, w in zip(curl(A).components, B.components)):
            broken += 1
    _verdict(8, broken == 2,
             f"{broken}/2 alternative weight choices fail the round trip")


def test_criterion_09_numeric_verification(curl_corpus, div_corpus, grad_corpus):
    reports = checked = 0
    worst = 0.0
    seed = 20260209
    for entries in curl_corpus["entries"].values():
        for entry in entries:
            if entry["A"] is None:
                continue
            report = roundtrip_report("inv_curl", entry["B"], result=entry["A"],
                                      samples=100, seed=seed + reports)
            reports += 1
            worst = max(worst, report.max_rel_error)
            if report.symbolic_equal and report.within_tolerance:
                checked += 1
    for f, weights, A in div_corpus["entries"]:
        report = roundtrip_report("inv_div", f, weights=weights, result=A,
                                  samples=100, seed=seed + reports)
        reports += 1
        worst = max(worst, report.max_rel_error)
        if report.symbolic_equal and report.within_tolerance:
            checked += 1
    for phi0, A, phi in grad_corpus:
        report = roundtrip_report("inv_grad", A, result=phi,
                                  samples=100, seed=seed + reports)
        reports += 1
        worst = max(worst, report.max_rel_error)
        if report.symbolic_equal and report.within_tolerance:
            checked += 1
    _verdict(9, checked == reports,
             f"within_tolerance={checked}/{reports} reports, "
             f"max_rel_error={worst:.2e}")


def test_criterion_10_parser_and_cli(capsys):
    rng = random.Random(20260210)
    round_trips = 0
    for _ in range(500):
        e = random_polynomial(rng, ("x", "y", "z"))
        if equals(parse(render(e)), e):
            round_trips += 1

    malformed = ["", "x +", "(x", "x^", "x^y", "2x", "sin", "@", "x**2"]
    tagged = 0
    for text in malformed:
        try:
            parse(text)
        except SourceError as err:
            if isinstance(err.offset, int) and err.offset >= 0 and "offset" in str(err):
                tagged += 1

    code_a = cli_main(["inv-curl", "--coords", "cartesian", *GOLDEN_B])
    out_a = capsys.readouterr().out
    printed = [line.split(": ", 1)[1] for line in out_a.strip().splitlines()]
    example_a = code_a == 0 and tuple(printed) == GOLDEN_A

    code_b = cli_main(["inv-curl", "x", "0", "0"])
    err_b = capsys.readouterr().err
    example_b = code_b == 3 and "NotSolenoidal" in err_b and "1" in err_b

    code_c = cli_main(["inv-grad", "--base", "0,0,0", "2*x*y", "x^2", "1"])
    out_c = capsys.readouterr().out
    example_c = code_c == 0 and out_c.strip() == "phi: x^2*y + z"

    ok = (round_trips == 500 and tagged == len(malformed)
          and example_a and example_b and example_c)
    _verdict(10, ok,
             f"round_trips={round_trips}/500, position_tagged={tagged}/{len(malformed)}, "
             f"cli_examples={[example_a, example_b, example_c]}")


# Outcomes per (operator, system) of the corpus periodic in the angles, seed
# 7, 100 draws per system.  Spherical fields refuse where the symmetric
# weights integrate in theta; a rise in "built" is an intended change, a
# fall a regression.
PERIODIC_OUTCOMES = {
    ("inverse_curl", "cylindrical"): {"built": 100},
    ("inverse_divergence", "cylindrical"): {"built": 100},
    ("inverse_divergence-1-0-0", "cylindrical"): {"built": 100},
    ("inverse_gradient", "cylindrical"): {"built": 100},
    ("inverse_curl", "spherical"): {"built": 19, "NotIntegrable": 81},
    ("inverse_divergence", "spherical"): {"built": 12, "NotIntegrable": 88},
    ("inverse_divergence-1-0-0", "spherical"): {"built": 100},
    ("inverse_gradient", "spherical"): {"built": 100},
}


def test_the_angle_periodic_corpus_builds_its_pinned_counts():
    corpus = periodic_corpus()
    outcomes = {key: dict(Counter(type(result).__name__ if isinstance(result, InvdelError)
                                  else "built" for _, result in rows))
                for key, rows in corpus.items()}
    for (operator, label), rows in corpus.items():
        kind = {"inverse_curl": "inv_curl",
                "inverse_gradient": "inv_grad"}.get(operator, "inv_div")
        built = [(field, result) for field, result in rows if not isinstance(result, InvdelError)]
        for field, result in built:
            assert all(form.is_zero() for form in roundtrip_residual(kind, field, result))
        # A record, not a gate: the results not single-valued in the angles.
        bare = sum(1 for field, result in built
                   if set(ANGLES) & bare_variables(result) - bare_variables(field))
        print(f"periodic {operator} {label}: {outcomes[operator, label]}, "
              f"{bare} with a bare angle their input lacks")
    assert outcomes == PERIODIC_OUTCOMES
