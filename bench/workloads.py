"""Inputs, operations and output checks of the in-process workloads.

Every input is generated from a seed and handed to invdel as source text,
the way a user would type it.  The generators draw from ``random.Random``
in the same order as the acceptance suite (``tests/test_acceptance.py``).
At the acceptance seeds (curl 20260201, divergence 20260202, gradient
20260203) the curl and gradient corpora are the acceptance corpora.  The
divergence corpus is the acceptance suite's first 100 draws per group: the
suite draws a replacement after each refusal, this corpus keeps the draws
as drawn.

Operations look invdel functions up on the package at call time, so the
bindings that ``tracer.Tracer`` installs are the ones they call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import invdel

SYSTEM_NAMES = ("cartesian", "cylindrical", "spherical")
DIV_WEIGHTS = (
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
)
FULL_SIZE = 200          # curl fields per system
WARMUP_SIZE = 2          # fields per group in the untimed warm-up
REPORT_SAMPLES = 100
REFUSALS = (invdel.NotIntegrable, invdel.UnsupportedExpression)


@dataclass
class Item:
    """One op's input.  ``texts`` is the source text of the field."""

    kind: str                       # curl | div | grad | report
    system: Any                     # invdel.CoordinateSystem
    texts: tuple
    weights: Any = None             # invdel.DivergenceWeights for div
    report_kind: str = ""           # inv_curl | inv_div | inv_grad
    field: Any = None               # parsed input, report only
    result: Any = None              # precomputed inverse, report only
    seed: int = 0                   # sampling seed, report only


def random_polynomial(rng, names, max_terms=3, max_degree=3):
    """Random polynomial with small rational coefficients, drawn in the same
    order as the acceptance suite's generator."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = Fraction(
            rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        term = invdel.num(coefficient)
        for name in names:
            degree = rng.randint(0, max_degree)
            if degree:
                term = term * invdel.var(name) ** degree
        terms.append(term)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _texts(expressions) -> tuple:
    return tuple(invdel.render(e) for e in expressions)


def _no_tick() -> None:
    pass


def curl_groups(seed: int, per_system: int, tick=_no_tick) -> list:
    """B = curl(random potential), ``per_system`` per builtin system."""
    rng = random.Random(seed)
    groups = []
    for name in SYSTEM_NAMES:
        system = invdel.builtin(name)
        group = []
        for _ in range(per_system):
            potential = invdel.VectorField(
                tuple(random_polynomial(rng, system.names) for _ in range(3)),
                system)
            group.append(Item("curl", system,
                              _texts(invdel.curl(potential).components)))
            tick()
        groups.append(group)
    return groups


def div_groups(seed: int, draws: int, tick=_no_tick) -> list:
    """Random scalar sources, ``draws`` per system and weight set, kept as
    drawn: no source is regenerated when its inverse is refused."""
    rng = random.Random(seed)
    groups = []
    for name in SYSTEM_NAMES:
        system = invdel.builtin(name)
        for k in DIV_WEIGHTS:
            weights = invdel.DivergenceWeights(*k)
            group = []
            for _ in range(draws):
                group.append(Item("div", system,
                                  _texts([random_polynomial(rng, system.names)]),
                                  weights))
                tick()
            groups.append(group)
    return groups


def grad_groups(seed: int, per_system: int, tick=_no_tick) -> list:
    """A = gradient(random scalar), ``per_system`` per builtin system."""
    rng = random.Random(seed)
    groups = []
    for name in SYSTEM_NAMES:
        system = invdel.builtin(name)
        group = []
        for _ in range(per_system):
            phi = invdel.ScalarField(random_polynomial(rng, system.names), system)
            group.append(Item("grad", system,
                              _texts(invdel.gradient(phi).components)))
            tick()
        groups.append(group)
    return groups


def interleave(groups: list) -> list:
    """Spread every group evenly over one list, so that any prefix of it
    has close to the whole list's mix of systems and operators."""
    keyed = [((i + 0.5) / len(group), g, item)
             for g, group in enumerate(groups) for i, item in enumerate(group)]
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def report_items(seed: int, size: int, tick=_no_tick) -> list:
    """One report op per success of the curl corpus (``seed``), the
    divergence corpus (``seed + 1``) and the gradient corpus (``seed + 2``);
    the inverse is built here, outside the timed op.  The successes keep
    their corpus groups (operator × system × weights), which are
    interleaved like the other workloads' groups."""
    groups = []
    for report_kind, corpus in (
            ("inv_curl", curl_groups(seed, size, tick)),
            ("inv_div", div_groups(seed + 1, size // 2, tick)),
            ("inv_grad", grad_groups(seed + 2, size // 2, tick))):
        for corpus_group in corpus:
            group = []
            for item in corpus_group:
                try:
                    field, result = CONSTRUCT[item.kind](item)
                except REFUSALS:
                    continue
                finally:
                    tick()
                item.kind, item.report_kind = "report", report_kind
                item.field, item.result = field, result
                group.append(item)
            groups.append(group)
    items = interleave(groups)
    for i, item in enumerate(items):
        # seed + 8 + i: at the acceptance seed the sampling seeds start at
        # the acceptance suite's 20260209, given out in this list's order.
        item.seed = seed + 8 + i
    return items


def build(workload: str, seed: int, size: int = FULL_SIZE, tick=_no_tick) -> list:
    """The op list of a workload; ``size`` scales every corpus together
    (curl fields per system; half as many divergence draws per group and
    gradient fields per system).  ``tick`` is called after every input."""
    if workload == "curl_corpus":
        return interleave(curl_groups(seed, size, tick))
    if workload == "div_grad_corpus":
        return interleave(div_groups(seed, size // 2, tick)
                          + grad_groups(seed + 1, size // 2, tick))
    if workload == "verify_reports":
        return report_items(seed, size, tick)
    raise ValueError(f"unknown workload {workload!r}")


def _construct_curl(item: Item):
    B = invdel.VectorField(tuple(invdel.parse(t) for t in item.texts), item.system)
    return B, invdel.inverse_curl(B)


def _construct_div(item: Item):
    # Divergence and gradient ops resolve the system by name, as the CLI does.
    system = invdel.builtin(item.system.label)
    f = invdel.ScalarField(invdel.parse(item.texts[0]), system)
    return f, invdel.inverse_divergence(f, item.weights)


def _construct_grad(item: Item):
    system = invdel.builtin(item.system.label)
    A = invdel.VectorField(tuple(invdel.parse(t) for t in item.texts), system)
    return A, invdel.inverse_gradient(A)


CONSTRUCT = {"curl": _construct_curl, "div": _construct_div, "grad": _construct_grad}


def run_op(item: Item):
    """One timed op.  Returns its rendered output and what the check needs;
    refusals and errors propagate."""
    if item.kind == "report":
        report = invdel.roundtrip_report(
            item.report_kind, item.field, weights=item.weights,
            result=item.result, samples=REPORT_SAMPLES, seed=item.seed)
        return (_report_text(report),), report
    field, result = CONSTRUCT[item.kind](item)
    parts = (result.value,) if item.kind == "grad" else result.components
    return tuple(invdel.render(p) for p in parts), (field, result)


def _report_text(report) -> str:
    return (f"{report.kind} symbolic_equal={report.symbolic_equal} "
            f"within_tolerance={report.within_tolerance} "
            f"samples={report.sample_count} resamples={report.resample_count} "
            f"max_abs_error={report.max_abs_error!r} "
            f"max_rel_error={report.max_rel_error!r}")


def check(item: Item, kept) -> bool:
    """Outside the timed region: re-check a success by its forward operator,
    or a report by its own verdict and sample count."""
    if item.kind == "report":
        return (kept.symbolic_equal and kept.within_tolerance
                and kept.sample_count == REPORT_SAMPLES)
    field, result = kept
    if item.kind == "curl":
        pairs = zip(invdel.curl(result).components, field.components)
    elif item.kind == "div":
        pairs = [(invdel.divergence(result), field.value)]
    else:
        pairs = zip(invdel.gradient(result).components, field.components)
    return all(invdel.equals(got, want) for got, want in pairs)


def clear_atom_cache() -> None:
    """Empty ``expr._atom_key``'s process-lifetime cache, when there is one,
    so the timed pass does not start with set-up's atoms already cached."""
    cache_clear = getattr(getattr(invdel.expr, "_atom_key", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
