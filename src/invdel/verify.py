"""Round-trip verification: symbolic residuals plus seeded numeric sampling.

The symbolic channel is ``inverse.roundtrip_residual``.  The numeric
channel evaluates each nonzero residual component and its input component
over blocks of at most ``BLOCK_POINTS`` seeded points (``expr.evaluate``),
with one table of factor columns per block; a point where a form reads
nan fails.  A zero residual's input is only screened for points without a
value: by its factor columns and a magnitude bound, multiplied out only
where the bound cannot rule out overflow (``_screened_by_bound``).
``MAX_SAMPLES`` bounds a report's points and ``MAX_REPORT_WORK`` its points
times its forms' factors, before a point is drawn.  The README's "Library
use" describes the error scale and resampling; a block draws only the
points still missing, so a report is that of sampling one point at a time.
``to_dict`` lists the fields in slot order, the JSON key order.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Union

from .errors import SamplingExhausted, UnsupportedExpression, ValidationError, _echoed
from .expr import Frozen, _column, evaluate
from .inverse import BasePoint, DivergenceWeights, check_kind, construct, roundtrip_residual
from .vecops import ScalarField, VectorField, rendered

RELATIVE_TOLERANCE = 1e-9
ABSOLUTE_FLOOR = 1e-12
# The most sample points one pass over a report's forms evaluates; the
# default report of 100 points is one block.
BLOCK_POINTS = 256
# The most sample points one report takes, so that it ends in bounded time.
MAX_SAMPLES = 1_000_000
# The most sample points times form factors one report may evaluate, a term's
# coefficient and a function's argument form counted among its factors.
MAX_REPORT_WORK = 10_000_000
# Below the float range by far more than any rounding of a sum of bounds: a
# form whose magnitude bound stays below it reads inf, and so nan, nowhere.
_MAGNITUDE_BOUND = 1e300


class VerificationReport(Frozen):
    """Outcome of one round-trip check; ``residual`` is a VectorField, or a
    CanonicalForm for ``inv_div``."""

    __slots__ = ("kind", "symbolic_equal", "residual", "sample_count", "max_abs_error",
                 "max_rel_error", "rng_seed", "sampling_box", "resample_count",
                 "within_tolerance")

    def __init__(self, kind: str, symbolic_equal: bool, residual, sample_count: int,
                 max_abs_error: float, max_rel_error: float, rng_seed: int,
                 sampling_box: tuple, resample_count: int, within_tolerance: bool):
        self._init(kind, symbolic_equal, residual, sample_count, max_abs_error,
                   max_rel_error, rng_seed, sampling_box, resample_count,
                   within_tolerance)

    def to_dict(self) -> dict:
        payload = dict(zip(self.__slots__, self._values()))
        payload["residual"] = rendered(self.residual)
        payload["sampling_box"] = [list(iv) for iv in self.sampling_box]
        return payload


def roundtrip_report(
    kind: str,
    field: Union[VectorField, ScalarField],
    *,
    weights: Optional[DivergenceWeights] = None,
    base: Optional[BasePoint] = None,
    samples: int = 100,
    seed: int = 42,
    result=None,
) -> VerificationReport:
    """Run inverse then forward and report the residual.

    ``result`` may carry an already-computed (possibly gauge-shifted)
    inverse, and then ``weights`` and ``base`` are not used; otherwise
    ``inverse.construct`` runs here and its errors propagate unchanged.  An
    unknown kind, a ``field`` its kind does not take (``inverse.check_kind``)
    and a ``result`` of another field type or system is a ValidationError.
    """
    check_kind(kind, field)
    _check_int(samples, "sample count")
    if samples < 1:
        raise ValidationError("sample count must be positive")
    if samples > MAX_SAMPLES:
        raise ValidationError(f"sample count must be at most {MAX_SAMPLES}")
    _check_int(seed, "seed")

    system = field.system
    if result is None:
        result, _ = construct(kind, field, weights=weights, base=base)
    elif not isinstance(result, ScalarField if kind == "inv_grad" else VectorField):
        raise ValidationError(f"{type(result).__name__} is not an {kind} result")
    elif result.system is not system and result.system != system:
        raise ValidationError("result lives in a different coordinate system")
    residual_forms = roundtrip_residual(kind, field, result)
    symbolic_equal = all(form.is_zero() for form in residual_forms)
    if kind == "inv_div":
        reference, residual = (field.value,), residual_forms[0]
    else:
        reference, residual = field.components, VectorField._built(residual_forms, system)

    draw = random.Random(seed).random
    box = system.sampling_box
    spans = [(lo, hi - lo) for lo, hi in box]
    slots = {name: i for i, name in enumerate(system.names)}
    forms = list(zip(residual_forms, reference))
    factors = _factor_count(form for pair in forms for form in pair)
    if samples * factors > MAX_REPORT_WORK:
        raise UnsupportedExpression(
            f"a report of {samples} samples over forms of {factors} factors exceeds "
            f"the budget of {MAX_REPORT_WORK} sample factors")
    max_abs = 0.0
    max_rel = 0.0
    within = True
    resamples = 0
    collected = 0
    while collected < samples:
        # The missing points, coordinate by coordinate as rng.uniform(lo, hi) draws them.
        n = min(samples - collected, BLOCK_POINTS)
        draws = list(itertools.starmap(draw, itertools.repeat((), len(box) * n)))
        columns = [[lo + width * u for u in draws[k::len(box)]]
                   for k, (lo, width) in enumerate(spans)]
        # One block's factor columns, shared by all of its forms.
        failed, table, peaks = set(), {}, {}
        pairs = []
        for res, ref in forms:
            # A zero residual adds nothing, but its reference may leave the domain.
            if res.is_zero():
                _screened_by_bound(ref, slots, columns, n, failed, table, peaks)
            else:
                pairs.append((evaluate(res, slots, columns, n, failed=failed, table=table),
                              evaluate(ref, slots, columns, n, failed=failed, table=table)))
        resamples += len(failed)
        if resamples > 10 * samples:
            raise SamplingExhausted(
                f"more than {10 * samples} sample points fell outside the domain")
        # With every residual zero there is no point to scan.
        for i in range(n) if pairs else ():
            if i in failed:
                continue
            for errors, scales in pairs:
                error = abs(errors[i])
                scale = abs(scales[i])
                max_abs = max(max_abs, error)
                max_rel = max(max_rel, error / max(1.0, scale))
                if error > max(RELATIVE_TOLERANCE * scale, ABSOLUTE_FLOOR):
                    within = False
        collected += n - len(failed)

    return VerificationReport(
        kind=kind,
        symbolic_equal=symbolic_equal,
        residual=residual,
        sample_count=samples,
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        rng_seed=seed,
        sampling_box=box,
        resample_count=resamples,
        within_tolerance=within,
    )


def _screened_by_bound(form, slots: dict, columns: list, n: int, failed: set,
                       table: dict, peaks: dict) -> None:
    """Fails the points where a form whose column is not used reads nan,
    without its term products and sum where a magnitude bound rules it out.

    The form's factor columns join ``table`` in canonical term order, as
    ``evaluate`` forms them, so the same points fail; ``peaks`` keeps each
    column's largest magnitude for the block.  A column holds nan only at a
    failed point, which ``max`` skips unless it comes first.  The bound
    sums, over the terms, |coefficient| times each factor's peak, multiplied
    in ``evaluate``'s order; float rounding is monotone, so each partial
    product bounds that of every other point.  Below ``_MAGNITUDE_BOUND`` no
    product or sum reaches inf, so none reads inf * 0.0 or inf - inf.  A
    bound not below it, as inf (a coefficient past the float range) and nan
    (inf * 0.0, a nan peak) are not, leaves the form to ``evaluate``.
    """
    total = 0.0
    for factors, (p, q) in form.terms:
        try:
            bound = abs(p) / q
        except OverflowError:
            bound = math.inf
        for factor in factors:
            peak = peaks.get(factor)
            if peak is None:
                values = table.get(factor)
                if values is None:
                    values = _column(*factor, slots, columns, n, failed, table)
                peak = peaks[factor] = max(map(abs, values))
            bound *= peak
        total += bound
    if not total < _MAGNITUDE_BOUND:
        evaluate(form, slots, columns, n, failed=failed, table=table)


def _factor_count(forms) -> int:
    """The factors of the forms' terms, each term's coefficient and the
    factors of its functions' argument forms included."""
    count = 0
    for form in forms:
        count += len(form._map)
        for factors in form._map:
            count += len(factors)
            for atom, _ in factors:
                if atom.__class__ is not str:
                    count += _factor_count((atom.argument,))
    return count


def _check_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an int, not {_echoed(type(value).__name__)}")
