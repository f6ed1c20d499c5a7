"""SymPy's verdict on the acceptance corpora: one count line per operator and
system.

    PYTHONPATH=src python tests/oracle_corpus.py

Builds the corpora of ``tests/test_acceptance.py`` from its seeds (600
inverse curls, 900 inverse divergences over three weight sets, 300 inverse
gradients) and checks, with the helpers of ``tests/_oracle.py``, the curl
and divergence of each random potential and the gradient of each random
scalar against their Lamé formulas, and each inverse result through SymPy's
forward operator.  A field that invdel refuses (NotIntegrable or
UnsupportedExpression) is counted, not checked.  Exits 1 if any check
disagrees.  Needs SymPy; pytest does not collect it.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from fractions import Fraction

from invdel import (
    DivergenceWeights,
    NotIntegrable,
    UnsupportedExpression,
    builtin,
    curl,
    gradient,
    render,
)

from _oracle import (
    forward_check,
    inverse_curl_check,
    inverse_divergence_check,
    inverse_gradient_check,
)
from _support import random_scalar, random_vector

SYSTEMS = tuple(builtin(name) for name in ("cartesian", "cylindrical", "spherical"))
WEIGHT_SETS = (
    DivergenceWeights.symmetric(),
    DivergenceWeights(1, 0, 0),
    DivergenceWeights(Fraction(1, 2), Fraction(1, 2), 0),
)


def _texts(field) -> tuple:
    return tuple(render(c) for c in field.components)


def main() -> int:
    counts = Counter()  # (operator, system, verdict) -> count

    def check(operator, system, run):
        try:
            verdict = "agree" if run() else "DISAGREE"
        except (NotIntegrable, UnsupportedExpression):
            verdict = "refused"
        counts[operator, system.label, verdict] += 1
        return verdict

    start = time.perf_counter()
    rng = random.Random(20260201)
    for system in SYSTEMS:
        for _ in range(200):
            A0 = random_vector(rng, system)
            for operator in ("curl", "divergence"):
                check(operator, system, lambda: forward_check(operator, system, _texts(A0)))
            check("inverse_curl", system, lambda: inverse_curl_check(curl(A0)))
    rng = random.Random(20260202)
    for system in SYSTEMS:
        for weights in WEIGHT_SETS:
            # The acceptance suite draws again after each refusal, until 100 are kept.
            kept = 0
            while kept < 100:
                f = random_scalar(rng, system)
                verdict = check("inverse_divergence", system,
                                lambda: inverse_divergence_check(f, weights))
                kept += verdict != "refused"
    rng = random.Random(20260203)
    for system in SYSTEMS:
        for _ in range(100):
            phi0 = random_scalar(rng, system)
            check("gradient", system, lambda: forward_check("gradient", system, render(phi0.value)))
            check("inverse_gradient", system, lambda: inverse_gradient_check(gradient(phi0)))
    for operator, label in sorted({key[:2] for key in counts}):
        verdicts = {v: counts[operator, label, v] for v in ("agree", "DISAGREE", "refused")}
        print(f"{operator} {label}: " + ", ".join(f"{n} {v}" for v, n in verdicts.items()))
    print(f"elapsed: {time.perf_counter() - start:.1f} s")
    return 1 if any(verdict == "DISAGREE" for *_, verdict in counts) else 0


if __name__ == "__main__":
    sys.exit(main())
