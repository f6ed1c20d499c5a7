"""SymPy as an outside oracle for invdel's results.

Rendered text is read by SymPy (``^`` as ``**``, ``ln`` as ``log``) over
real symbols, and the forward operators are written here from the Lamé
coefficients with ``sympy.diff``, so no invdel algebra is on the checking
side.  Two expressions agree when ``simplify(expand(got - want)) == 0``.
"""

from __future__ import annotations

import sympy

from invdel import (
    DivergenceWeights,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
    parse,
    render,
)

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def to_sympy(text: str, names) -> sympy.Expr:
    """Rendered invdel text as a SymPy expression over real symbols."""
    local = {name: sympy.Symbol(name, real=True) for name in names}
    local["ln"] = sympy.log
    return sympy.parse_expr(text.replace("^", "**"), local_dict=local)


class Lame:
    """A system's coordinates and scale factors in SymPy, with the three
    forward operators in their Lamé-coefficient form."""

    def __init__(self, system):
        self.names = system.names
        self.u = [sympy.Symbol(name, real=True) for name in system.names]
        self.h = [self.of(h) for h in system.scale_factors]

    def of(self, value) -> sympy.Expr:
        return to_sympy(value if isinstance(value, str) else render(value), self.names)

    def gradient(self, f):
        return [sympy.diff(f, self.u[i]) / self.h[i] for i in range(3)]

    def divergence(self, A):
        volume = self.h[0] * self.h[1] * self.h[2]
        return sum(sympy.diff(volume / self.h[i] * A[i], self.u[i]) for i in range(3)) / volume

    def curl(self, A):
        h, u = self.h, self.u
        return [(sympy.diff(h[k] * A[k], u[j]) - sympy.diff(h[j] * A[j], u[k])) / (h[j] * h[k])
                for _, j, k in CYCLES]


def agree(got: list, want: list) -> bool:
    """Component-wise ``simplify(expand(got - want)) == 0``."""
    return all(sympy.simplify(sympy.expand(g - w)) == 0 for g, w in zip(got, want))


def forward_check(operator: str, system, field) -> bool:
    """invdel's ``operator`` ("curl", "divergence" or "gradient") of a field
    given as text (three texts, or one for the gradient) against the Lamé
    formula."""
    lame = Lame(system)
    if operator == "gradient":
        got = gradient(ScalarField(parse(field), system)).components
        want = lame.gradient(lame.of(field))
    else:
        A = VectorField(tuple(parse(t) for t in field), system)
        sA = [lame.of(t) for t in field]
        got = curl(A).components if operator == "curl" else [divergence(A)]
        want = lame.curl(sA) if operator == "curl" else [lame.divergence(sA)]
    return agree([lame.of(g) for g in got], want)


def inverse_curl_check(B: VectorField) -> bool:
    """curl(inverse_curl(B)) == B, the curl taken by SymPy."""
    lame = Lame(B.system)
    A = inverse_curl(B)
    return agree(lame.curl([lame.of(c) for c in A.components]),
                 [lame.of(c) for c in B.components])


def inverse_divergence_check(f: ScalarField, weights: DivergenceWeights) -> bool:
    """div(inverse_divergence(f, weights)) == f, the divergence taken by SymPy."""
    lame = Lame(f.system)
    A = inverse_divergence(f, weights)
    return agree([lame.divergence([lame.of(c) for c in A.components])], [lame.of(f.value)])


def inverse_gradient_check(A: VectorField) -> bool:
    """grad(inverse_gradient(A)) == A, the gradient taken by SymPy."""
    lame = Lame(A.system)
    phi = inverse_gradient(A)
    return agree(lame.gradient(lame.of(phi.value)), [lame.of(c) for c in A.components])
