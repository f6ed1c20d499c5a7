"""Inverse curl, inverse divergence and inverse gradient.

Inverse curl: for a solenoidal B, form the cyclic integrands
c_i = h_j*h_k*B_i, split each by its own coordinate u_i, and assemble

    A_i = (1/h_i) * [ W(c_next, u_next, du_prev) - W(c_prev, u_prev, du_next) ]

where W is the weighted split integral with weight 1/3 on the part
containing the split variable and 1/2 on the rest.  Those two weights are
what make the construction land on an exact preimage; the result is checked
against the numerators of its curl and any mismatch raises
ConstructionFailed instead of returning a wrong potential.

Each c_m feeds two components, so it is walked once, in the order c1, c2,
c0: each term is classified by whether it contains u_m, which picks its
weight, integrated in u_{m+1} and in u_{m+2}, and its scaled coefficients
go straight into the maps of A_{m+2} (plus) and A_{m+1} (minus).  Each
component is then one product 1/h_i times its map.  The walk itself raises
nothing; each W's error (a refusal, then the pair and coefficient budgets
of the part with the split variable, then of the rest) is raised where six
W calls would raise it, in the order (c1,u2), (c2,u1), 1/h0, (c2,u0),
(c0,u2), 1/h1, (c0,u1), (c1,u0), 1/h2.

Inverse divergence spreads the integrated source over the components with
weights summing to one.  Inverse gradient integrates A . dl along the
three-segment axis-parallel path from a base point.  The value types that
hold these parameters (``DivergenceWeights``, ``BasePoint``, ``CurlWeights``)
take ints, Fractions or text, which one reader, ``_rational``, turns into
Fractions; a value it cannot read is a ValidationError.

Every step works on the canonical forms the fields hold and returns forms.
The gates and the self-check compare numerators (``vecops.flux`` and
``vecops.curl_numerators``): inverse curl requires the flux
sum_i d(c_i)/du_i to be zero and checks d(h_k*A_k)/du_j - d(h_j*A_j)/du_k
== c_i, and inverse gradient requires the curl numerators of A to be zero.
Each is exact, since the divergence or curl component is its numerator
times 1/(h1*h2*h3) or 1/(h_j*h_k), a single invertible term, read from the
system's metric table where the forward operators read it; a failed one is
raised at every call, so a multi-term scale factor fails a gate before the
construction runs and errors come in the forward operators' order.  No
product of a reciprocal and a numerator is formed, so none is estimated
against the coefficient
budget: ``divergence``, ``curl`` and ``roundtrip_residual``, which form
them, run only to build the residual of a failure.  The c_i are formed
once, for the gate and the assembly.  Results are built from the checked
input, so they are made with ``_built``, unchecked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .calculus import _weighted_walk, antidifferentiate
from .errors import (
    BasePointSingular,
    ConstructionFailed,
    DomainError,
    NotConservative,
    NotSolenoidal,
    UnsupportedExpression,
    ValidationError,
)
from .expr import (
    ZERO_FORM,
    CanonicalForm,
    Frozen,
    FunctionAtom,
    _eval_function,
    _fraction,
    eval_numeric,
    free_variables,
    substitute_all,
)
from .parser import render
from .vecops import (
    CYCLES,
    ScalarField,
    VectorField,
    curl,
    curl_numerators,
    divergence,
    flux,
    gradient,
)


def _rational(value, what: str) -> Fraction:
    """``value``, an int, a Fraction or text, as a Fraction; a value that is
    none of them, or that names no rational, is a ValidationError."""
    try:
        return _fraction(value.strip() if isinstance(value, str) else value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what} {value!r}: {exc}") from None


class CurlWeights(Frozen):
    """Split-integral weights; only (1/3, 1/2) yields an exact preimage."""

    __slots__ = ("w_plus", "w_minus")

    def __init__(self, w_plus: Fraction | str, w_minus: Fraction | str):
        self._init(_rational(w_plus, "weight"), _rational(w_minus, "weight"))


DEFAULT_CURL_WEIGHTS = CurlWeights(Fraction(1, 3), Fraction(1, 2))


class DivergenceWeights(Frozen):
    """Per-component shares of the integrated source; they must sum to 1."""

    __slots__ = ("k1", "k2", "k3")

    def __init__(self, k1: Fraction | str, k2: Fraction | str, k3: Fraction | str):
        self._init(*(_rational(k, "weight") for k in (k1, k2, k3)))
        if self.k1 + self.k2 + self.k3 != 1:
            try:
                got = f"{self.k1} + {self.k2} + {self.k3}"
            except ValueError:  # str() refuses an int past the digit limit
                got = "a weight past the interpreter's digit limit"
            raise ValidationError(f"divergence weights must sum to 1, got {got}")

    @classmethod
    def symmetric(cls) -> "DivergenceWeights":
        third = Fraction(1, 3)
        return cls(third, third, third)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.k1, self.k2, self.k3)


class BasePoint(Frozen):
    """Lower corner (a, b, c) of the integration path plus the free constant."""

    __slots__ = ("a", "b", "c", "c0")

    def __init__(self, a: Fraction | str, b: Fraction | str, c: Fraction | str,
                 c0: Fraction | str = 0):
        self._init(*(_rational(v, "base coordinate") for v in (a, b, c)),
                   _rational(c0, "constant"))


def curl_integrands(B: VectorField) -> tuple[CanonicalForm, CanonicalForm, CanonicalForm]:
    """The cyclic products c_i = h_j * h_k * B_i."""
    return tuple(B.system.pair(i) * c for i, c in enumerate(B.components))


def curl_potential_formula(
    B: VectorField, weights: CurlWeights = DEFAULT_CURL_WEIGHTS, *, integrands=None
) -> VectorField:
    """Raw assembly of the candidate potential; no gates, no verification.
    ``integrands`` are B's ``curl_integrands`` when the caller has them."""
    system = B.system
    u = system.names
    c = curl_integrands(B) if integrands is None else integrands
    acc = ({}, {}, {})
    checks = [None, None, None]
    comps = []
    for i, j, k in CYCLES:
        # A_i takes +W(c_j; u_j, du_k), the first slot of c_j's walk, and
        # -W(c_k; u_k, du_j), the second of c_k's.  A walk runs when one of
        # its slots is first needed; the other is checked when its turn comes.
        for m, side in ((j, 0), (k, 1)):
            if checks[m] is None:
                _, after, before = CYCLES[m]
                checks[m] = _weighted_walk(
                    c[m], u[m], weights.w_plus, weights.w_minus,
                    ((u[after], acc[before], False), (u[before], acc[after], True)))
            checks[m](side)
        comps.append(system.inverse_scale(i) * CanonicalForm(acc[i]))
    return VectorField._built(tuple(comps), system)


def inverse_curl(B: VectorField) -> VectorField:
    """A vector potential A with curl(A) = B, exactly.

    Raises NotSolenoidal when div(B) != 0, NotIntegrable when an integrand
    falls outside the term class, and ConstructionFailed if the curl of the
    result does not match the input.
    """
    c, numerator = flux(B)
    # div(B) is this reciprocal times the flux; it must exist even where the
    # flux is zero.
    scale = B.system.inverse_jacobian()
    if not numerator.is_zero():
        residual = scale * numerator
        raise NotSolenoidal(
            f"divergence residual {render(residual)}", residual=residual)
    A = curl_potential_formula(B, integrands=c)
    _check_roundtrip(A, B, c)
    return A


def inverse_curl_unchecked(B: VectorField) -> tuple[VectorField, CanonicalForm]:
    """Formula result plus the divergence residual, skipping both gates."""
    return curl_potential_formula(B), divergence(B)


def _check_roundtrip(A: VectorField, B: VectorField, integrands) -> None:
    # curl(A)_i = B_i exactly when the numerator of curl(A)_i is c_i =
    # h_j*h_k*B_i, as 1/(h_j*h_k) is one invertible term.  Every numerator
    # and reciprocal is formed, in the forward curl's order.
    matched = [numerator == c for (_, numerator), c in zip(curl_numerators(A), integrands)]
    if not all(matched):
        diffs = roundtrip_residual("inv_curl", B, A)
        raise ConstructionFailed(
            "curl of the constructed potential does not reproduce the input; "
            "residual (" + ", ".join(render(d) for d in diffs) + ")",
            residual=VectorField._built(diffs, A.system),
        )


def roundtrip_residual(kind: str, field, result) -> tuple[CanonicalForm, ...]:
    """forward(result) - field, one form per component: the curl, divergence
    or gradient of a ``kind`` (``inv_curl``, ``inv_div`` or ``inv_grad``)
    inverse result less the field it was built from."""
    if kind == "inv_div":
        return (divergence(result) - field.value,)
    forward = curl(result) if kind == "inv_curl" else gradient(result)
    return tuple(got - expected for got, expected in zip(forward.components, field.components))


def inverse_divergence(
    f: ScalarField, weights: Optional[DivergenceWeights] = None
) -> VectorField:
    """A vector field A with div(A) = f, exactly.

    Component i is (k_i/(h_j*h_k)) * antiderivative of h1*h2*h3*f in u_i.
    Components with weight zero are left at zero without integrating.
    """
    w = (weights or DivergenceWeights.symmetric()).as_tuple()
    system = f.system
    u = system.names
    source = system.jacobian() * f.value
    comps = []
    for i in range(3):
        if w[i] == 0:
            comps.append(ZERO_FORM)
            continue
        integral = antidifferentiate(source, u[i])
        comps.append(system.inverse_pair(i) * integral * w[i])
    return VectorField._built(tuple(comps), system)


def inverse_gradient(A: VectorField, base: Optional[BasePoint] = None) -> ScalarField:
    """The scalar potential of a conservative field.

    Integrates A . dl along the axis-parallel path from (a, b, c): first in
    u3 with u1 = a and u2 = b held, then in u2 with u1 = a held, then in u1,
    adding the free constant c0.  Gradient of the result reproduces A.
    """
    # curl(A) is zero exactly when its numerators are; the curl itself is
    # formed only to report a residual.
    if not all(numerator.is_zero() for _, numerator in curl_numerators(A)):
        residual = curl(A)
        raise NotConservative(
            "curl residual ("
            + ", ".join(render(p) for p in residual.components) + ")",
            residual=residual,
        )
    return _path_integral(A, base)


def inverse_gradient_unchecked(
    A: VectorField, base: Optional[BasePoint] = None
) -> tuple[ScalarField, VectorField]:
    """Path integral plus the curl residual, skipping the gate."""
    residual = curl(A)
    return _path_integral(A, base), residual


def _path_integral(A: VectorField, base: Optional[BasePoint]) -> ScalarField:
    system = A.system
    a, b, c, c0 = (*system.base_point, 0) if base is None else (base.a, base.b, base.c, base.c0)
    u1, u2, u3 = system.names
    h = system.scale_factors
    along = [h[i] * A.components[i] for i in range(3)]

    g3 = _at_base(along[2], {u1: a, u2: b})
    segment3 = _definite(g3, u3, c)

    g2 = _at_base(along[1], {u1: a})
    segment2 = _definite(g2, u2, b)

    segment1 = _definite(along[0], u1, a)

    value = segment1 + segment2 + segment3 + c0
    return ScalarField._built(value, system)


def _definite(integrand: CanonicalForm, name: str, lower: Fraction) -> CanonicalForm:
    primitive = antidifferentiate(integrand, name)
    return primitive - _at_base(primitive, {name: lower})


def _at_base(form: CanonicalForm, values: dict) -> CanonicalForm:
    """The form with the base point's ``values`` substituted; a result
    undefined there, whether substitution or ``_scan_form`` finds it, is
    BasePointSingular.  Several values are substituted at once, so a
    singular term is seen even where another value zeroes it."""
    try:
        form = substitute_all(form, values)
        _scan_form(form)
    except (UnsupportedExpression, DomainError) as exc:
        raise BasePointSingular(f"base point substitution: {exc}") from None
    return form


# For a rational q, sin(q) vanishes only at q = 0 and ln(q) only at q = 1;
# cos and exp have no rational root.
_RATIONAL_ROOT = {"sin": 0, "ln": 1}


def _scan_form(form: CanonicalForm) -> None:
    """Raise DomainError where a constant function atom, at any depth, has no
    value or vanishes under a negative power.  A rational argument is decided
    exactly; any other is evaluated, and ln of its value too."""
    for factors, _ in form.terms:
        for atom, e in factors:
            if not isinstance(atom, FunctionAtom):
                continue
            _scan_form(atom.argument)
            if free_variables(atom.argument):
                continue
            constant = dict(atom.argument.items())
            q = Fraction(*constant[()]) if () in constant else 0
            if constant.keys() <= {()} and (atom.tag != "ln" or q > 0):
                # No floats that could underflow to 0 or overflow.
                vanishes = q == _RATIONAL_ROOT.get(atom.tag)
            else:
                value = eval_numeric(atom.argument, {})
                # ln is evaluated for the DomainError of a non-positive value;
                # exp never vanishes, and evaluating it could overflow; sin and
                # cos of inf have no value to test.
                vanishes = (atom.tag != "exp" and (atom.tag == "ln" or math.isfinite(value))
                            and _eval_function(atom.tag, value) == 0.0)
            if vanishes and e < 0:
                raise DomainError("reciprocal of a vanishing factor")


def gauge_shift_curl(A: VectorField, f: ScalarField) -> VectorField:
    """A + grad(f); leaves the curl unchanged."""
    return _shifted(A, f, gradient, "gauge scalar")


def gauge_shift_div(A: VectorField, C: VectorField) -> VectorField:
    """A + curl(C); leaves the divergence unchanged."""
    return _shifted(A, C, curl, "gauge vector")


def _shifted(A: VectorField, gauge, forward, what: str) -> VectorField:
    """A plus ``forward(gauge)``, a gradient or curl, in A's system."""
    if gauge.system != A.system:
        raise ValidationError(f"{what} lives in a different coordinate system")
    shift = forward(gauge).components
    return VectorField._built(tuple(a + s for a, s in zip(A.components, shift)), A.system)
