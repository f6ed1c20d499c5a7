"""Inverse curl, inverse divergence and inverse gradient.

Inverse curl: for a solenoidal B, form the cyclic integrands
c_i = h_j*h_k*B_i, split each by its own coordinate u_i, and assemble

    A_i = (1/h_i) * [ W(c_next, u_next, du_prev) - W(c_prev, u_prev, du_next) ]

where W is the weighted split integral with weight 1/3 on the part
containing the split variable and 1/2 on the rest.  The terms are taken as
the formula reads, for i = 0, 1, 2: W(c_next), W(c_prev), then 1/h_i, each
W added by ``calculus._weighted`` straight into the map of A_i, so the
first error met is raised.

Inverse divergence spreads the integrated source over the components by
weights summing to one; inverse gradient integrates A . dl along an
axis-parallel path from a base point, judged there by ``expr.value_at``;
an undefined value there is BasePointSingular.  Its conservative gate (or,
unchecked, the residual's curl) forms each product h_i*A_i once, and the
path integrates those same products, so every error is raised where
forming them at each use would raise it.
The parameter values (``DivergenceWeights``, ``BasePoint``,
``CurlWeights``) read ints, Fractions or text through ``_rational`` into
the reduced int pairs the constructions read; their public attributes are
Fractions, built when read.  A field or parameter of another type is a
ValidationError, raised by ``errors._checked`` (README, "Library use").

The gates and the self-check compare numerators (``vecops.flux`` and
``vecops.curl_numerators``), as the README's introduction describes; a
reciprocal times a numerator is formed only for the residual a failure
carries.  Results are built from checked input, with ``_built``.
"""

from __future__ import annotations

from typing import Optional

from .calculus import _integrated, _weighted
from .errors import (
    BasePointSingular,
    ConstructionFailed,
    DomainError,
    NotConservative,
    NotSolenoidal,
    UnsupportedExpression,
    ValidationError,
    _checked,
    _echoed,
)
from .expr import (
    ZERO_FORM,
    CanonicalForm,
    Frozen,
    RationalLike,
    _ONE,
    _coeff_add,
    _constant,
    _fraction,
    _rational_pair,
    value_at,
)
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


def _rational(value, what: str) -> tuple:
    """``value``, an int, a Fraction or text, as a reduced int pair; a value
    that is none of them, or that names no rational, is a ValidationError."""
    try:
        return _rational_pair(value.strip() if isinstance(value, str) else value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what} {_echoed(repr(value))}: {_echoed(str(exc))}") from None


class _Rationals(Frozen):
    """A value of rationals held as reduced int pairs in its one slot,
    ``_pairs``; each of its ``_fields`` reads as a Fraction, built then.
    ``==``, hash, repr and pickling go through those Fractions."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(lambda self, i=i: _fraction(self._pairs[i])))


class CurlWeights(_Rationals):
    """Split-integral weights; only (1/3, 1/2) yields an exact preimage."""

    __slots__ = ("_pairs",)
    _fields = ("w_plus", "w_minus")

    def __init__(self, w_plus: RationalLike | str, w_minus: RationalLike | str):
        self._init((_rational(w_plus, "weight"), _rational(w_minus, "weight")))


DEFAULT_CURL_WEIGHTS = CurlWeights("1/3", "1/2")


class DivergenceWeights(_Rationals):
    """Per-component shares of the integrated source; they must sum to 1."""

    __slots__ = ("_pairs",)
    _fields = ("k1", "k2", "k3")

    def __init__(self, k1: RationalLike | str, k2: RationalLike | str, k3: RationalLike | str):
        self._init(tuple(_rational(k, "weight") for k in (k1, k2, k3)))
        k1, k2, k3 = self._pairs
        if _coeff_add(_coeff_add(k1, k2), k3) != _ONE:
            try:
                got = " + ".join(str(n) if d == 1 else f"{n}/{d}" for n, d in self._pairs)
            except ValueError:  # str() refuses an int past the digit limit
                got = "a weight past the interpreter's digit limit"
            raise ValidationError(f"divergence weights must sum to 1, got {got}")

    @classmethod
    def symmetric(cls) -> "DivergenceWeights":
        return cls._built(((1, 3),) * 3)

    def as_tuple(self) -> tuple:
        return self._values()


class BasePoint(_Rationals):
    """Lower corner (a, b, c) of the integration path plus the free constant."""

    __slots__ = ("_pairs",)
    _fields = ("a", "b", "c", "c0")

    def __init__(self, a: RationalLike | str, b: RationalLike | str, c: RationalLike | str,
                 c0: RationalLike | str = 0):
        self._init((*(_rational(v, "base coordinate") for v in (a, b, c)),
                    _rational(c0, "constant")))


def curl_integrands(B: VectorField) -> tuple[CanonicalForm, CanonicalForm, CanonicalForm]:
    """The cyclic products c_i = h_j * h_k * B_i."""
    _checked(B, VectorField, "the field")
    return tuple(B.system.pair(i) * c for i, c in enumerate(B.components))


def curl_potential_formula(B: VectorField, *, integrands=None) -> VectorField:
    """Raw assembly of the candidate potential; no gates, no verification.
    ``integrands`` are B's ``curl_integrands`` when the caller has them."""
    _checked(B, VectorField, "the field")
    system = B.system
    u = system.names
    c = curl_integrands(B) if integrands is None else integrands
    weights = DEFAULT_CURL_WEIGHTS._pairs
    comps = []
    for i, j, k in CYCLES:
        acc: dict = {}
        _weighted(c[j], u[j], u[k], weights, acc)
        _weighted(c[k], u[k], u[j], weights, acc, True)
        comps.append(system.inverse_scale(i) * CanonicalForm(acc))
    return VectorField._built(tuple(comps), system)


def inverse_curl(B: VectorField) -> VectorField:
    """A vector potential A with curl(A) = B, exactly.

    Raises NotSolenoidal when div(B) != 0, NotIntegrable when an integrand
    falls outside the term class, and ConstructionFailed if the curl of the
    result does not match the input.
    """
    _checked(B, VectorField, "the field")
    c, numerator = flux(B)
    # div(B) is this reciprocal times the flux; it must exist even where the
    # flux is zero.
    scale = B.system.inverse_jacobian()
    if not numerator.is_zero():
        raise NotSolenoidal(scale * numerator)
    A = curl_potential_formula(B, integrands=c)
    # curl(A)_i = B_i exactly when the numerator of curl(A)_i is c_i =
    # h_j*h_k*B_i, as 1/(h_j*h_k) is one invertible term.  Every numerator
    # and reciprocal is formed, in the forward curl's order.
    matched = [got == want for (_, got), want in zip(curl_numerators(A), c)]
    if not all(matched):
        raise ConstructionFailed(
            VectorField._built(roundtrip_residual("inv_curl", B, A), A.system))
    return A


def roundtrip_residual(kind: str, field, result) -> tuple[CanonicalForm, ...]:
    """forward(result) - field, one form per component: the curl, divergence
    or gradient of a ``kind`` (``inv_curl``, ``inv_div`` or ``inv_grad``)
    inverse result less the field it was built from."""
    if kind == "inv_div":
        return (divergence(result) - field.value,)
    forward = curl(result) if kind == "inv_curl" else gradient(result)
    return tuple(got - expected for got, expected in zip(forward.components, field.components))


KINDS = ("inv_curl", "inv_div", "inv_grad")


def check_kind(kind: str) -> None:
    """Raise ValidationError unless ``kind`` is one of KINDS."""
    if kind not in KINDS:
        raise ValidationError(f"unknown inverse kind {kind!r}")


def construct(kind: str, field, *, weights: Optional[DivergenceWeights] = None,
              base: Optional[BasePoint] = None, unchecked: bool = False):
    """``(result, residual)``: the ``kind`` inverse of ``field``, with
    ``weights`` for inv_div and ``base`` for inv_grad.  ``unchecked`` skips
    the gate (and inv_curl's self-check); ``residual`` is then the gate's,
    ``divergence(B)`` or ``curl(A)``, else None.  The operators are looked up
    in this module's globals at each call, so a tracer's rebinding is seen."""
    check_kind(kind)
    if kind == "inv_div":
        return inverse_divergence(field, weights), None
    if kind == "inv_curl":
        if unchecked:
            return curl_potential_formula(field), divergence(field)
        return inverse_curl(field), None
    if unchecked:
        along = [None, None, None]
        residual = curl(field, along)
        return _path_integral(field, base, along), residual
    return inverse_gradient(field, base), None


def inverse_divergence(
    f: ScalarField, weights: Optional[DivergenceWeights] = None
) -> VectorField:
    """A vector field A with div(A) = f, exactly.

    Component i is (k_i/(h_j*h_k)) * antiderivative of h1*h2*h3*f in u_i.
    Components with weight zero are left at zero without integrating.
    """
    _checked(f, ScalarField, "the field")
    w = (DivergenceWeights.symmetric() if weights is None
         else _checked(weights, DivergenceWeights, "weights"))._pairs
    system = f.system
    u = system.names
    source = system.jacobian() * f.value
    comps = []
    for i in range(3):
        if not w[i][0]:
            comps.append(ZERO_FORM)
            continue
        integral = CanonicalForm(_integrated(source, u[i])[1])
        comps.append(system.inverse_pair(i) * integral * _constant(w[i]))
    return VectorField._built(tuple(comps), system)


def inverse_gradient(A: VectorField, base: Optional[BasePoint] = None) -> ScalarField:
    """The scalar potential of a conservative field.

    Integrates A . dl along the axis-parallel path from (a, b, c): first in
    u3 with u1 = a and u2 = b held, then in u2 with u1 = a held, then in u1,
    adding the free constant c0.  Gradient of the result reproduces A.
    """
    _checked(A, VectorField, "the field")
    # curl(A) is zero exactly when its numerators are; the curl itself is
    # formed only to report a residual.  A passed gate has formed each
    # h_i*A_i, and the path integrates those.
    along = [None, None, None]
    if not all(numerator.is_zero() for _, numerator in curl_numerators(A, along)):
        raise NotConservative(curl(A))
    return _path_integral(A, base, along)


def _path_integral(A: VectorField, base: Optional[BasePoint], along) -> ScalarField:
    """The path integral of A . dl; ``along`` holds the products h_i*A_i."""
    system = A.system
    a, b, c, c0 = map(_constant, (*system._base, (0, 1)) if base is None
                      else _checked(base, BasePoint, "base")._pairs)
    u1, u2, u3 = system.names

    g3 = _at_base(along[2], {u1: a, u2: b})
    segment3 = _definite(g3, u3, c)

    g2 = _at_base(along[1], {u1: a})
    segment2 = _definite(g2, u2, b)

    segment1 = _definite(along[0], u1, a)

    value = segment1 + segment2 + segment3 + c0
    return ScalarField._built(value, system)


def _definite(integrand: CanonicalForm, name: str, lower: CanonicalForm) -> CanonicalForm:
    primitive = CanonicalForm(_integrated(integrand, name)[1])
    return primitive - _at_base(primitive, {name: lower})


def _at_base(form: CanonicalForm, values: dict) -> CanonicalForm:
    """``value_at`` the base point's ``values``; a result undefined there is
    BasePointSingular.  Several values are substituted at once, so a
    singular term is seen even where another value zeroes it."""
    try:
        return value_at(form, values)
    except (UnsupportedExpression, DomainError) as exc:
        raise BasePointSingular(f"base point substitution: {exc}") from None


def gauge_shift_curl(A: VectorField, f: ScalarField) -> VectorField:
    """A + grad(f); leaves the curl unchanged."""
    return _shifted(A, f, ScalarField, gradient, "gauge scalar")


def gauge_shift_div(A: VectorField, C: VectorField) -> VectorField:
    """A + curl(C); leaves the divergence unchanged."""
    return _shifted(A, C, VectorField, curl, "gauge vector")


def _shifted(A: VectorField, gauge, cls, forward, what: str) -> VectorField:
    """A plus ``forward(gauge)``, a gradient or curl of a ``cls``, in A's system."""
    _checked(A, VectorField, "the shifted field")
    _checked(gauge, cls, what)
    if gauge.system is not A.system and gauge.system != A.system:
        raise ValidationError(f"{what} lives in a different coordinate system")
    shift = forward(gauge).components
    return VectorField._built(tuple(a + s for a, s in zip(A.components, shift)), A.system)
