"""Forward vector operators in orthogonal curvilinear coordinates.

With coordinates u1,u2,u3 and scale factors h1,h2,h3:

    grad(f)_i = (1/h_i) * df/du_i
    div(A)    = (1/(h1*h2*h3)) * sum_i d(h_j*h_k*A_i)/du_i      (i,j,k cyclic)
    curl(A)_i = (1/(h_j*h_k)) * (d(h_k*A_k)/du_j - d(h_j*A_j)/du_k)

``flux`` and ``curl_numerators`` give the sums before the reciprocal
factor, which is all the inverse operators' gates and self-check test.
Each sum is one map that its derivatives add into as they are taken.

A field is its canonical forms plus its system; the public constructors
alone check it, and a variable outside the system is a ValidationError.
A field or system of another type is one too, raised by ``errors._checked``
(README, "Library use").
The operators combine forms by form arithmetic and ``_derivative``, the body
of ``differentiate``, and return fields made with ``_built``, unchecked.
Division by scale factors is multiplication by a reciprocal from the
system's metric table, which exists only for single-term factors; anything
else raises UnsupportedExpression.
"""

from __future__ import annotations

from .coords import CoordinateSystem
from .errors import ValidationError, _checked, _echoed
from .expr import (
    CanonicalForm,
    Frozen,
    canonicalize,
    free_variables,
)
from .calculus import _derivative
from .parser import render

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _check_variables(parts, system: CoordinateSystem):
    allowed = set(_checked(system, CoordinateSystem, "the system").names)
    for e in parts:
        foreign = free_variables(e) - allowed
        if foreign:
            raise ValidationError(
                "expression references variables outside the coordinate system: "
                + _echoed(", ".join(sorted(foreign))))


class VectorField(Frozen):
    """Three components in a coordinate system's orthonormal frame, held as
    canonical forms."""

    __slots__ = ("components", "system")

    def __init__(self, components: tuple[CanonicalForm, CanonicalForm, CanonicalForm],
                 system: CoordinateSystem):
        if len(components) != 3:
            raise ValidationError("a vector field needs exactly three components")
        _check_variables(components, system)
        self._init(tuple(canonicalize(c) for c in components), system)


class ScalarField(Frozen):
    """A scalar in a coordinate system, held as a canonical form."""

    __slots__ = ("value", "system")

    def __init__(self, value: CanonicalForm, system: CoordinateSystem):
        _check_variables((value,), system)
        self._init(canonicalize(value), system)


def rendered(value) -> list[str]:
    """The rendered components of a vector field, or a scalar's value or a
    bare form as one part."""
    if isinstance(value, VectorField):
        return [render(c) for c in value.components]
    return [render(value.value if isinstance(value, ScalarField) else value)]


def gradient(f: ScalarField) -> VectorField:
    """Component-wise (1/h_i) * df/du_i."""
    _checked(f, ScalarField, "the field")
    system = f.system
    comps = tuple(system.inverse_scale(i) * _derivative(f.value, name, {})
                  for i, name in enumerate(system.names))
    return VectorField._built(comps, system)


def flux(A: VectorField) -> tuple[tuple[CanonicalForm, ...], CanonicalForm]:
    """The cyclic products c_i = h_j*h_k*A_i and their flux
    sum_i dc_i/du_i, which is h1*h2*h3 times div(A).  Each product is
    differentiated as soon as it is formed, into the flux's one map, so a
    failure is the first one ``divergence`` meets."""
    system = A.system
    products = []
    acc: dict = {}
    for i, u in enumerate(system.names):
        products.append(system.pair(i) * A.components[i])
        _derivative(products[-1], u, acc)
    return tuple(products), CanonicalForm(acc)


def divergence(A: VectorField) -> CanonicalForm:
    """Scalar divergence; exact, with the 1/(h1*h2*h3) factor expanded."""
    _checked(A, VectorField, "the field")
    numerator = flux(A)[1]  # before the reciprocal, whose failure comes second
    return A.system.inverse_jacobian() * numerator


def curl_numerators(A: VectorField, products: list | None = None):
    """Per component, in cyclic order, the pair (1/(h_j*h_k),
    d(h_k*A_k)/du_j - d(h_j*A_j)/du_k) whose product is curl(A)_i.  A
    generator: each h_m*A_m is formed once, where it is first used, into
    ``products`` (three slots, None until formed), where a caller may read
    it after; each reciprocal is formed after its numerator and before the
    next component, so a consumer meets failures where ``curl`` does."""
    h = A.system.scale_factors
    u = A.system.names
    along = [None, None, None] if products is None else products

    def product(m: int) -> CanonicalForm:
        if along[m] is None:
            along[m] = h[m] * A.components[m]
        return along[m]

    for i, j, k in CYCLES:
        acc: dict = {}
        _derivative(product(k), u[j], acc)
        numerator = _derivative(product(j), u[k], acc, True)
        yield A.system.inverse_pair(i), numerator


def curl(A: VectorField, products: list | None = None) -> VectorField:
    """Curl of the field, one cyclic determinant row per component;
    ``products`` is as for ``curl_numerators``."""
    _checked(A, VectorField, "the field")
    comps = tuple(scale * numerator for scale, numerator in curl_numerators(A, products))
    return VectorField._built(comps, A.system)
