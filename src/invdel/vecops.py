"""Forward vector operators in orthogonal curvilinear coordinates.

With coordinates u1,u2,u3 and scale factors h1,h2,h3:

    grad(f)_i = (1/h_i) * df/du_i
    div(A)    = (1/(h1*h2*h3)) * sum_i d(h_j*h_k*A_i)/du_i      (i,j,k cyclic)
    curl(A)_i = (1/(h_j*h_k)) * (d(h_k*A_k)/du_j - d(h_j*A_j)/du_k)

``flux`` and ``curl_numerators`` give the sums before the reciprocal
factor, which is all the inverse operators' gates and self-check test.

A field is its canonical forms plus its system; a variable outside the
system is a ValidationError.  The operators combine the forms with form
arithmetic and ``differentiate`` and return forms.  Division by scale
factors is multiplication by the canonical reciprocal, which exists only
for single-term factors; anything else raises UnsupportedExpression.
"""

from __future__ import annotations

from .coords import CoordinateSystem
from .errors import ValidationError
from .expr import (
    CanonicalForm,
    Frozen,
    canonicalize,
    free_variables,
    reciprocal,
    sum_forms,
)
from .calculus import differentiate
from .parser import render

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _check_variables(parts, system: CoordinateSystem):
    allowed = set(system.names)
    for e in parts:
        foreign = free_variables(e) - allowed
        if foreign:
            raise ValidationError(
                "expression references variables outside the coordinate system: "
                + ", ".join(sorted(foreign)))


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

    @classmethod
    def _built(cls, components: tuple, system: CoordinateSystem) -> "VectorField":
        """A field of forms built from the system's own, left unchecked."""
        field = cls.__new__(cls)
        field._init(components, system)
        return field


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
    system = f.system
    comps = tuple(
        reciprocal(h) * differentiate(f.value, name)
        for name, h in zip(system.names, system.scale_factors))
    return VectorField(comps, system)


def flux(A: VectorField) -> tuple[tuple[CanonicalForm, ...], CanonicalForm]:
    """The cyclic products c_i = h_j*h_k*A_i and their flux
    sum_i dc_i/du_i, which is h1*h2*h3 times div(A).  Each product is
    differentiated as soon as it is formed, so a failure is the first one
    ``divergence`` meets."""
    h = A.system.scale_factors
    u = A.system.names
    products = []
    derivatives = []
    for i, j, k in CYCLES:
        products.append(h[j] * h[k] * A.components[i])
        derivatives.append(differentiate(products[-1], u[i]))
    return tuple(products), sum_forms(derivatives)


def divergence(A: VectorField) -> CanonicalForm:
    """Scalar divergence; exact, with the 1/(h1*h2*h3) factor expanded."""
    h = A.system.scale_factors
    numerator = flux(A)[1]  # before the reciprocal, whose failure comes second
    return reciprocal(h[0] * h[1] * h[2]) * numerator


def curl_numerators(A: VectorField):
    """Per component, in cyclic order, the pair (1/(h_j*h_k),
    d(h_k*A_k)/du_j - d(h_j*A_j)/du_k) whose product is curl(A)_i.  A
    generator: each reciprocal is formed after its numerator and before the
    next component, so a consumer meets failures where ``curl`` does."""
    h = A.system.scale_factors
    u = A.system.names
    for i, j, k in CYCLES:
        numerator = (differentiate(h[k] * A.components[k], u[j])
                     - differentiate(h[j] * A.components[j], u[k]))
        yield reciprocal(h[j] * h[k]), numerator


def curl(A: VectorField) -> VectorField:
    """Curl of the field, one cyclic determinant row per component."""
    comps = tuple(scale * numerator for scale, numerator in curl_numerators(A))
    return VectorField(comps, A.system)
