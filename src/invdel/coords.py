"""Orthogonal curvilinear coordinate systems.

A system is three coordinate names, three symbolic scale factors, a default
base point for path integrals and a box for numeric sampling.  The builtin
boxes stay away from the h = 0 surfaces (the cylindrical axis, the spherical
origin and polar axis), so every sampled point is regular.  Angular
coordinates are treated as plain real variables: constructed potentials are
valid on the local chart, not glued across the 2*pi seam.  Scale factors
are held as canonical forms; the builtin systems are built and validated
once, when the module loads.

A system keeps a metric table, out of its ``==``, hash, repr and pickling:
h_j*h_k, (h1*h2)*h3 and their reciprocals and those of each h_i, each formed
once, when first asked for.  A failure is not kept but raised at every call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UnknownSystem, UnsupportedExpression, ValidationError
from .expr import (
    CanonicalForm,
    Frozen,
    _eval_function,
    _fraction,
    canonicalize,
    check_variable_name,
    eval_numeric,
    free_variables,
    reciprocal,
    substitute_all,
)
from .parser import parse


def _vanishes(atom, e: int) -> bool:
    """Whether the constant factor ``atom**e`` reads 0.0, judged alone;
    DomainError where it has no value.  exp has no root, so only its
    argument is evaluated."""
    argument = eval_numeric(atom.argument, {})
    if atom.tag == "exp" or _eval_function(atom.tag, argument) != 0.0:
        return False
    if e < 0:
        raise DomainError("reciprocal of a vanishing factor")
    return True


class CoordinateSystem(Frozen):
    """Names u1,u2,u3 with scale factors h1,h2,h3 and sampling defaults.

    The only constructor; ``custom`` is another name for it.  Text scale factors
    are parsed before any check, the other arguments may be any sequences, and
    each box interval needs finite bounds lo < hi.  Base coordinates may be
    ints, Fractions or text, and box bounds numbers or text; one that names
    no number is a ValidationError, like every other bad argument."""

    _fields = ("names", "scale_factors", "base_point", "sampling_box", "label")
    __slots__ = _fields + ("_table",)

    def __init__(
        self,
        names: tuple[str, ...],
        scale_factors: tuple[str | CanonicalForm, ...],
        base_point: tuple[int | Fraction, ...],
        sampling_box: tuple[tuple[float, float], ...],
        label: str = "custom",
    ):
        scale_factors = tuple(parse(h) if isinstance(h, str) else h for h in scale_factors)
        names, base_point, sampling_box = tuple(names), tuple(base_point), tuple(sampling_box)
        if len(names) != 3 or len(set(names)) != 3:
            raise ValidationError("exactly three distinct coordinate names required")
        for name in names:
            try:
                check_variable_name(name)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
        if len(scale_factors) != 3:
            raise ValidationError("exactly three scale factors required")
        allowed = set(names)
        forms = []
        for i, h in enumerate(scale_factors, start=1):
            foreign = free_variables(h) - allowed
            if foreign:
                raise ValidationError(
                    f"h{i} references unknown variables: {', '.join(sorted(foreign))}")
            forms.append(canonicalize(h))
            if forms[-1].is_zero():
                raise ValidationError(f"h{i} is identically zero")
        if len(base_point) != 3:
            raise ValidationError("base point needs three coordinates")
        try:
            base = tuple(_fraction(v) for v in base_point)
        except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(f"base point must be rational: {exc}") from None
        if len(sampling_box) != 3:
            raise ValidationError("sampling box needs three intervals")
        box = []
        for i, interval in enumerate(sampling_box, start=1):
            try:
                lo, hi = (float(bound) for bound in interval)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"bad sampling interval {i}: {exc}") from None
            if not lo < hi:
                raise ValidationError(f"empty sampling interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValidationError(f"sampling interval [{lo}, {hi}] is not finite")
            box.append((lo, hi))
        at_base = dict(zip(names, base))
        for i, h in enumerate(forms, start=1):
            # The base point is substituted exactly, so a rational constant is
            # decided without floats that could overflow or underflow to 0.
            try:
                value = substitute_all(h, at_base)
                if len(value.items()) > 1:
                    vanishes = eval_numeric(value, {}) == 0.0
                else:
                    # One term vanishes only where a factor does, and the float
                    # product may overflow or underflow where no factor does.
                    vanishes = value.is_zero() or any(
                        _vanishes(atom, e) for factors, _ in value.items() for atom, e in factors)
            except (UnsupportedExpression, DomainError):
                raise ValidationError(f"h{i} undefined at the base point") from None
            if vanishes:
                raise ValidationError(f"h{i} vanishes at the base point")
        self._init(names, tuple(forms), base, tuple(box), label, {})

    def _entry(self, key, build):
        table = self._table
        return table[key] if key in table else table.setdefault(key, build())

    def pair(self, i: int) -> CanonicalForm:
        """h_j*h_k for the cycle (i, j, k)."""
        h = self.scale_factors
        return self._entry(("pair", i), lambda: h[(i + 1) % 3] * h[(i + 2) % 3])

    def jacobian(self) -> CanonicalForm:
        """(h1*h2)*h3."""
        return self._entry("jacobian", lambda: self.pair(2) * self.scale_factors[2])

    def inverse_scale(self, i: int) -> CanonicalForm:
        """1/h_i."""
        return self._entry(("1/h", i), lambda: reciprocal(self.scale_factors[i]))

    def inverse_pair(self, i: int) -> CanonicalForm:
        """1/(h_j*h_k) for the cycle (i, j, k)."""
        return self._entry(("1/pair", i), lambda: reciprocal(self.pair(i)))

    def inverse_jacobian(self) -> CanonicalForm:
        """1/((h1*h2)*h3)."""
        return self._entry("1/jacobian", lambda: reciprocal(self.jacobian()))


# ``builtin`` hands out these shared instances, which are immutable.
_BUILTIN = {
    system.label: system for system in (
        CoordinateSystem(
            names=("x", "y", "z"),
            scale_factors=("1", "1", "1"),
            base_point=(0, 0, 0),
            sampling_box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
            label="cartesian",
        ),
        CoordinateSystem(
            names=("rho", "phi", "z"),
            scale_factors=("1", "rho", "1"),
            base_point=(1, 0, 0),
            sampling_box=((0.5, 2.0), (0.1, 3.0), (-2.0, 2.0)),
            label="cylindrical",
        ),
        CoordinateSystem(
            names=("r", "theta", "phi"),
            scale_factors=("1", "r", "r*sin(theta)"),
            base_point=(1, 1, 0),
            sampling_box=((0.5, 2.0), (0.1, 3.0), (0.1, 3.0)),
            label="spherical",
        ),
    )
}

BUILTIN_NAMES = tuple(_BUILTIN)


def builtin(name: str) -> CoordinateSystem:
    """One of cartesian, cylindrical, spherical: the shared instance built
    and validated at import."""
    if name in BUILTIN_NAMES:
        return _BUILTIN[name]
    raise UnknownSystem(f"no builtin coordinate system named {name!r}")


custom = CoordinateSystem
