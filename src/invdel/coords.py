"""Orthogonal curvilinear coordinate systems (see the README's "Coordinate
systems").

A system is three names, three scale factors held as canonical forms, a
base point held as reduced int pairs (``_base``; ``base_point`` builds its
Fractions when read) and a sampling box.  The builtin systems are built
and validated once, when the module loads.  At the base point a scale
factor is judged by ``expr.value_at``, as the inverse gradient's
integrands are.  A system keeps a metric table, out of its ``==``, hash,
repr and pickling: h_j*h_k, (h1*h2)*h3 and the reciprocals of those and
of each h_i, each formed when first asked for; a failure is raised at
every call.
"""

from __future__ import annotations

import math

from .errors import DomainError, UnknownSystem, UnsupportedExpression, ValidationError, _echoed
from .expr import (
    CanonicalForm,
    Frozen,
    _constant,
    _fraction,
    _rational_pair,
    check_variable_name,
    eval_numeric,
    free_variables,
    reciprocal,
    value_at,
    vanishes,
)
from .parser import parse


class CoordinateSystem(Frozen):
    """Names u1,u2,u3 with scale factors h1,h2,h3 and sampling defaults.

    The only constructor; ``custom`` is another name for it.  A scale factor
    is text, parsed before any check, or a CanonicalForm; the other arguments
    may be any sequences, and each box interval needs finite bounds lo < hi.
    Base coordinates may be ints, Fractions or text, and box bounds numbers
    or text; one that names no number is a ValidationError, like every other
    bad argument."""

    _fields = ("names", "scale_factors", "base_point", "sampling_box", "label")
    __slots__ = ("names", "scale_factors", "_base", "sampling_box", "label", "_table")

    def __init__(
        self,
        names: tuple[str, ...],
        scale_factors: tuple[str | CanonicalForm, ...],
        base_point: tuple,
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
                raise ValidationError(_echoed(str(exc))) from None
        if len(scale_factors) != 3:
            raise ValidationError("exactly three scale factors required")
        allowed = set(names)
        for i, h in enumerate(scale_factors, start=1):
            if not isinstance(h, CanonicalForm):
                raise ValidationError(
                    f"h{i} must be text or a CanonicalForm, not {type(h).__name__}")
            foreign = free_variables(h) - allowed
            if foreign:
                raise ValidationError(
                    f"h{i} references unknown variables: {_echoed(', '.join(sorted(foreign)))}")
            if h.is_zero():
                raise ValidationError(f"h{i} is identically zero")
        if len(base_point) != 3:
            raise ValidationError("base point needs three coordinates")
        try:
            base = tuple(map(_rational_pair, base_point))
        except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(f"base point must be rational: {_echoed(str(exc))}") from None
        if len(sampling_box) != 3:
            raise ValidationError("sampling box needs three intervals")
        box = []
        for i, interval in enumerate(sampling_box, start=1):
            try:
                lo, hi = (float(bound) for bound in interval)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"bad sampling interval {i}: {_echoed(str(exc))}") from None
            if not lo < hi:
                raise ValidationError(f"empty sampling interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValidationError(f"sampling interval [{lo}, {hi}] is not finite")
            box.append((lo, hi))
        at_base = dict(zip(names, map(_constant, base)))
        for i, h in enumerate(scale_factors, start=1):
            try:
                value = value_at(h, at_base)
                if len(value.items()) > 1:
                    zero = eval_numeric(value, {}) == 0.0
                else:
                    # One term vanishes only where a factor does, and the float
                    # product may overflow or underflow where no factor does.
                    zero = value.is_zero() or any(
                        vanishes(atom) for factors, _ in value.items() for atom, _ in factors)
            except (UnsupportedExpression, DomainError):
                raise ValidationError(f"h{i} undefined at the base point") from None
            if zero:
                raise ValidationError(f"h{i} vanishes at the base point")
        self._init(names, scale_factors, base, tuple(box), label, {})

    @property
    def base_point(self) -> tuple:
        return tuple(map(_fraction, self._base))

    def _key(self) -> tuple:
        return self.names, self.scale_factors, self._base, self.sampling_box, self.label

    # Over the slots, so comparing two systems builds no Fraction.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
