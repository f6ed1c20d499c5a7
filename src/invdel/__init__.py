"""Symbolic inverse curl, inverse divergence and inverse gradient in
orthogonal curvilinear coordinates.

The package builds exact antiderivative-based potentials for vector and
scalar fields; ``construct(kind, ...)`` runs any of the three by kind.
Only the inverse curl checks its result against the forward
operator; the others are checked by ``roundtrip_report`` (``--verify``),
whose numeric channel samples the canonical residual and so reads 0 whenever
the symbolic check passes.  Each public operator and field constructor
checks its argument's type, most with ``errors._checked``: README, "Library use".
"""

from types import ModuleType as _ModuleType

from .calculus import (
    SplitPair,
    antidifferentiate,
    differentiate,
    split_by_variable,
    weighted_split_integral,
)
from .coords import BUILTIN_NAMES, CoordinateSystem, builtin, custom
from .errors import (
    BasePointSingular,
    ConstructionFailed,
    DomainError,
    InvdelError,
    NotConservative,
    NotIntegrable,
    NotSolenoidal,
    SamplingExhausted,
    SourceError,
    UnboundVariable,
    UnknownSystem,
    UnsupportedExpression,
    ValidationError,
)
from .expr import (
    Expression,
    canonicalize,
    cos,
    equals,
    eval_numeric,
    exp,
    free_variables,
    is_zero,
    ln,
    num,
    sin,
    substitute,
    var,
)
from .inverse import (
    DEFAULT_CURL_WEIGHTS,
    BasePoint,
    CurlWeights,
    DivergenceWeights,
    construct,
    curl_integrands,
    curl_potential_formula,
    gauge_shift_curl,
    gauge_shift_div,
    inverse_curl,
    inverse_divergence,
    inverse_gradient,
)
from .parser import parse, render
from .vecops import ScalarField, VectorField, curl, divergence, gradient
from .verify import VerificationReport, roundtrip_report

__version__ = "0.1.0"

# The public names are those the imports above bind, less the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
