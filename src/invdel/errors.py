"""Exception types shared across the package.

Each type carries ``exit_code``, the status the command line exits with
when a run ends in it: 1, unless the class sets its own.
"""

from __future__ import annotations


class InvdelError(Exception):
    """Base class for every error this package raises deliberately."""
    exit_code = 1


class UnsupportedExpression(InvdelError):
    """Expression falls outside the closed term algebra (e.g. 1/(x+1))."""
    exit_code = 4


class SourceError(InvdelError):
    """Parse failure, tagged with the byte offset where it happened."""
    exit_code = 2

    def __init__(self, offset: int, expected: str, found: str):
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


class DomainError(InvdelError):
    """Numeric evaluation left the real domain (ln of a non-positive value, 0**-n)."""


class UnboundVariable(InvdelError):
    """Numeric evaluation met a variable with no value in the point mapping."""


class NotIntegrable(InvdelError):
    """A term has no antiderivative inside the supported term class."""
    exit_code = 4

    def __init__(self, message: str, term=None, variable: str | None = None):
        super().__init__(message)
        self.term = term
        self.variable = variable


class UnknownSystem(InvdelError):
    """Requested builtin coordinate system does not exist."""
    exit_code = 2


class ValidationError(InvdelError):
    """Structural validation failed (field arity, foreign variables, weights, ...)."""
    exit_code = 2


class _ResidualError(InvdelError):
    """A failed check that carries its ``residual``, the part that shows it."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class NotSolenoidal(_ResidualError):
    """Vector potential requested for a field whose divergence is not zero."""
    exit_code = 3


class NotConservative(_ResidualError):
    """Scalar potential requested for a field whose curl is not zero."""
    exit_code = 3


class ConstructionFailed(_ResidualError):
    """Internal round-trip check rejected a constructed potential."""
    exit_code = 5


class BasePointSingular(InvdelError):
    """Substituting the base point produced an undefined value."""


class SamplingExhausted(InvdelError):
    """Too many sample points fell outside the domain during verification."""
