"""Exception types shared across the package.

Each type carries ``exit_code``, the status the command line exits with
when a run ends in it: 1, unless the class sets its own.

An error that carries a form builds its message from it, as ``SourceError``
does from its fields, and keeps the whole form.  ``_shown`` writes the form,
or a field's components joined by ", ", each cut after ``MAX_SHOWN_TERMS``
terms; past the interpreter's digit limit, the widest number's digit count.
Text echoed from outside input, such as a token, a name or a value, is cut
by ``_echoed`` after ``MAX_ECHOED_CHARS`` characters.
"""

from __future__ import annotations

MAX_SHOWN_TERMS = 20  # most terms of one form an error's message shows
MAX_ECHOED_CHARS = 200  # most characters of one outside text a message echoes


class InvdelError(Exception):
    """Base class for every error this package raises deliberately."""
    exit_code = 1

    def __reduce__(self):
        # Copied without __init__, which takes a subclass's fields, not its message.
        return type(self).__new__, (type(self), *self.args), self.__dict__


class UnsupportedExpression(InvdelError):
    """Expression falls outside the closed term algebra (e.g. 1/(x+1))."""
    exit_code = 4


class SourceError(InvdelError):
    """Parse failure, tagged with the byte offset where it happened."""
    exit_code = 2

    def __init__(self, offset: int, expected: str, found: str):
        super().__init__(f"at offset {offset}: expected {expected}, found {_echoed(found)}")
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

    def __init__(self, term, variable: str):
        super().__init__(f"term {_shown(term)} has no antiderivative in {variable} "
                         "within the supported class")
        self.term = term
        self.variable = variable


class UnknownSystem(InvdelError):
    """Requested builtin coordinate system does not exist."""
    exit_code = 2


class ValidationError(InvdelError):
    """Structural validation failed (field arity, foreign variables, weights, ...)."""
    exit_code = 2


class _ResidualError(InvdelError):
    """A failed check; its message is the class's ``template`` of its ``residual``."""

    def __init__(self, residual):
        super().__init__(self.template.format(_shown(residual)))
        self.residual = residual


class NotSolenoidal(_ResidualError):
    """Vector potential requested for a field whose divergence is not zero."""
    exit_code = 3
    template = "divergence residual {}"


class NotConservative(_ResidualError):
    """Scalar potential requested for a field whose curl is not zero."""
    exit_code = 3
    template = "curl residual ({})"


class ConstructionFailed(_ResidualError):
    """Internal round-trip check rejected a constructed potential."""
    exit_code = 5
    template = ("curl of the constructed potential does not reproduce the input; "
                "residual ({})")


class BasePointSingular(InvdelError):
    """Substituting the base point produced an undefined value."""


class SamplingExhausted(InvdelError):
    """Too many sample points fell outside the domain during verification."""


def _digit_count(n: int) -> int:
    """About how many decimal digits ``n`` has, read from its bit length."""
    from .expr import _LOG10_2  # expr imports this module
    return int(abs(n).bit_length() * _LOG10_2) + 1


def _widest(form) -> int:
    """The largest magnitude among the numbers a form renders, at any depth."""
    numbers = [0]
    for factors, (numerator, denominator) in form.items():
        numbers += (abs(numerator), denominator, *(abs(e) for _, e in factors))
        numbers += (_widest(atom.argument) for atom, _ in factors if atom.__class__ is not str)
    return max(numbers)


def _shown(value) -> str:
    """The text of a form, or of a field's components joined by ", "."""
    from .expr import CanonicalForm  # expr and parser import this module
    from .parser import render
    forms = getattr(value, "components", (value,))
    texts = []
    for form in forms:
        more = len(form.terms) - MAX_SHOWN_TERMS
        try:
            text = render(CanonicalForm(dict(form.terms[:MAX_SHOWN_TERMS])) if more > 0 else form)
        except UnsupportedExpression:  # a number past the interpreter's digit limit
            return f"with a number of about {_digit_count(max(map(_widest, forms)))} digits"
        texts.append(f"{text} ... ({more} more terms)" if more > 0 else text)
    return ", ".join(texts)


def _echoed(text: str) -> str:
    """``text``, cut after ``MAX_ECHOED_CHARS`` characters."""
    more = len(text) - MAX_ECHOED_CHARS
    return f"{text[:MAX_ECHOED_CHARS]} ... ({more} more characters)" if more > 0 else text


def _checked(value, cls, what: str):
    """``value``, which must be a ``cls``; else a ValidationError naming both types."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, not a {type(value).__name__}")
    return value
