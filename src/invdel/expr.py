"""Exact symbolic expression kernel.

A ``CanonicalForm`` (also named ``Expression``) is a fully distributed sum
of terms held as a sparse map from factors (ordered powers of variables and
of sin/cos/exp/ln atoms) to exact coefficient, the distributed
representation of Monagan and Pearce (CASC 2007).  The constructors
(``var``, ``num``, ``sin`` ... and ``+ - * ** /``) and the parser build
maps with the same kernel helpers (``_multiply``, ``_power``, ``_invert``),
so equal forms have equal maps, and every operator passes and returns
forms.  ``terms`` lists a map's items in one deterministic order, which
rendering, repr and the sort keys of function atoms use.

A coefficient is a pair ``(n, d)`` of ints in lowest terms with ``d > 0``
and ``n != 0``, and three helpers do all coefficient arithmetic
(``_coeff_mul``, ``_coeff_add``, ``_coeff_inv``).  Pairs are the one number
type inside: ``_rational_pair`` reads a rational from outside into one, and
``fractions`` is imported only to read text that is not a plain ratio or to
hand a caller a ``Fraction``.  Floats appear only in numeric evaluation,
``evaluate``, one walk of a form's terms over columns of points, and
``eval_numeric``, its one-point case.  ``value_at``, the one judge of a
form at a base point, substitutes exact values, each constant folded into
its terms' coefficients by pair arithmetic, and decides a rational
argument exactly.
"""

from __future__ import annotations

import math
import re
import sys
from math import gcd
from typing import Mapping, Union

from .errors import DomainError, UnboundVariable, UnsupportedExpression, ValidationError, _echoed

FUNCTION_TAGS = ("sin", "cos", "exp", "ln")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# An int or a fractions.Fraction, named as text so that this module does not
# import fractions.
RationalLike = Union[int, "Fraction"]


_set = object.__setattr__


class Frozen:
    """Immutable value: field-wise ``==`` within one class, hash, pickling and
    repr over its ``_fields`` (its ``__slots__`` unless it names fewer);
    ``__init__`` fills the slots through ``object.__setattr__``.  Assigning or
    deleting a field raises ``FrozenInstanceError``, imported only then."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    @classmethod
    def _built(cls, *values):
        """An instance of values built from checked ones, left unchecked."""
        value = cls.__new__(cls)
        value._init(*values)
        return value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def check_variable_name(name: str) -> None:
    """Raise ValueError unless ``name`` is text, an identifier other than a
    function tag."""
    if not (isinstance(name, str) and _IDENT_RE.match(name)):
        raise ValueError(_echoed(f"invalid variable name {name!r}"))
    if name in FUNCTION_TAGS:
        raise ValueError(f"{name!r} is a reserved function name")


def _inverse_rational(divisor) -> dict:
    if _exact_pair(divisor) is None and not (
            isinstance(divisor, CanonicalForm) and divisor._map.keys() <= {()}):
        raise TypeError("can only divide by a rational constant; "
                        "use reciprocal() for invertible expressions")
    return _invert(_map_of(divisor))


# --- coefficients ---------------------------------------------------------

_ONE = (1, 1)


def _coeff_mul(a: tuple, b: tuple) -> tuple:
    """Product of two coefficients, cancelled crosswise before multiplying,
    so the result is in lowest terms."""
    n1, d1 = a
    n2, d2 = b
    g = gcd(n1, d2)
    if g != 1:
        n1 //= g
        d2 //= g
    g = gcd(n2, d1)
    if g != 1:
        n2 //= g
        d1 //= g
    return (n1 * n2, d1 * d2)


def _coeff_add(a: tuple, b: tuple) -> tuple:
    """Sum of two coefficients in lowest terms; (0, 1) when they cancel."""
    n1, d1 = a
    n2, d2 = b
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _coeff_inv(a: tuple) -> tuple:
    """Reciprocal of a nonzero coefficient; the sign moves to the numerator."""
    n, d = a
    return (d, n) if n > 0 else (-d, -n)


# --- canonical form -------------------------------------------------------

# Most term pairs one product of two expanded forms may multiply out.  Past
# it the product raises UnsupportedExpression before any pair is formed, so
# a blow-up such as (x+y+z+1)^60 ends at once; the parser bounds nesting
# depth the same way (``parser.MAX_NESTING``).
MAX_PRODUCT_PAIRS = 100_000

# Most decimal digits a power of one coefficient, or a product of two, may
# reach, estimated before it is computed, so 3^10000000, (2^9000*x + 1)^300
# and a chain of 300 factors (7/3)^4000 end at once.  It sits above the
# interpreter's 4300-digit limit, which rendering meets.
MAX_POWER_DIGITS = 10_000
_LOG10_2 = math.log10(2)

# Decimal text with an exponent, as ``Fraction`` reads it, or looser; digits
# split one way only, so text with no exponent fails in linear time.
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?[\d_]*(?:\.[\d_]*)?[eE][-+]?([\d_]+)\s*")
# An integer or a ratio of integers in ASCII digits, which Fraction reads alike.
_PLAIN_RATIO = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def _reduced(n: int, d: int) -> tuple:
    """n/d, d nonzero, as a pair in lowest terms with the sign on n."""
    g = gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _exact_pair(value):
    """The pair of an int or a Fraction, else None.  A Fraction exists only
    once ``fractions`` is loaded, so telling one imports nothing."""
    if isinstance(value, int):
        return (value.numerator, 1)
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return (value.numerator, value.denominator)
    return None


def _rational_pair(value) -> tuple:
    """The pair of ``Fraction(value)``, or its error, for a value from
    outside; only text that is not a plain ratio goes to Fraction.  Fraction
    reads a decimal exponent in time that grows with it, so text whose
    exponent is past ``MAX_POWER_DIGITS`` is a ValueError before it is read."""
    pair = _exact_pair(value)
    if pair is not None:
        return pair
    if isinstance(value, str):
        match = _PLAIN_RATIO.fullmatch(value)
        if match:
            try:
                n, d = int(match[1]), int(match[2] or 1)
            except ValueError:  # past the digit limit, which Fraction reports
                n = d = 0
            if d:
                return _reduced(n, d)
        match = _DECIMAL_EXPONENT.fullmatch(value)
        if match:
            digits = match[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_POWER_DIGITS)) or int(digits or 0) > MAX_POWER_DIGITS:
                raise ValueError(
                    f"a decimal exponent past {MAX_POWER_DIGITS} exceeds the budget")
    from fractions import Fraction
    return _exact_pair(Fraction(value))


def _fraction(pair: tuple):
    """The ``Fraction`` of a pair, for an attribute a caller reads."""
    from fractions import Fraction
    return Fraction(*pair)


class FunctionAtom(Frozen):
    """Opaque function occurrence keyed by its canonical argument.

    Three facts are worked out once, here, and left out of ``==``, hash,
    repr and pickling, which see ``tag`` and ``argument`` alone: ``key``,
    which orders atoms inside a term; ``variables``, the frozenset of the
    argument's variables; and ``_hash``.  A loaded pickle goes through this
    constructor, so it works them out again in its own process.  Atoms sit
    in the factor tuples that key every coefficient map, so ``==`` and hash
    are spelled out for speed; repr is ``Frozen``'s, over ``_fields``.
    """

    __slots__ = ("tag", "argument", "key", "variables", "_hash")
    _fields = ("tag", "argument")

    def __init__(self, tag: str, argument: "CanonicalForm"):
        _set(self, "tag", tag)
        _set(self, "argument", argument)
        _set(self, "key", (tag, 1, _form_key(argument)))
        _set(self, "variables", free_variables(argument))
        _set(self, "_hash", hash((tag, argument)))

    def __eq__(self, other):
        if other.__class__ is not FunctionAtom:
            return NotImplemented
        return self is other or (self._hash == other._hash and
                                 (self.tag, self.argument) == (other.tag, other.argument))

    def __hash__(self):
        return self._hash


Atom = Union[str, FunctionAtom]


class CanonicalForm:
    """Fully distributed sum of terms; the empty map is the zero form.

    The map sends factors, a tuple of (atom, nonzero exponent) pairs in
    ascending atom order, to a nonzero coefficient ``(n, d)``: ints in
    lowest terms with ``d > 0``.  A form owns its map and
    never changes it, so forms may share maps.  Arithmetic with ``+ - * **``
    and division by a rational gives forms again; ``==`` and hash compare
    the maps, so they are mathematical equality.
    """

    __slots__ = ("_map", "_terms", "_hash")

    def __init__(self, coefficients: dict):
        self._map = coefficients
        self._terms = None
        self._hash = None

    @property
    def terms(self) -> tuple:
        """The (factors, coefficient) items in canonical order, sorted on
        first use: descending lexicographic order of exponent vectors over
        the form's atoms taken in ascending ``_atom_key`` order, so x^2
        sorts before the constant term and x*y*z before y^2."""
        if self._terms is None:
            items = self._map.items()
            if len(items) > 1:
                atoms = sorted({a for f in self._map for a, _ in f}, key=_atom_key)

                def order(item):
                    exponents = dict(item[0])
                    return [-exponents.get(a, 0) for a in atoms]

                items = sorted(items, key=order)
            self._terms = tuple(items)
        return self._terms

    def items(self):
        """(factors, coefficient) pairs in no particular order."""
        return self._map.items()

    def is_zero(self) -> bool:
        return not self._map

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self):
        return f"CanonicalForm({dict(self.terms)!r})"

    def __reduce__(self):
        # The map alone: the cached hash and order are rebuilt where the form
        # is loaded, since string hashes differ between processes.
        return CanonicalForm, (self._map,)

    def __add__(self, other):
        acc = dict(self._map)
        _accumulate(acc, _map_of(other))
        return CanonicalForm(acc)

    __radd__ = __add__

    def __sub__(self, other):
        acc = dict(self._map)
        _subtract(acc, _map_of(other))
        return CanonicalForm(acc)

    def __rsub__(self, other):
        acc = dict(_map_of(other))
        _subtract(acc, self._map)
        return CanonicalForm(acc)

    def __mul__(self, other):
        return CanonicalForm(_multiply(self._map, _map_of(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return CanonicalForm(_negate(self._map))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        return CanonicalForm(_power(self._map, exponent))

    def __truediv__(self, other):
        return CanonicalForm(_multiply(self._map, _inverse_rational(other)))


Expression = CanonicalForm

ZERO_FORM = CanonicalForm({})


def atom_power(atom: Atom, exponent: int = 1) -> CanonicalForm:
    """The single-term form atom**exponent with coefficient one; a variable
    atom is its name."""
    return CanonicalForm({((atom, exponent),): _ONE})


def _map_of(value) -> dict:
    if isinstance(value, CanonicalForm):
        return value._map
    pair = _exact_pair(value)
    if pair is None:
        raise TypeError(f"cannot interpret {value!r} as an expression")
    return {(): pair} if pair[0] else {}


def var(name: str) -> CanonicalForm:
    check_variable_name(name)
    return atom_power(name)


def num(numerator: RationalLike, denominator: int = 1) -> CanonicalForm:
    """The constant ``Fraction(numerator, denominator)``, read without it
    from ints and Fractions."""
    top, bottom = _exact_pair(numerator), _exact_pair(denominator)
    if top is None or bottom is None or not bottom[0]:
        from fractions import Fraction
        top, bottom = _exact_pair(Fraction(numerator, denominator)), _ONE
    return _constant(_reduced(top[0] * bottom[1], top[1] * bottom[0]))


def _constant(pair: tuple) -> CanonicalForm:
    """The constant form of a reduced pair."""
    return CanonicalForm({(): pair} if pair[0] else {})


def _apply(tag: str, argument) -> CanonicalForm:
    return atom_power(FunctionAtom(tag, CanonicalForm(_map_of(argument))))


def sin(argument) -> CanonicalForm:
    return _apply("sin", argument)


def cos(argument) -> CanonicalForm:
    return _apply("cos", argument)


def exp(argument) -> CanonicalForm:
    return _apply("exp", argument)


def ln(argument) -> CanonicalForm:
    return _apply("ln", argument)


def _atom_key(atom):
    if isinstance(atom, str):
        return (atom, 0, ())
    return atom.key


class _Ratio:
    """A proper fraction n/d, d > 1, in an atom key: it compares with ints,
    Fractions and other ratios exactly, as Fraction(n, d) would."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator, self.denominator = n, d

    def __eq__(self, other):
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other):
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __gt__(self, other):
        return self.numerator * other.denominator > other.numerator * self.denominator


def _form_key(form: CanonicalForm):
    # Coefficients compare as rationals here, not as pairs, so that
    # sin(2*x/5) sorts before sin(x/2).  An integer n/1 stays the int n, which
    # compares with a _Ratio exactly, so only a proper fraction is wrapped.
    return tuple(
        (c[0] if c[1] == 1 else _Ratio(*c), tuple((_atom_key(a), e) for a, e in f))
        for f, c in form.terms)


def _merge_factors(f1, f2):
    if not f1:
        return f2
    if not f2:
        return f1
    out = []
    i = j = 0
    while i < len(f1) and j < len(f2):
        a1, e1 = f1[i]
        a2, e2 = f2[j]
        if a1 == a2:
            e = e1 + e2
            if e:
                out.append((a1, e))
            i += 1
            j += 1
        elif (a1 < a2 if a1.__class__ is str and a2.__class__ is str
              else _atom_key(a1) < _atom_key(a2)):
            out.append((a1, e1))
            i += 1
        else:
            out.append((a2, e2))
            j += 1
    out.extend(f1[i:])
    out.extend(f2[j:])
    return tuple(out)


def _add_term(acc: dict, factors, coeff) -> None:
    previous = acc.get(factors)
    if previous is None:
        acc[factors] = coeff
        return
    total = _coeff_add(previous, coeff)
    if total[0]:
        acc[factors] = total
    else:
        del acc[factors]


def _accumulate(acc: dict, extra: dict) -> None:
    for factors, coeff in extra.items():
        _add_term(acc, factors, coeff)


def _subtract(acc: dict, extra: dict) -> None:
    for factors, (n, d) in extra.items():
        _add_term(acc, factors, (-n, d))


def _negate(d: dict) -> dict:
    return {f: (-n, e) for f, (n, e) in d.items()}


def _is_unit(d: dict) -> bool:
    return len(d) == 1 and d.get(()) == _ONE


def _multiply(d1: dict, d2: dict) -> dict:
    # Most products are of two single terms, and most coefficient products
    # have a factor 1: both skip the general loop and coefficient arithmetic.
    if not d1 or not d2:
        return {}
    if len(d1) == 1 and len(d2) == 1:
        (f1, c1), = d1.items()
        (f2, c2), = d2.items()
        return {_merge_factors(f1, f2): _coeff_product(c1, c2)}
    if _is_unit(d1):
        return d2
    if _is_unit(d2):
        return d1
    _check_pairs(d1, d2)
    acc: dict = {}
    for f1, c1 in d1.items():
        for f2, c2 in d2.items():
            _add_term(acc, _merge_factors(f1, f2),
                      c2 if c1 == _ONE else c1 if c2 == _ONE else _coeff_mul(c1, c2))
    return acc


def _check_pairs(d1: dict, d2: dict) -> None:
    """The budgets of a product of two maps, neither zero nor one: it raises
    UnsupportedExpression before expanding a product past
    ``MAX_PRODUCT_PAIRS`` term pairs."""
    if len(d1) * len(d2) > MAX_PRODUCT_PAIRS:
        raise UnsupportedExpression(
            f"expanding a product of {len(d1)} by {len(d2)} terms exceeds "
            f"the budget of {MAX_PRODUCT_PAIRS} term pairs")
    # A term with coefficient 1 grows no coefficient.  Any other factor adds
    # its size, once per link of a chain and at every squaring of a sum.
    if not (len(d1) == 1 and _ONE in d1.values()
            or len(d2) == 1 and _ONE in d2.values()):
        (n1, e1), (n2, e2) = _coefficient_bits(d1), _coefficient_bits(d2)
        _check_coefficient_product(n1 + n2, e1 + e2)


def _check_coefficient_product(numerator_bits: int, denominator_bits: int) -> None:
    """Raise UnsupportedExpression before forming a coefficient product whose
    numerator or denominator bit length puts it past ``MAX_POWER_DIGITS``."""
    if max(numerator_bits, denominator_bits) * _LOG10_2 > MAX_POWER_DIGITS:
        raise UnsupportedExpression(
            f"a coefficient product of more than {MAX_POWER_DIGITS} digits "
            "exceeds the budget")


def _coeff_product(a: tuple, b: tuple) -> tuple:
    """Product of two coefficients of single terms; unless either is 1, it
    is estimated against ``MAX_POWER_DIGITS`` before it is formed."""
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    _check_coefficient_product(a[0].bit_length() + b[0].bit_length(),
                               a[1].bit_length() + b[1].bit_length())
    return _coeff_mul(a, b)


def _coefficient_bits(d: dict) -> tuple[int, int]:
    """Bit lengths of the largest numerator and denominator in the map."""
    n = e = 0
    for numerator, denominator in d.values():
        cn, cd = numerator.bit_length(), denominator.bit_length()
        if cn > n:
            n = cn
        if cd > e:
            e = cd
    return n, e


def _coeff_power(coeff: tuple, n: int) -> tuple:
    """A nonzero coefficient to the nonzero power n, estimated against
    ``MAX_POWER_DIGITS`` before it is formed."""
    if n < 0:
        coeff, n = _coeff_inv(coeff), -n
    if coeff == _ONE:
        return coeff
    numerator, denominator = coeff
    size = max(abs(numerator), denominator)
    if size > 1 and n > MAX_POWER_DIGITS / math.log10(size):
        raise UnsupportedExpression(
            f"a coefficient power of more than {MAX_POWER_DIGITS} digits exceeds the budget")
    return (numerator ** n, denominator ** n)


def _invert(d: dict) -> dict:
    if not d:
        raise UnsupportedExpression("reciprocal of zero")
    if len(d) > 1:
        raise UnsupportedExpression(
            "reciprocal of a multi-term expression is outside the term algebra")
    (factors, coeff), = d.items()
    return {tuple((a, -e) for a, e in factors): _coeff_inv(coeff)}


def _power(d: dict, n: int) -> dict:
    if n < 0:
        return _power(_invert(d), -n)
    if n == 0:
        return {(): _ONE}
    if len(d) == 1:
        # A power of one term scales its exponents, none of which is zero.
        (factors, coeff), = d.items()
        return {tuple((a, e * n) for a, e in factors): _coeff_power(coeff, n)}
    result = {(): _ONE}
    base = d
    while n:
        if n & 1:
            result = _multiply(result, base)
        n >>= 1
        if n:
            base = _multiply(base, base)
    return result


def canonicalize(expression: Expression) -> CanonicalForm:
    """The form itself; anything else raises TypeError."""
    if isinstance(expression, CanonicalForm):
        return expression
    raise TypeError(f"not an expression node: {expression!r}")


def equals(e1: Expression, e2: Expression) -> bool:
    """Mathematical equality within the supported class."""
    return canonicalize(e1) == canonicalize(e2)


def is_zero(expression: Expression) -> bool:
    return canonicalize(expression).is_zero()


def reciprocal(expression: Expression) -> CanonicalForm:
    """1/expression, when the canonical form is a single term."""
    return CanonicalForm(_invert(canonicalize(expression)._map))


def factors_contain(factors, name: str) -> bool:
    """True iff the variable occurs among a term's factors, including
    function arguments."""
    for atom, _ in factors:
        if atom == name if atom.__class__ is str else name in atom.variables:
            return True
    return False


def substitute(expression: Expression, name: str, value) -> CanonicalForm:
    """Replace every occurrence of the variable, including inside function
    arguments.  The replacement may itself be any expression."""
    check_variable_name(name)
    return substitute_all(expression, {name: value})


def substitute_all(expression: Expression, values: Mapping) -> CanonicalForm:
    """Replace several variables, mapped to their replacements, at once.

    The replacements are simultaneous, so a reciprocal of zero raises
    UnsupportedExpression even in a term that another replacement zeroes.
    """
    return CanonicalForm(_substitute(
        canonicalize(expression)._map, {n: _map_of(v) for n, v in values.items()}))


def _substitute(d: dict, values: dict) -> dict:
    # While every replaced factor is a constant, a term is its coefficient and
    # its kept factors, and each constant's power folds into the coefficient,
    # as ``_multiply`` of two constants would form it.  From its first other
    # replaced factor on, the product is a map, multiplied out by
    # ``_multiply``.  Either way each factor raises its budget or reciprocal
    # error in turn, even after another factor has zeroed the term.
    acc: dict = {}
    for factors, coeff in d.items():
        kept = []
        replaced = None
        for atom, e in factors:
            if atom.__class__ is str:
                if atom not in values:
                    kept.append((atom, e))
                    continue
                value = values[atom]
                if replaced is None and value.keys() <= {()}:
                    if not value:
                        if e < 0:
                            raise UnsupportedExpression("reciprocal of zero")
                        coeff = (0, 1)
                    else:
                        power = _coeff_power(value[()], e)
                        if coeff[0]:
                            coeff = _coeff_product(coeff, power)
                    continue
                factor = _power(value, e)
            elif atom.variables.isdisjoint(values):
                kept.append((atom, e))
                continue
            else:
                inner = CanonicalForm(_substitute(atom.argument._map, values))
                factor = {((FunctionAtom(atom.tag, inner), e),): _ONE}
            if replaced is None:
                replaced = {(): coeff} if coeff[0] else {}
            replaced = _multiply(replaced, factor)
        if replaced is not None:
            _accumulate(acc, _multiply(replaced, {tuple(kept): _ONE}))
        elif coeff[0]:
            _add_term(acc, factors if len(kept) == len(factors) else tuple(kept), coeff)
    return acc


def free_variables(expression: Expression) -> frozenset[str]:
    """The variables that occur in the form, including inside function
    arguments; empty for anything that is not a form."""
    names: set[str] = set()
    if isinstance(expression, CanonicalForm):
        for factors in expression._map:
            for atom, _ in factors:
                if atom.__class__ is str:
                    names.add(atom)
                else:
                    names |= atom.variables
    return frozenset(names)


def eval_numeric(expression: Expression, point: Mapping[str, float]) -> float:
    """Evaluate at a point (name -> number).  Exact up to float rounding.

    Bit for bit the value of the reference evaluation in the tests'
    ``_support.reference_eval``, which spells each term as a product and the
    form as their sum, and the same first error in canonical term order.
    Raises UnboundVariable for missing names and DomainError when the value
    leaves the real domain: ln of a non-positive number, 0**-n, sin or cos
    of an infinite value, overflow of a coordinate, a coefficient, a power,
    exp or the sum, and a sum of opposite infinities.  A value is a number
    that ``float`` reads, not text; any other is a ValidationError naming
    its variable, the variables taken in sorted order.  Each variable of the
    form that has a value in ``point`` gets a slot and a one-value column;
    other entries of ``point`` are not read.
    """
    form = canonicalize(expression)
    names = [name for name in sorted(free_variables(form)) if name in point]
    slots = {name: i for i, name in enumerate(names)}
    columns = []
    for name in names:
        value = point[name]
        try:
            if isinstance(value, (str, bytes, bytearray, memoryview)):  # float() parses text
                raise TypeError
            columns.append([float(value)])
        except OverflowError:
            raise DomainError("coordinate overflow") from None
        except (TypeError, ValueError):
            raise ValidationError(
                f"the value of {name} is not a number: {_echoed(repr(value))}") from None
    return evaluate(form, slots, columns, 1)[0]


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}


def evaluate(form: CanonicalForm, slots: Mapping[str, int], columns, n: int,
             failed: set | None = None, *, table: dict | None = None) -> list:
    """Evaluate a form at n points at once, one walk over its terms in
    canonical order: each variable is read by its index in ``slots`` from
    ``columns`` (a list of n values per slot), and a variable with no slot
    raises UnboundVariable where its term is reached.  Each point's value is
    bit for bit ``eval_numeric``'s: a term's product starts from its
    coefficient, and the sum (fsum, which loses -0.0) needs two or more
    terms.  A point whose value leaves the domain raises its DomainError
    or, when ``failed`` is a set, reads nan, as a coefficient past the float
    range does at every point; each point where the result reads nan, also
    without raising (inf * 0.0, a function of nan), joins ``failed``.

    ``table`` maps each exact factor, (atom, exponent) with the atom a
    variable's name or a FunctionAtom, to its column, so each distinct
    factor is formed once however many terms and forms hold it.  Its
    columns belong to one ``slots``, ``columns`` and ``failed``: give one
    table to every form of one block of points and drop it with the block.
    The default is a fresh table."""
    if table is None:
        table = {}
    terms = []
    for factors, (p, q) in form.terms:
        try:
            # Int true division rounds correctly, as float(Fraction(p, q)) does.
            coefficient = p / q
        except OverflowError:
            if failed is None:
                raise DomainError("coefficient overflow") from None
            coefficient = math.nan
        column = None
        for atom, e in factors:
            values = table.get((atom, e))
            if values is None:
                values = _column(atom, e, slots, columns, n, failed, table)
            if column is None:
                column = [coefficient * v for v in values]
            else:
                column = [r * v for r, v in zip(column, values)]
        terms.append([coefficient] * n if column is None else column)
    if len(terms) == 1:
        values = terms[0]
    else:
        points = list(zip(*terms)) if terms else [()] * n
        try:
            values = list(map(math.fsum, points))
        except (ArithmeticError, ValueError):
            values = _pointwise(_eval_sum, points, failed)
    if failed is not None and (total := sum(values)) != total:
        failed.update(i for i, v in enumerate(values) if v != v)
    return values


def _column(atom, e: int, slots, columns, n: int, failed, table: dict) -> list:
    """A factor's column, kept in ``table``; a power's base is kept there too."""
    if e != 1:
        values = table.get((atom, 1))
        if values is None:
            values = _column(atom, 1, slots, columns, n, failed, table)
        try:
            values = [v ** e for v in values]
        except ArithmeticError:
            values = _pointwise(lambda v: _eval_power(v, e), values, failed)
    elif atom.__class__ is str:
        if atom not in slots:
            raise UnboundVariable(atom)
        values = columns[slots[atom]]
    else:
        arguments = evaluate(atom.argument, slots, columns, n, failed, table=table)
        try:
            values = list(map(_FUNCTIONS[atom.tag], arguments))
        except (ArithmeticError, ValueError):
            values = _pointwise(lambda v: _eval_function(atom.tag, v), arguments, failed)
    table[atom, e] = values
    return values


def _pointwise(checked, arguments, failed) -> list:
    """``checked`` at each argument, for a column whose plain operation
    raised; ``checked`` is that operation with DomainError in place of the
    raw error.  A point where it raises joins ``failed`` and reads nan; when
    ``failed`` is None, the point's DomainError propagates."""
    out = []
    for i, argument in enumerate(arguments):
        try:
            out.append(checked(argument))
        except DomainError:
            if failed is None:
                raise
            failed.add(i)
            out.append(math.nan)
    return out


def _eval_power(base: float, exponent: int) -> float:
    try:
        return base ** exponent
    except ZeroDivisionError:
        raise DomainError("zero raised to a negative power") from None
    except OverflowError:
        raise DomainError("power overflow") from None


def _eval_sum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise DomainError("sum overflow") from None
    except ValueError:  # -inf + inf
        raise DomainError("sum of opposite infinities") from None


def _eval_function(tag: str, arg: float) -> float:
    try:
        return _FUNCTIONS[tag](arg)
    except ValueError:  # ln of a non-positive value, sin or cos of inf
        if tag == "ln":
            raise DomainError(f"ln of non-positive value {arg}") from None
        raise DomainError(f"{tag} of an infinite value") from None
    except OverflowError:
        raise DomainError("exp overflow") from None


# The rational roots: sin(q) vanishes only at q = 0 and ln(q) only at q = 1.
_RATIONAL_ROOT = {"sin": (0, 1), "ln": _ONE}


def vanishes(atom: FunctionAtom) -> bool:
    """Whether a function atom with a constant argument is 0; DomainError
    where it has no value.  A rational argument is decided exactly.  Any
    other is evaluated, and the function at its value too, except exp, which
    never vanishes, and sin or cos of inf, which is kept."""
    constant = dict(atom.argument.items())
    q = constant.get((), (0, 1))
    if constant.keys() <= {()} and (atom.tag != "ln" or q[0] > 0):
        return q == _RATIONAL_ROOT.get(atom.tag)
    value = eval_numeric(atom.argument, {})
    return (atom.tag != "exp" and (atom.tag == "ln" or math.isfinite(value))
            and _eval_function(atom.tag, value) == 0.0)


def value_at(expression: Expression, values: Mapping) -> CanonicalForm:
    """``substitute_all`` of a point's exact ``values`` (none: the form as it
    is), checked: DomainError where a constant function atom, at any depth,
    has no value or ``vanishes`` under a negative power.  A constant value
    folds into each term's coefficient (see ``_substitute``).  The terms are
    put in canonical order, which decides whose error is raised first, only
    when a function atom is left to check."""
    form = substitute_all(expression, values) if values else expression
    if not any(atom.__class__ is not str for factors in form._map for atom, _ in factors):
        return form
    for factors, _ in form.terms:
        for atom, e in factors:
            if atom.__class__ is not str:
                value_at(atom.argument, {})
                if not atom.variables and vanishes(atom) and e < 0:
                    raise DomainError("reciprocal of a vanishing factor")
    return form
