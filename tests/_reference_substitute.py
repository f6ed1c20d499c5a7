"""A frozen copy of the substitution that ``invdel.expr`` replaced, kept only
as a reference: ``substitute_all`` and ``value_at`` here must give the map,
in the same insertion order, or the error type and message, that
``invdel.expr`` gives.

Every replaced factor is multiplied into its term with the kernel's
``_multiply``, a constant value too, and ``value_at`` scans the terms in
canonical order.  Do not change it to follow a change of ``invdel.expr``.
"""

from __future__ import annotations

from invdel.errors import DomainError
from invdel.expr import (
    _ONE,
    CanonicalForm,
    FunctionAtom,
    _accumulate,
    _add_term,
    _map_of,
    _multiply,
    _power,
    canonicalize,
    factors_contain,
    vanishes,
)


def substitute_all(expression, values):
    return CanonicalForm(_substitute(
        canonicalize(expression)._map, {n: _map_of(v) for n, v in values.items()}))


def _substitute(d: dict, values: dict) -> dict:
    acc: dict = {}
    for factors, coeff in d.items():
        if not any(factors_contain(factors, name) for name in values):
            _add_term(acc, factors, coeff)
            continue
        kept = []
        replaced = {(): coeff}
        for atom, e in factors:
            if isinstance(atom, str):
                if atom in values:
                    replaced = _multiply(replaced, _power(values[atom], e))
                    continue
            elif not atom.variables.isdisjoint(values):
                inner = CanonicalForm(_substitute(atom.argument._map, values))
                replaced = _multiply(
                    replaced, {((FunctionAtom(atom.tag, inner), e),): _ONE})
                continue
            kept.append((atom, e))
        _accumulate(acc, _multiply(replaced, {tuple(kept): _ONE}))
    return acc


def value_at(expression, values):
    form = substitute_all(expression, values) if values else expression
    for factors, _ in form.terms:
        for atom, e in factors:
            if atom.__class__ is not str:
                value_at(atom.argument, {})
                if not atom.variables and vanishes(atom) and e < 0:
                    raise DomainError("reciprocal of a vanishing factor")
    return form
