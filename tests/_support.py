"""Shared helpers for building random test fields and spelling trees as text."""

from fractions import Fraction

from invdel import ScalarField, VectorField, num, var
from invdel.expr import (
    FunctionApplication,
    IntegerPower,
    Negation,
    Product,
    RationalConstant,
    Sum,
    Variable,
)


def random_polynomial(rng, names, max_terms=3, max_degree=3):
    """Random polynomial with small Fraction coefficients."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = Fraction(
            rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        term = num(coefficient)
        for name in names:
            degree = rng.randint(0, max_degree)
            if degree:
                term = term * var(name) ** degree
        terms.append(term)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def random_vector(rng, system, max_terms=3, max_degree=3):
    components = tuple(
        random_polynomial(rng, system.names, max_terms, max_degree)
        for _ in range(3))
    return VectorField(components, system)


def random_scalar(rng, system, max_terms=3, max_degree=3):
    value = random_polynomial(rng, system.names, max_terms, max_degree)
    return ScalarField(value, system)


def spell(tree):
    """Fully parenthesized source text of a tree built with the public
    constructors.  A product child that is a negative power, or a constant
    1/d, is written as a division by the positive power, or by d."""
    if isinstance(tree, RationalConstant):
        value = tree.value
        if value.denominator == 1:
            return f"({value.numerator})"
        return f"({value.numerator}/{value.denominator})"
    if isinstance(tree, Variable):
        return tree.name
    if isinstance(tree, FunctionApplication):
        return f"{tree.tag}({spell(tree.argument)})"
    if isinstance(tree, Negation):
        return f"(-{spell(tree.child)})"
    if isinstance(tree, IntegerPower):
        return f"({spell(tree.base)}^{tree.exponent})"
    if isinstance(tree, Sum):
        return "(" + " + ".join(spell(c) for c in tree.children) + ")"
    if isinstance(tree, Product):
        text = spell(tree.children[0])
        for child in tree.children[1:]:
            if isinstance(child, IntegerPower) and child.exponent < 0:
                text += f"/({spell(child.base)}^{-child.exponent})"
            elif (isinstance(child, RationalConstant) and child.value.numerator == 1
                  and child.value.denominator != 1):
                text += f"/{child.value.denominator}"
            else:
                text += "*" + spell(child)
        return f"({text})"
    raise TypeError(f"not a public-constructor tree: {tree!r}")
