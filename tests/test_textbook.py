"""Textbook electromagnetic fields as acceptance rows.

One row per field, in units with the physical constants set to 1: the
command, its exit code and output, and, where a textbook gives one, the
textbook potential of the field as the command takes it (for a scalar
potential, the phi with grad(phi) equal to the field, so -V for a field
E = -grad V).

- A success is checked exactly by its forward operator, and where a textbook
  potential is given, the difference from it must be a gauge: zero curl for
  a vector potential, zero divergence for an inverse divergence, a constant
  for a scalar potential.
- A refusal is pinned by its error type and exit code, and ``item`` names
  the ROADMAP item whose change flips it; a fix flips a row, as an intended
  change.  ``item`` also names the one that reduces an unreduced output.
- ``bare_angle`` records whether a result holds an angle outside a
  function, so that it jumps where the chart's angle wraps; it is recorded,
  not a preference.
"""

from typing import NamedTuple, Optional

import pytest

from invdel import (
    BasePoint,
    DivergenceWeights,
    NotIntegrable,
    ScalarField,
    VectorField,
    builtin,
    construct,
    curl,
    divergence,
    equals,
    free_variables,
    gradient,
    parse,
)
from invdel.cli import main


class Row(NamedTuple):
    field: str
    command: str  # inv-curl, inv-div or inv-grad
    coords: str
    texts: tuple  # three components, or one scalar
    code: int  # the exit code
    out: object  # the output's lines on success; the error type on refusal
    options: tuple = ()  # --weights or --base, as the command takes them
    textbook: Optional[tuple] = None  # the potential, as the result's texts
    item: Optional[int] = None
    bare_angle: bool = False

    @property
    def argv(self) -> list:
        return [self.command, "--coords", self.coords, *self.options, "--", *self.texts]


ROWS = (
    Row("uniform B, cartesian", "inv-curl", "cartesian", ("0", "0", "1"),
        0, ("e1: -y/2", "e2: x/2", "e3: 0"), textbook=("-y/2", "x/2", "0")),
    Row("uniform B, cylindrical", "inv-curl", "cylindrical", ("0", "0", "1"),
        0, ("e1: -phi*rho/2", "e2: rho/4", "e3: 0"), textbook=("0", "rho/2", "0"),
        bare_angle=True),
    Row("uniform B, spherical", "inv-curl", "spherical", ("cos(theta)", "-sin(theta)", "0"),
        4, NotIntegrable, textbook=("0", "0", "r*sin(theta)/2"), item=16),
    Row("magnetic dipole", "inv-curl", "spherical",
        ("2*cos(theta)*r^-3", "sin(theta)*r^-3", "0"),
        4, NotIntegrable, textbook=("0", "0", "sin(theta)*r^-2"), item=16),
    Row("line current", "inv-curl", "cylindrical", ("0", "rho^-1", "0"),
        0, ("e1: rho^-1*z/2", "e2: 0", "e3: -ln(rho)/2"), textbook=("0", "0", "-ln(rho)")),
    Row("monopole", "inv-curl", "spherical", ("r^-2", "0", "0"),
        0, ("e1: 0", "e2: -phi*r^-1*sin(theta)/2", "e3: -cos(theta)*r^-1*sin(theta)^-1/2"),
        textbook=("0", "0", "(1 - cos(theta))*r^-1*sin(theta)^-1"), bare_angle=True),
    Row("point charge", "inv-grad", "spherical", ("-r^-2", "0", "0"),
        0, ("phi: -1 + r^-1",), textbook=("r^-1",)),
    Row("electric dipole", "inv-grad", "spherical",
        ("2*cos(theta)*r^-3", "sin(theta)*r^-3", "0"),
        0, ("phi: cos(1) - cos(theta)*r^-2",), textbook=("-cos(theta)*r^-2",)),
    # -ln(1) is left unreduced.
    Row("line charge", "inv-grad", "cylindrical", ("rho^-1", "0", "0"),
        0, ("phi: -ln(1) + ln(rho)",), options=("--base", "1,0,0"), textbook=("ln(rho)",),
        item=5),
    Row("uniform charge, spherical", "inv-div", "spherical", ("1",),
        0, ("e1: r/3", "e2: 0", "e3: 0"), options=("--weights", "1,0,0"),
        textbook=("r/3", "0", "0")),
    # Item 16's optional step may flip it too.
    Row("charge cos(theta)", "inv-div", "spherical", ("cos(theta)",), 4, NotIntegrable, item=4),
    Row("charge cos(theta), radial", "inv-div", "spherical", ("cos(theta)",),
        0, ("e1: cos(theta)*r/3", "e2: 0", "e3: 0"), options=("--weights", "1,0,0")),
)

SUCCESSES = [row for row in ROWS if row.code == 0]
FORWARD = {"inv-curl": curl, "inv-div": divergence, "inv-grad": gradient}


def field_of(row: Row, texts: tuple):
    """A scalar field of one text or a vector field of three, in the row's
    system."""
    system = builtin(row.coords)
    if len(texts) == 1:
        return ScalarField(parse(texts[0]), system)
    return VectorField(tuple(map(parse, texts)), system)


def forms(value) -> tuple:
    """A field's forms: a vector's components, or a scalar field's value
    (``divergence`` returns the bare form)."""
    if isinstance(value, VectorField):
        return value.components
    return (value.value if isinstance(value, ScalarField) else value,)


def built(row: Row):
    """The row's command as its library call."""
    options = dict(zip(row.options[::2], row.options[1::2]))
    weights = options.get("--weights")
    base = options.get("--base")
    result, _ = construct(
        row.command.replace("-", "_"), field_of(row, row.texts),
        weights=None if weights is None else DivergenceWeights(*weights.split(",")),
        base=None if base is None else BasePoint(*base.split(",")))
    return result


@pytest.mark.parametrize("row", ROWS, ids=[row.field for row in ROWS])
def test_the_command_gives_the_row(capsys, row):
    code = main(row.argv)
    captured = capsys.readouterr()
    assert code == row.code
    if row.code == 0:
        assert tuple(captured.out.splitlines()) == row.out
    else:
        assert captured.err.startswith(f"error: {row.out.__name__}: ")
        assert row.out.exit_code == row.code
        assert row.item is not None


@pytest.mark.parametrize("row", SUCCESSES, ids=[row.field for row in SUCCESSES])
def test_a_success_is_checked_by_its_forward_operator(row):
    result = built(row)
    given = forms(field_of(row, row.texts))
    assert all(equals(a, b) for a, b in zip(forms(FORWARD[row.command](result)), given))
    held = {atom for form in forms(result) for factors, _ in form.terms for atom, _ in factors}
    assert bool(held & {"phi", "theta"}) == row.bare_angle


@pytest.mark.parametrize("row", [row for row in ROWS if row.textbook],
                         ids=[row.field for row in ROWS if row.textbook])
def test_the_textbook_potential_is_one(row):
    textbook = field_of(row, row.textbook)
    given = forms(field_of(row, row.texts))
    assert all(equals(a, b) for a, b in zip(forms(FORWARD[row.command](textbook)), given))
    if row.code != 0:
        return
    difference = [a - b for a, b in zip(forms(built(row)), forms(textbook))]
    if row.command == "inv-grad":
        assert free_variables(difference[0]) == set()
        return
    gauge = VectorField(tuple(difference), builtin(row.coords))
    if row.command == "inv-curl":
        assert all(c.is_zero() for c in curl(gauge).components)
    else:
        assert divergence(gauge).is_zero()
