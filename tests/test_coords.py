"""Builtin coordinate systems and custom-system validation."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from invdel import (
    BUILTIN_NAMES,
    CoordinateSystem,
    SourceError,
    UnknownSystem,
    ValidationError,
    builtin,
    custom,
    eval_numeric,
    parse,
    render,
)


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"cartesian", "cylindrical", "spherical"}


def test_cartesian_definition():
    s = builtin("cartesian")
    assert s.names == ("x", "y", "z")
    assert [render(h) for h in s.scale_factors] == ["1", "1", "1"]
    assert s.base_point == (Fraction(0), Fraction(0), Fraction(0))
    assert s.sampling_box == ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))


def test_cylindrical_definition():
    s = builtin("cylindrical")
    assert s.names == ("rho", "phi", "z")
    assert [render(h) for h in s.scale_factors] == ["1", "rho", "1"]
    assert s.base_point == (Fraction(1), Fraction(0), Fraction(0))
    assert s.sampling_box[0] == (0.5, 2.0)


def test_spherical_definition():
    s = builtin("spherical")
    assert s.names == ("r", "theta", "phi")
    assert [render(h) for h in s.scale_factors] == ["1", "r", "r*sin(theta)"]
    assert s.base_point == (Fraction(1), Fraction(1), Fraction(0))
    assert s.sampling_box[1] == (0.1, 3.0)


# The README's table of builtin systems, as text.
README_TABLE = {
    "cartesian": (("x", "y", "z"), ("1", "1", "1"), (0, 0, 0),
                  ((-2, 2), (-2, 2), (-2, 2))),
    "cylindrical": (("rho", "phi", "z"), ("1", "rho", "1"), (1, 0, 0),
                    ((0.5, 2), (0.1, 3), (-2, 2))),
    "spherical": (("r", "theta", "phi"), ("1", "r", "r*sin(theta)"), (1, 1, 0),
                  ((0.5, 2), (0.1, 3), (0.1, 3))),
}


def test_custom_is_the_constructor():
    assert custom is CoordinateSystem


@pytest.mark.parametrize("name", sorted(README_TABLE))
def test_builtin_is_the_readme_table_given_as_text(name):
    s = custom(*README_TABLE[name], label=name)
    assert s == builtin(name)
    assert hash(s) == hash(builtin(name))
    assert repr(s) == repr(builtin(name))


def test_custom_parses_scale_factors_before_it_checks_names():
    with pytest.raises(SourceError):
        custom(("u", "u", "w"), ("(", "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


@pytest.mark.parametrize("names", ["uvw", ["u", "v", "w"]])
def test_custom_takes_names_as_any_sequence(names):
    args = (("1", "u", "1"), (1, 0, 0), ((0.5, 2), (-1, 1), (-1, 1)))
    s = custom(names, *args)
    assert s == custom(("u", "v", "w"), *args)
    assert hash(s) == hash(custom(("u", "v", "w"), *args))


def test_unknown_builtin():
    with pytest.raises(UnknownSystem):
        builtin("polar")


@pytest.mark.parametrize("name", [["x"], None, "Cartesian"])
def test_unknown_builtin_names_of_any_type(name):
    with pytest.raises(UnknownSystem):
        builtin(name)


def test_builtin_systems_are_built_once(monkeypatch):
    """After import, builtin() validates nothing and hands out one shared
    system per name."""
    first = {name: builtin(name) for name in BUILTIN_NAMES}
    validations = []
    validate = CoordinateSystem.__init__
    monkeypatch.setattr(CoordinateSystem, "__init__",
                        lambda self, *args, **kwargs:
                        validations.append(self) or validate(self, *args, **kwargs))
    for _ in range(3):
        for name in BUILTIN_NAMES:
            assert builtin(name) is first[name]
            assert builtin(name).label == name
    assert validations == []
    with pytest.raises(FrozenInstanceError):
        first["cartesian"].label = "custom"


def test_scale_factors_positive_over_box():
    rng = random.Random(3)
    for name in BUILTIN_NAMES:
        s = builtin(name)
        for _ in range(200):
            point = {
                n: rng.uniform(lo, hi)
                for n, (lo, hi) in zip(s.names, s.sampling_box)
            }
            for h in s.scale_factors:
                assert eval_numeric(h, point) > 0.0


def test_custom_system_accepts_strings():
    s = custom(
        names=("u", "v", "w"),
        scale_factors=("1", "u", "1"),
        base_point=(1, 0, 0),
        sampling_box=((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)),
        label="parabolic-like",
    )
    assert s.label == "parabolic-like"
    assert render(s.scale_factors[1]) == "u"


def test_custom_rejects_duplicate_names():
    with pytest.raises(ValidationError):
        custom(("u", "u", "w"), ("1", "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


def test_custom_rejects_function_tag_as_name():
    with pytest.raises(ValidationError):
        custom(("sin", "v", "w"), ("1", "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


@pytest.mark.parametrize("name,message", [
    ("sin", "'sin' is a reserved function name"),
    ("1x", "invalid variable name '1x'"),
    (1, "invalid variable name 1"),
])
def test_custom_rejects_an_invalid_name_with_the_name_check_message(name, message):
    with pytest.raises(ValidationError) as info:
        custom((name, "v", "w"), ("1", "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    assert str(info.value) == message


def test_custom_rejects_foreign_variables_in_scale_factor():
    with pytest.raises(ValidationError):
        custom(("u", "v", "w"), ("1", "q", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


def test_custom_rejects_zero_scale_factor():
    with pytest.raises(ValidationError):
        custom(("u", "v", "w"), ("1", "u - u", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


def test_custom_rejects_scale_factor_vanishing_at_base():
    with pytest.raises(ValidationError):
        custom(("u", "v", "w"), ("1", "u", "1"), (0, 0, 0),
               ((0.5, 1), (-1, 1), (-1, 1)))


def test_custom_scale_factor_is_judged_by_its_canonical_form():
    # u*u^-1 is 1 and u^2*u^-1 is u, so at u = 0 the first is regular and
    # the second vanishes, however they are spelled.
    s = custom(("u", "v", "w"), ("1", "u*u^-1", "1"), (0, 0, 0),
               ((0.5, 1), (-1, 1), (-1, 1)))
    assert render(s.scale_factors[1]) == "1"
    with pytest.raises(ValidationError, match="h2 vanishes at the base point"):
        custom(("u", "v", "w"), ("1", "u^2*u^-1", "1"), (0, 0, 0),
               ((0.5, 1), (-1, 1), (-1, 1)))


@pytest.mark.parametrize("h,kind", [
    (1, "int"), (Fraction(1, 2), "Fraction"), (None, "NoneType"), (1.0, "float"),
])
@pytest.mark.parametrize("at", [0, 2])
def test_custom_rejects_a_scale_factor_that_is_not_text_or_a_form(h, kind, at):
    # Only text and canonical forms are scale factors; the error names the slot.
    factors = ["1", "1", "1"]
    factors[at] = h
    with pytest.raises(ValidationError) as info:
        custom(("u", "v", "w"), factors, (0, 0, 0), ((-1, 1),) * 3)
    assert str(info.value) == f"h{at + 1} must be text or a CanonicalForm, not {kind}"


def test_custom_takes_a_canonical_form_as_a_scale_factor():
    s = custom(("u", "v", "w"), (parse("1"), "1", parse("u^2 + 1")), (0, 0, 0),
               ((-1, 1),) * 3)
    assert [render(h) for h in s.scale_factors] == ["1", "1", "u^2 + 1"]


def test_custom_rejects_bad_base_point():
    with pytest.raises(ValidationError):
        custom(("u", "v", "w"), ("1", "1", "1"), (0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(ValidationError):
        custom(("u", "v", "w"), ("1", "1", "1"), ("zero", 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(ValidationError, match="base point must be rational"):
        custom(("u", "v", "w"), ("1", "1", "1"), (float("inf"), 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))


def test_custom_rejects_empty_box_interval():
    # An empty interval has no sample; an infinite bound or width would make
    # the samples of its variable nan or inf.
    inf = float("inf")
    for (lo, hi), message in [
        ((1, 1), "empty sampling interval [1.0, 1.0]"),
        ((-inf, inf), "sampling interval [-inf, inf] is not finite"),
        ((0, inf), "sampling interval [0.0, inf] is not finite"),
        ((-1e308, 1e308), "sampling interval [-1e+308, 1e+308] is not finite"),
    ]:
        with pytest.raises(ValidationError) as info:
            custom(("u", "v", "w"), ("1", "1", "1"), (0, 0, 0),
                   ((lo, hi), (-1, 1), (-1, 1)))
        assert str(info.value) == message


@pytest.mark.parametrize("base,interval,message", [
    (("1/0", 0, 0), (-1, 1), "base point must be rational: Fraction(1, 0)"),
    ((0, 0, 0), ("a", "1"), "bad sampling interval 1: could not convert string to float: 'a'"),
    ((0, 0, 0), (None, 1), "bad sampling interval 1: float() argument"),
    ((0, 0, 0), (0, 1, 2), "bad sampling interval 1: too many values to unpack"),
    ((0, 0, 0), (0, 10**5000), "bad sampling interval 1: int too large to convert to float"),
])
def test_custom_rejects_a_base_or_box_value_that_names_no_number(base, interval, message):
    with pytest.raises(ValidationError) as info:
        custom(("u", "v", "w"), ("1", "1", "1"), base, (interval, (-1, 1), (-1, 1)))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text", ["1e100000000", "-1E-100000000", " 2.5e10_001 "])
def test_custom_refuses_a_base_coordinate_whose_exponent_is_past_the_budget(text):
    # Fraction reads 1e100000000 in time that grows with the exponent.
    with pytest.raises(ValidationError) as info:
        custom(("u", "v", "w"), ("1", "1", "1"), (text, 0, 0), ((-1, 1),) * 3)
    assert str(info.value) == (
        "base point must be rational: a decimal exponent past 10000 exceeds the budget")


def test_custom_reads_a_base_coordinate_whose_exponent_is_the_budget():
    system = custom(("u", "v", "w"), ("1", "1", "1"), ("1e10000", 0, 0), ((-1, 1),) * 3)
    assert system.base_point[0] == 10 ** 10000


def test_custom_reads_base_and_box_given_as_text():
    system = custom(("u", "v", "w"), ("1", "1", "1"), ("1/2", " 0", "-3"),
                    (("-1", "1e0"), ("0", "1"), (" -2 ", "2")))
    assert system.base_point == (Fraction(1, 2), 0, -3)
    assert system.sampling_box == ((-1.0, 1.0), (0.0, 1.0), (-2.0, 2.0))


@pytest.mark.parametrize("scale_factors,box,message", [
    (("1", "1"), ((-1, 1),) * 3, "exactly three scale factors required"),
    (("1", "1", "1"), ((-1, 1),) * 2, "sampling box needs three intervals"),
])
def test_custom_needs_three_scale_factors_and_three_intervals(scale_factors, box, message):
    with pytest.raises(ValidationError, match=message):
        custom(("u", "v", "w"), scale_factors, (0, 0, 0), box)


@pytest.mark.parametrize("h", ["10^400", "10^400*u + 1", "1/10^400", "u^2 + 10^-400"])
def test_custom_scale_factor_is_judged_exactly_at_the_base_point(h):
    # Each is a nonzero rational at u = 0, but its float overflows or
    # underflows to 0.
    s = custom(("u", "v", "w"), (h, "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    assert render(s.scale_factors[0]) == render(parse(h))


@pytest.mark.parametrize("h,message", [
    ("u^-1", "h1 undefined at the base point"),
    ("ln(u)", "h1 undefined at the base point"),
    ("exp(ln(-1))", "h1 undefined at the base point"),
    ("exp(1000)*sin(u)^-1", "h1 undefined at the base point"),
    ("u + v", "h1 vanishes at the base point"),
    ("sin(u)", "h1 vanishes at the base point"),
    ("exp(-1000)*sin(u)", "h1 vanishes at the base point"),
    ("exp(-500)^2 - exp(-1000)", "h1 vanishes at the base point"),
    ("ln(1 + u)", "h1 vanishes at the base point"),
    # A factor with no value is found at any depth, before a vanishing one.
    ("ln(1 + u)*sin(ln(u - 1))", "h1 undefined at the base point"),
])
def test_custom_scale_factor_undefined_or_vanishing_at_the_base_point(h, message):
    with pytest.raises(ValidationError) as info:
        custom(("u", "v", "w"), (h, "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    assert str(info.value) == message


@pytest.mark.parametrize("h", ["exp(-1000)", "exp(-1000)*exp(-u)/3", "exp(1000)^-1",
                               "exp(1000)", "exp(-1000)*cos(u)", "exp(1000)^-1*cos(u)",
                               "exp(10^400)", "exp(1000*cos(u))"])
def test_custom_scale_factor_of_exp_atoms_never_vanishes(h):
    # Each underflows to 0.0 or overflows at u = 0, but exp has no root: a
    # one-term value is judged factor by factor, and of exp only an argument
    # that is not rational is evaluated, not the exp itself.
    s = custom(("u", "v", "w"), (h, "1", "1"), (0, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    assert render(s.scale_factors[0]) == render(parse(h))


LONG = "x" * 300


@pytest.mark.parametrize("names,h1,base,box,prefix,echoed", [
    (("_" + LONG, "v", "w"), "1", "0", "-1", "", f"invalid variable name '_{LONG}'"),
    (("u", "v", "w"), "q" + LONG, "0", "-1", "h1 references unknown variables: ", "q" + LONG),
    (("u", "v", "w"), "1", LONG, "-1", "base point must be rational: ",
     f"Invalid literal for Fraction: '{LONG}'"),
    (("u", "v", "w"), "1", "0", LONG, "bad sampling interval 1: ",
     f"could not convert string to float: '{LONG}'"),
], ids=["name", "scale-factor", "base", "box"])
def test_custom_echoes_at_most_200_characters_of_an_argument(names, h1, base, box, prefix,
                                                             echoed):
    with pytest.raises(ValidationError) as info:
        custom(names, (h1, "1", "1"), (base, 0, 0), ((box, 1), (-1, 1), (-1, 1)))
    assert str(info.value) == (
        f"{prefix}{echoed[:200]} ... ({len(echoed) - 200} more characters)")


def test_custom_base_point_past_the_float_range_is_substituted_exactly():
    # 10^400 has no float; h3 = u is the nonzero rational 10^400 there.
    s = custom(("u", "v", "w"), ("1", "1", "u"), (10**400, 0, 0),
               ((-1, 1), (-1, 1), (-1, 1)))
    assert s.base_point == (Fraction(10**400), Fraction(0), Fraction(0))
