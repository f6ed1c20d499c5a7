"""Value classes: immutable, field-wise equality and hash, pinned reprs, and an
import path that leaves dataclasses, inspect and json unloaded."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from invdel import (
    BasePoint,
    ConstructionFailed,
    CurlWeights,
    DivergenceWeights,
    NotIntegrable,
    NotSolenoidal,
    ScalarField,
    SourceError,
    SplitPair,
    ValidationError,
    VectorField,
    builtin,
    num,
    parse,
    roundtrip_report,
    sin,
    var,
)
from invdel.expr import FunctionAtom

x, y = var("x"), var("y")
CARTESIAN = builtin("cartesian")


def _report():
    return roundtrip_report("inv_div", ScalarField(parse("x"), CARTESIAN), samples=3)


# One builder per value class, so each call gives a new, equal instance.
BUILDERS = {
    "FunctionAtom": lambda: FunctionAtom("sin", parse("2*x")),
    "SplitPair": lambda: SplitPair(parse("x"), parse("y")),
    "CoordinateSystem": lambda: builtin("cylindrical"),
    "VectorField": lambda: VectorField((parse("x"), parse("y"), parse("0")), CARTESIAN),
    "ScalarField": lambda: ScalarField(parse("x*y"), CARTESIAN),
    "CurlWeights": lambda: CurlWeights(Fraction(1, 3), Fraction(1, 2)),
    "DivergenceWeights": lambda: DivergenceWeights.symmetric(),
    "BasePoint": lambda: BasePoint(1, 2, 3),
    "VerificationReport": _report,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = BUILDERS[name]()
    field = type(value).__slots__[0]
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.not_a_field = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_fields_give_equal_values_and_hashes(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert type(first).__name__ == name
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != object()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_copy_and_pickle_give_equal_values(name):
    value = BUILDERS[name]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_constructor_values_copy_and_pickle_to_equal_forms():
    for value in (num(3, 4), x * y + 1, sin(x) ** -2, num(0)):
        hash(value)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("error", [
    NotIntegrable(parse("x*sin(x)"), "x"),
    NotSolenoidal(parse("1")),
    ConstructionFailed(VectorField((parse("x"), parse("0"), parse("y")), CARTESIAN)),
    SourceError(3, "an expression", "')'"),
    ValidationError("bad weight"),
])
def test_errors_copy_and_pickle_with_their_message_and_fields(error):
    # The errors that carry fields take them, not their message, in __init__.
    for twin in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is type(error)
        assert (str(twin), twin.args, vars(twin)) == (str(error), error.args, vars(error))


def test_pickled_form_is_equal_in_a_process_with_other_string_hashes():
    # The pickle carries no cached hash, which depends on the hash seed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import pickle, sys; from invdel import parse; f = parse('x*y + sin(z)'); "
            "hash(f); sys.stdout.buffer.write(pickle.dumps(f))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1"))
    assert done.returncode == 0, done.stderr
    loaded = pickle.loads(done.stdout)
    assert loaded == parse("x*y + sin(z)") and loaded in {parse("sin(z) + y*x")}


def test_different_fields_or_classes_are_unequal():
    assert x + y != x * y
    assert x - y != y - x
    assert CurlWeights(1, 2) != CurlWeights(2, 1)
    assert BasePoint(0, 0, 0) != BasePoint(0, 0, 0, 1)
    assert ScalarField(parse("1"), CARTESIAN) != ScalarField(parse("1"), builtin("spherical"))
    assert VectorField((parse("0"), parse("0"), parse("z")), CARTESIAN) != \
        VectorField((parse("0"), parse("0"), parse("z")), builtin("cylindrical"))


def test_function_atom_equality_ignores_its_key():
    first = FunctionAtom("cos", parse("x + 1"))
    second = FunctionAtom("cos", parse("1 + x"))
    assert first.key == second.key and first.key is not second.key
    assert first == second and hash(first) == hash(second)
    assert first != FunctionAtom("sin", parse("x + 1"))
    assert first != "cos"
    assert "key" not in repr(first)


def test_defaults():
    assert BasePoint(1, 2, 3).c0 == 0
    assert CurlWeights(1, 2).w_plus == Fraction(1)


@pytest.mark.parametrize("value,expected", [
    (num(3, 4), "CanonicalForm({(): (3, 4)})"),
    (x + 1, "CanonicalForm({(('x', 1),): (1, 1), (): (1, 1)})"),
    (2 * x, "CanonicalForm({(('x', 1),): (2, 1)})"),
    (x ** 3, "CanonicalForm({(('x', 3),): (1, 1)})"),
    (sin(x), "CanonicalForm({((FunctionAtom(tag='sin', argument=CanonicalForm("
     "{(('x', 1),): (1, 1)})), 1),): (1, 1)})"),
    (-x, "CanonicalForm({(('x', 1),): (-1, 1)})"),
    (FunctionAtom("sin", parse("2*x")),
     "FunctionAtom(tag='sin', argument=CanonicalForm({(('x', 1),): (2, 1)}))"),
    (parse("3*x^2*sin(y)").terms[0],
     "(((FunctionAtom(tag='sin', argument=CanonicalForm({(('y', 1),): (1, 1)})), 1), "
     "('x', 2)), (3, 1))"),
    (SplitPair(parse("x"), parse("0")),
     "SplitPair(plus_part=CanonicalForm({(('x', 1),): (1, 1)}), "
     "minus_part=CanonicalForm({}))"),
    (CurlWeights(Fraction(1, 3), Fraction(1, 2)),
     "CurlWeights(w_plus=Fraction(1, 3), w_minus=Fraction(1, 2))"),
    (DivergenceWeights.symmetric(),
     "DivergenceWeights(k1=Fraction(1, 3), k2=Fraction(1, 3), k3=Fraction(1, 3))"),
    (BasePoint(1, 2, 3),
     "BasePoint(a=Fraction(1, 1), b=Fraction(2, 1), c=Fraction(3, 1), c0=Fraction(0, 1))"),
    (builtin("cartesian"),
     "CoordinateSystem(names=('x', 'y', 'z'), scale_factors=("
     + ", ".join(["CanonicalForm({(): (1, 1)})"] * 3)
     + "), base_point=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
     "sampling_box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)), label='cartesian')"),
    (ScalarField(parse("x"), CARTESIAN),
     "ScalarField(value=CanonicalForm({(('x', 1),): (1, 1)}), system="
     + repr(CARTESIAN) + ")"),
    (VectorField((parse("x"), parse("0"), parse("0")), CARTESIAN),
     "VectorField(components=(CanonicalForm({(('x', 1),): (1, 1)}), "
     "CanonicalForm({}), CanonicalForm({})), system=" + repr(CARTESIAN) + ")"),
])
def test_repr_is_pinned(value, expected):
    assert repr(value) == expected


def test_report_repr_is_pinned():
    assert repr(_report()) == (
        "VerificationReport(kind='inv_div', symbolic_equal=True, "
        "residual=CanonicalForm({}), sample_count=3, max_abs_error=0.0, "
        "max_rel_error=0.0, rng_seed=42, sampling_box=((-2.0, 2.0), (-2.0, 2.0), "
        "(-2.0, 2.0)), resample_count=0, within_tolerance=True)")


def test_cli_import_leaves_dataclasses_inspect_and_json_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, invdel.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The README examples that the cold-start benchmark runs, and a forward one.
COLD_RUNS = (
    ("inv-curl", "x*y*z + y^2", "x*z + y", "-z - y*z^2/2"),
    ("inv-grad", "--base", "0,0,0", "2*x*y", "x^2", "1"),
    ("inv-div", "4*rho", "--coords", "cylindrical", "--weights", "1,0,0", "--verify"),
    ("verify", "inv-div", "3"),
    ("grad", "x*y"),
)
# Runs the process entry on the argv after it, then names what it loaded.
ENTRY_RUN = ("import sys; sys.argv = ['invdel', *sys.argv[1:]]; import invdel.cli; "
             "code = invdel.cli.run(); "
             "print(code, sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")


def _entry_run(argv) -> list:
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", ENTRY_RUN, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.stderr == ""
    return done.stdout.splitlines()


@pytest.mark.parametrize("argv", COLD_RUNS, ids=lambda argv: argv[0])
def test_a_cold_readme_run_leaves_fractions_decimal_and_numbers_unloaded(argv):
    assert _entry_run(argv)[-1] == "0 []"


def test_systems_built_apart_compare_equal_without_fractions():
    # The report and the gauge shift each compare the two systems, which are
    # equal but not the same object.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "from invdel import ScalarField, custom, gauge_shift_curl, inverse_divergence, "
        "parse, roundtrip_report\n"
        "args = (('u', 'v', 'w'), ('1', 'u', '1'), (1, 0, 0), ((0.5, 2), (-1, 1), (-1, 1)))\n"
        "s, t = custom(*args), custom(*args)\n"
        "f = ScalarField(parse('u*v'), s)\n"
        "A = inverse_divergence(ScalarField(parse('u*v'), t))\n"
        "report = roundtrip_report('inv_div', f, result=A, samples=5, seed=1)\n"
        "gauge_shift_curl(A, f)\n"
        "print(s is not t, s == t, hash(s) == hash(t), report.symbolic_equal, "
        "sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (done.stdout, done.stderr) == ("True True True True []\n", "")


def test_a_decimal_weight_is_read_through_fractions_with_the_same_output():
    assert _entry_run(("inv-div", "x", "--weights", "0.5,0.25,0.25")) == [
        "e1: x^2/4", "e2: x*y/4", "e3: x*z/4", "0 ['decimal', 'fractions', 'numbers']"]
