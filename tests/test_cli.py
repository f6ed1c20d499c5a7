"""End-to-end command-line tests driven through main()."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import invdel
import invdel.cli
import invdel.inverse
from invdel import VectorField, equals, parse, render
from invdel.cli import main
from invdel.expr import ZERO_FORM

GOLDEN_B = ["x*y*z + y^2", "x*z + y", "-z - y*z^2/2"]
GOLDEN_A = [
    "x*z^2/4 + y^2*z^2/12 + 2*y*z/3",
    "-x*y*z^2/3 - x*z/3 - y^2*z/2",
    "-x^2*z/4 + x*y^2*z/6 - x*y/3 + y^3/6",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inverse_curl_of_golden_field(capsys):
    code, out, err = run(capsys, "inv-curl", *GOLDEN_B)
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines == [f"e{i}: {text}" for i, text in enumerate(GOLDEN_A, start=1)]


def test_inverse_curl_with_verification(capsys):
    code, out, _ = run(capsys, "inv-curl", *GOLDEN_B, "--verify")
    assert code == 0
    verify_line = out.strip().splitlines()[-1]
    assert verify_line.startswith("verify: symbolic_equal=True within_tolerance=True")


def test_nonsolenoidal_input_exits_3(capsys):
    code, out, err = run(capsys, "inv-curl", "x", "0", "0")
    assert code == 3
    assert out == ""
    assert "NotSolenoidal" in err


def test_inverse_gradient_with_base(capsys):
    code, out, _ = run(capsys, "inv-grad", "--base", "0,0,0", "2*x*y", "x^2", "1")
    assert code == 0
    assert out.strip() == "phi: x^2*y + z"


def test_nonconservative_input_exits_3(capsys):
    code, _, err = run(capsys, "inv-grad", "--base", "0,0,0", "--", "-y", "x", "0")
    assert code == 3
    assert "NotConservative" in err


def test_not_integrable_exits_4(capsys):
    code, _, err = run(capsys, "inv-div", "theta", "--coords", "spherical")
    assert code == 4
    assert "NotIntegrable" in err


def test_weighted_inverse_divergence_avoids_blocked_component(capsys):
    code, out, _ = run(capsys, "inv-div", "theta", "--coords", "spherical",
                       "--weights", "1,0,0")
    assert code == 0
    assert out.strip().splitlines()[0] == "e1: r*theta/3"


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "inv-curl", "x +", "0", "0")
    assert code == 2
    assert "SourceError" in err


@pytest.mark.parametrize("argv,expected", [
    (["inv-div", "(", "--weights", "junk"], (2, "error: SourceError: at offset 1: "
                                             "expected an expression, found end of input")),
    (["inv-grad", "--base", "junk", "--", "(", "0", "0"],
     (2, "error: SourceError: at offset 1: expected an expression, found end of input")),
    (["inv-div", "x^-1*sin(x)", "--gauge-vector", "a,b"],
     (4, "error: NotIntegrable: term sin(x)*x^-1 has no antiderivative in x within "
         "the supported class")),
])
def test_a_malformed_option_is_read_after_the_field_or_the_construction(capsys, argv,
                                                                       expected):
    # The field is parsed before --weights and --base, and --gauge-vector is
    # read after the construction.
    code, message = expected
    assert run(capsys, *argv) == (code, "", message + "\n")


def test_the_operators_are_looked_up_when_a_command_runs(capsys, monkeypatch):
    # A tracer rebinds the names cli imported; the runner must call through them.
    calls = []
    original = invdel.cli.inverse_gradient

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(invdel.cli, "inverse_gradient", spy)
    assert run(capsys, "inv-grad", "2*x*y", "x^2", "1") == (0, "phi: x^2*y + z\n", "")
    assert len(calls) == 1


def test_bad_weights_exit_2(capsys):
    code, _, err = run(capsys, "inv-div", "3", "--weights", "1,1")
    assert code == 2
    assert "ValidationError" in err


def test_json_payload_schema(capsys):
    code, out, _ = run(capsys, "inv-curl", *GOLDEN_B, "--format", "json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "command", "coords", "input", "result", "verification", "error"}
    assert payload["command"] == "inv-curl"
    assert payload["coords"] == "cartesian"
    assert payload["result"] == GOLDEN_A
    assert payload["error"] is None
    assert payload["verification"]["symbolic_equal"] is True
    assert payload["verification"]["within_tolerance"] is True


def test_json_error_payload(capsys):
    code, out, _ = run(capsys, "inv-curl", "x", "0", "0", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["result"] is None
    assert payload["error"].startswith("NotSolenoidal")


def test_json_output_is_deterministic(capsys):
    args = ("inv-curl", *GOLDEN_B, "--format", "json", "--verify", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_forward_commands(capsys):
    code, out, _ = run(capsys, "curl", *GOLDEN_A)
    assert code == 0
    got = [line.split(": ", 1)[1] for line in out.strip().splitlines()]
    for text, want in zip(got, GOLDEN_B):
        assert equals(parse(text), parse(want))

    code, out, _ = run(capsys, "div", "x", "y", "z")
    assert code == 0
    assert out.strip() == "phi: 3"

    code, out, _ = run(capsys, "grad", "r^2", "--coords", "spherical")
    assert code == 0
    assert out.strip().splitlines()[0] == "e1: 2*r"


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "inv-curl", *GOLDEN_B)
    assert code == 0
    assert "verify: symbolic_equal=True" in out

    code, out, _ = run(capsys, "verify", "inv-div", "3")
    assert code == 0

    code, out, _ = run(capsys, "verify", "inv-grad", "2*x*y", "x^2", "1",
                       "--base", "0,0,0")
    assert code == 0


def test_verify_arity_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "verify", "inv-div", "3", "4")
    assert code == 2
    assert "ValidationError" in err


def test_gauge_scalar_flag(capsys):
    code, out, _ = run(capsys, "inv-curl", *GOLDEN_B, "--gauge-scalar", "x*y*z",
                       "--verify")
    assert code == 0
    assert "symbolic_equal=True" in out


def test_gauge_vector_flag(capsys):
    code, out, _ = run(capsys, "inv-div", "3", "--gauge-vector", "y*z,0,0",
                       "--verify")
    assert code == 0
    assert "symbolic_equal=True" in out


@pytest.mark.parametrize("argv,message", [
    (("inv-div", "3", "--weights="),
     "ValidationError: weight needs three comma-separated values"),
    (("verify", "inv-div", "3", "--weights="),
     "ValidationError: weight needs three comma-separated values"),
    (("inv-div", "3", "--gauge-vector="),
     "ValidationError: --gauge-vector needs three comma-separated expressions"),
    (("inv-curl", *GOLDEN_B, "--gauge-scalar="),
     "SourceError: at offset 0: expected an expression, found end of input"),
    (("inv-grad", "2*x*y", "x^2", "1", "--base="),
     "ValidationError: base coordinate needs three comma-separated values"),
])
def test_an_empty_option_value_is_a_usage_error(capsys, argv, message):
    # An empty value is malformed, not absent: none falls back to a default.
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unchecked_flag_reports_residual(capsys):
    code, out, _ = run(capsys, "inv-curl", "x", "0", "0", "--unchecked")
    assert code == 0
    assert "residual: 1" in out


def test_coords_file(tmp_path, capsys):
    path = tmp_path / "shifted.coords"
    path.write_text(
        "# cartesian under different names\n"
        "names = u, v, w\n"
        "h1 = 1\n"
        "h2 = 1\n"
        "h3 = 1\n"
        "base = 0, 0, 0\n"
        "box = -2:2, -2:2, -2:2\n")
    code, out, _ = run(capsys, "div", "u", "v", "w", "--coords-file", str(path))
    assert code == 0
    assert out.strip() == "phi: 3"


def test_coords_file_with_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.coords"
    path.write_text("names = u, v, w\nh1 = 1\n")
    code, _, err = run(capsys, "div", "u", "v", "w", "--coords-file", str(path))
    assert code == 2
    assert "missing keys" in err


COORDS_FILE = "names = u, v, w\nh1 = {h1}\nh2 = 1\nh3 = 1\nbase = {base}\nbox = {box}\n"


@pytest.mark.parametrize("h1,base,box,message", [
    ("1", "x, 0, 0", "-2:2, -2:2, -2:2",
     "base point must be rational: Invalid literal for Fraction: 'x'"),
    ("1", "1/0, 0, 0", "-2:2, -2:2, -2:2", "base point must be rational: Fraction(1, 0)"),
    ("1", "0, 0, 0", "0:x, -2:2, -2:2",
     "bad sampling interval 1: could not convert string to float: 'x'"),
    ("1", "0, 0, 0", "0, -2:2, -2:2", "box intervals use the form lo:hi"),
    # Every value is read by CoordinateSystem, which checks h before base.
    ("q", "x, 0, 0", "-2:2, -2:2, -2:2", "h1 references unknown variables: q"),
])
def test_coords_file_value_that_names_no_number_exits_2(tmp_path, capsys, h1, base, box,
                                                       message):
    path = tmp_path / "bad.coords"
    path.write_text(COORDS_FILE.format(h1=h1, base=base, box=box))
    assert run(capsys, "div", "u", "v", "w", "--coords-file", str(path)) == (
        2, "", f"error: ValidationError: {message}\n")


def test_coords_file_that_cannot_be_read_or_has_no_key_exits_2(tmp_path, capsys):
    path = tmp_path / "nokey.coords"
    path.write_text("# a comment\n\nnames u, v, w\n")
    assert run(capsys, "div", "u", "v", "w", "--coords-file", str(path)) == (
        2, "", f"error: ValidationError: {path}:3: expected 'key = value'\n")
    code, out, err = run(capsys, "div", "u", "v", "w", "--coords-file", str(tmp_path / "none"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: cannot read coordinate file: ")


@pytest.mark.parametrize("argv,message", [
    (("inv-div", "x", "--weights", "1/0,0,1"), "bad weight '1/0': Fraction(1, 0)"),
    (("inv-grad", "--base", "a,0,0", "--", "0", "0", "z"),
     "bad base coordinate 'a': Invalid literal for Fraction: 'a'"),
    (("inv-grad", "--c0", "q", "--", "0", "0", "z"),
     "bad constant 'q': Invalid literal for Fraction: 'q'"),
    (("inv-div", "x", "--weights", "1,1,1"), "divergence weights must sum to 1, got 1 + 1 + 1"),
])
def test_a_value_the_cli_cannot_read_is_named_in_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: ValidationError: {message}\n")


@pytest.mark.parametrize("command", [("inv-div",), ("verify", "inv-div")])
def test_weights_past_the_digit_limit_exit_2_in_one_line(capsys, command):
    code, out, err = run(capsys, *command, "x", "--weights=1e5000,0,0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: divergence weights must sum to 1, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("inv-div", "x", "--weights", "1e100000000,0,0"),
    ("inv-grad", "--base", "0,1e-100000000,0", "--", "0", "0", "1"),
])
def test_a_decimal_exponent_past_the_budget_exits_2_at_once(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(": a decimal exponent past 10000 exceeds the budget\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,code", [(("--help",), 0), (("inv-div",), 2)])
def test_argument_parser_exit_is_returned(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_the_readme_exit_table_is_each_error_types_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| (\d) \| (.*) \|$", readme, flags=re.M)
    named = {name: int(code) for code, meaning in table
             for name in re.findall(r"`(\w+)`", meaning)}
    assert sorted(named) == sorted([
        "SourceError", "ValidationError", "UnknownSystem", "NotSolenoidal", "NotConservative",
        "NotIntegrable", "UnsupportedExpression", "ConstructionFailed"])
    for name, code in named.items():
        assert getattr(invdel, name).exit_code == code, name
    for name in ("InvdelError", "DomainError", "UnboundVariable", "BasePointSingular",
                 "SamplingExhausted"):
        assert getattr(invdel, name).exit_code == 1, name


@pytest.mark.parametrize("command", ["curl", "inv-curl"])
def test_deep_nesting_exits_2_without_a_traceback(command):
    deep = "(" * 2000 + "x" + ")" * 2000
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "invdel.cli", command, deep, "0", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "SourceError: at offset 100" in done.stderr


def run_cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "invdel.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv,offset", [
    (["inv-div", "²"], 0),
    (["curl", "x^²", "0", "0"], 2),
    (["inv-div", "x + ٣"], 4),
])
def test_non_ascii_digits_exit_2_without_a_traceback(argv, offset):
    done = run_cli(*argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert f"SourceError: at offset {offset}: expected a token" in done.stderr


EXHAUSTED = ("error: SamplingExhausted: more than 1000 sample points fell outside "
             "the domain\n")


def test_coefficient_beyond_the_float_range_exits_1_without_a_traceback():
    # A form with such a coefficient has no float value at any point, so
    # every point drawn for it is resampled until the sampling gives up.
    done = run_cli("verify", "inv-div", "7" * 400 + "*x")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == EXHAUSTED


def test_coefficient_overflow_inside_a_function_is_resampled_per_point():
    # The inverse and the symbolic check succeed; the input's plan has a
    # coefficient past the float range inside exp, so no point has a value.
    done = run_cli("verify", "inv-div", "exp(10^400)")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == EXHAUSTED
    done = run_cli("inv-div", "exp(10^400)")
    big = "exp(1" + "0" * 400 + ")"
    assert (done.returncode, done.stdout) == (
        0, f"e1: {big}*x/3\ne2: {big}*y/3\ne3: {big}*z/3\n")


@pytest.mark.parametrize("text,resamples", [
    # The first sum is inf - inf where y is large, the second overflows.
    ("exp(300*y)*exp(301*y) - exp(300*y)*exp(302*y)", 26),
    ("10^308*y + 10^308*z", 34),
])
def test_sum_outside_the_float_range_is_resampled_without_a_traceback(text, resamples):
    done = run_cli("verify", "inv-div", text, "--weights", "1,0,0")
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[-1] == (
        "verify: symbolic_equal=True within_tolerance=True samples=100 seed=42 "
        f"max_abs_error=0.0 max_rel_error=0.0 resamples={resamples}")


def test_sampling_gives_up_past_ten_times_the_sample_count(capsys):
    # Of x in the box [-2, 2], one point in eight is above 3/2 and one in
    # twenty above 9/5: the first takes 689 resamples for 100 samples, within
    # ten times the sample count, and the second would take more.
    code, out, err = run(capsys, "verify", "inv-div", "ln(x - 3/2)", "--weights", "0,1,0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(" seed=42 max_abs_error=0.0 max_rel_error=0.0 "
                                         "resamples=689")
    assert run(capsys, "verify", "inv-div", "ln(x - 9/5)", "--weights", "0,1,0") == (
        1, "", EXHAUSTED)


def test_expansion_past_the_budget_exits_4_promptly():
    started = time.monotonic()
    done = run_cli("grad", "(x+y+z+1)^60")
    assert time.monotonic() - started < 5
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert "exceeds the budget of 100000 term pairs" in done.stderr


@pytest.mark.parametrize("argv,offset", [
    (["inv-div", "7" * 5000 + "*x"], 0),
    (["curl", "x^" + "7" * 5000, "0", "0"], 2),
])
def test_integer_past_the_digit_limit_exits_2_without_a_traceback(argv, offset):
    done = run_cli(*argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == (
        f"error: SourceError: at offset {offset}: expected an integer within the "
        "interpreter's digit limit, found a 5000-digit integer\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficient_past_the_digit_limit_exits_4_without_a_traceback(fmt):
    done = run_cli("grad", "--format", fmt, "(2*x)^20000")
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    error = ("UnsupportedExpression: rendering a number of about 6026 digits "
             "exceeds the interpreter's digit limit")
    if fmt == "json":
        assert json.loads(done.stdout)["error"] == error
    else:
        assert done.stderr == f"error: {error}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_refusal_past_the_digit_limit_exits_4_as_not_integrable(fmt):
    done = run_cli("inv-div", "--format", fmt, "2^20000*x*sin(x)")
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    error = ("NotIntegrable: term with a number of about 6021 digits has no "
             "antiderivative in x within the supported class")
    if fmt == "json":
        assert json.loads(done.stdout)["error"] == error
    else:
        assert done.stderr == f"error: {error}\n"


@pytest.mark.parametrize("text", ["x + q - q", "x + 0*q", "x*q^0"])
def test_foreign_variable_that_cancels_is_accepted(capsys, text):
    # Fields are checked on the parsed canonical form, in which q is gone.
    code, out, err = run(capsys, "grad", text)
    assert (code, out, err) == (0, "e1: 1\ne2: 0\ne3: 0\n", "")


@pytest.mark.parametrize("command", ["grad", "inv-div"])
@pytest.mark.parametrize("text", ["3^10000000", "x*(7/3)^3000000"])
def test_coefficient_power_past_the_budget_exits_4_promptly(command, text):
    started = time.monotonic()
    done = run_cli(command, text)
    assert time.monotonic() - started < 1
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: UnsupportedExpression: a coefficient power of "
                           "more than 10000 digits exceeds the budget\n")


def test_coefficient_product_past_the_budget_exits_4_promptly():
    # The power of a sum is multiplied out; its coefficient products are
    # estimated before they are formed.
    started = time.monotonic()
    done = run_cli("grad", "(2^9000*x + 1)^300")
    assert time.monotonic() - started < 1
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: UnsupportedExpression: a coefficient product of "
                           "more than 10000 digits exceeds the budget\n")


def test_coefficient_chain_past_the_budget_exits_4_promptly():
    # The coefficients of single-term factors are estimated one product at a
    # time: the third factor (7/3)^4000 would take the product past the budget.
    started = time.monotonic()
    done = run_cli("grad", "*".join(["(7/3)^4000"] * 300))
    assert time.monotonic() - started < 1
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: UnsupportedExpression: a coefficient product of "
                           "more than 10000 digits exceeds the budget\n")


def test_construction_failure_exits_5(capsys, monkeypatch):
    def no_potential(B, *args, **kwargs):
        return VectorField((ZERO_FORM,) * 3, B.system)

    monkeypatch.setattr(invdel.inverse, "curl_potential_formula", no_potential)
    code, out, err = run(capsys, "inv-curl", "y", "z", "x")
    assert (code, out) == (5, "")
    assert err == ("error: ConstructionFailed: curl of the constructed potential does "
                   "not reproduce the input; residual (-y, -z, -x)\n")


@pytest.mark.parametrize("argv,residual", [
    (["--", *GOLDEN_B], "(x, -y, 0)"),
    (["--coords", "cylindrical", "--", "0", "0", "1"], "(1, -phi, 0)"),
    (["--coords", "spherical", "--", "0", "0", "r^-1"],
     "(cos(theta)*sin(theta)^-1*theta + 1, -2*theta, 0)"),
    (["--coords-file", "NON_UNIT", "--", "0", "0", "u"], "(2/3, -v, 0)"),
])
def test_a_perturbed_potential_fails_the_self_check(tmp_path, capsys, monkeypatch,
                                                     argv, residual):
    # The self-check compares numerators; a failure still reports the full
    # residual curl(A) - B.  The potential gains u1*u2 in its third component.
    formula = invdel.inverse.curl_potential_formula

    def perturbed(B, *args, **kwargs):
        e1, e2, e3 = formula(B, *args, **kwargs).components
        u1, u2, _ = B.system.names
        return VectorField((e1, e2, e3 + parse(f"{u1}*{u2}")), B.system)

    monkeypatch.setattr(invdel.inverse, "curl_potential_formula", perturbed)
    path = tmp_path / "non_unit.coords"
    path.write_text(NON_UNIT_COORDS)
    argv = [str(path) if a == "NON_UNIT" else a for a in argv]
    code, out, err = run(capsys, "inv-curl", *argv)
    assert (code, out) == (5, "")
    assert err == ("error: ConstructionFailed: curl of the constructed potential does "
                   f"not reproduce the input; residual {residual}\n")


NON_UNIT_COORDS = ("names = u, v, w\nh1 = 2\nh2 = 3*u\nh3 = u*v\nbase = 1, 1, 0\n"
                   "box = 0.5:2, 0.5:2, -2:2\n")
MULTI_TERM_COORDS = ("names = u, v, w\nh1 = 1 + u^2\nh2 = 1\nh3 = 1\nbase = 0, 0, 0\n"
                     "box = -2:2, -2:2, -2:2\n")


@pytest.mark.parametrize("argv", [
    ["inv-curl", "--", "0", "0", "0"],
    ["inv-curl", "--", "0", "0", "v*sin(v^2)"],
    ["inv-grad", "--", "0", "0", "0"],
    ["inv-grad", "--", "0", "0", "w"],
])
def test_multi_term_scale_factor_is_unsupported_before_anything_else(tmp_path, capsys, argv):
    # The gates form 1/(h1*h2*h3) and 1/(h_j*h_k) before the construction
    # runs, which alone would refuse v*sin(v^2) or integrate w.
    path = tmp_path / "multi_term.coords"
    path.write_text(MULTI_TERM_COORDS)
    assert run(capsys, *argv[:1], "--coords-file", str(path), *argv[1:]) == (
        4, "", "error: UnsupportedExpression: reciprocal of a multi-term expression "
        "is outside the term algebra\n")


def test_unchecked_inverse_gradient_reports_residual(capsys):
    code, out, err = run(capsys, "inv-grad", "--unchecked", "--", "-y", "x", "0")
    assert (code, out, err) == (0, "phi: -x*y\nresidual: (0, 0, 2)\n", "")
    code, out, _ = run(capsys, "inv-grad", "--unchecked", "--format", "json",
                       "--", "-y", "x", "0")
    payload = json.loads(out)
    assert code == 0
    assert (payload["result"], payload["residual"]) == (["-x*y"], ["0", "0", "2"])


def test_constant_without_base_starts_at_the_default_base_point(capsys):
    code, out, err = run(capsys, "inv-grad", "--c0", "5", "2*x*y", "x^2", "1")
    assert (code, out, err) == (0, "phi: x^2*y + z + 5\n", "")


SINGULAR = ("error: BasePointSingular: base point substitution: "
            "reciprocal of a vanishing factor\n")


@pytest.mark.parametrize("argv,expected", [
    (["--", "0", "0", "exp(0)^-1"], (0, "phi: exp(0)^-1*z\n", "")),
    (["--", "0", "0", "exp(1000)^-1"], (0, "phi: exp(1000)^-1*z\n", "")),
    (["--", "0", "0", "cos(x-x)^-1"], (0, "phi: cos(0)^-1*z\n", "")),
    (["--", "0", "0", "sin(exp(700)*exp(701))^-1"],
     (0, "phi: sin(exp(700)*exp(701))^-1*z\n", "")),
    (["--", "0", "0", "ln(1)^-1"], (1, "", SINGULAR)),
    (["--verify", "--", "0", "0", "ln(1)^-1"], (1, "", SINGULAR)),
    (["--", "0", "0", "sin(0)^-1"], (1, "", SINGULAR)),
    (["--", "0", "0", "sin(sin(0))*z"], (0, "phi: sin(sin(0))*z^2/2\n", "")),
    (["--", "0", "0", "sin(sin(0))^-1"], (1, "", SINGULAR)),
    (["--", "0", "0", "ln(exp(1000))*z"],
     (1, "", "error: BasePointSingular: base point substitution: exp overflow\n")),
    (["--", "0", "0", "ln(sin(0))*z"],
     (1, "", "error: BasePointSingular: base point substitution: "
      "ln of non-positive value 0.0\n")),
])
def test_constant_factor_with_a_negative_power_is_refused_by_its_value(capsys, argv, expected):
    # The factor's value is tested, not its argument's: exp(0) and cos(0) are
    # 1, ln(1) and sin(0) are 0.  exp, which never vanishes, is not evaluated,
    # so exp(1000) does not overflow; sin of an argument that overflows a
    # float has no value to test and is kept.
    assert run(capsys, "inv-grad", *argv) == expected


def _phi(source):
    return (0, f"phi: {render(parse(source))}\n", "")


@pytest.mark.parametrize("argv,expected", [
    (["--", "0", "0", "sin(1/10^400)^-1"], _phi("sin(1/10^400)^-1*z")),
    (["--", "0", "0", "ln(1/10^400)*z"], _phi("ln(1/10^400)*z^2/2")),
    (["--", "0", "0", "ln(10^400)*z"], _phi("ln(10^400)*z^2/2")),
    (["--", "0", "0", "exp(10^400)*z"], _phi("exp(10^400)*z^2/2")),
    (["--", "0", "0", "cos(10^400)^-1"], _phi("cos(10^400)^-1*z")),
    (["--", "0", "0", "sin(0)^-1"], (1, "", SINGULAR)),
    (["--", "0", "0", "ln(1)^-1"], (1, "", SINGULAR)),
    (["--", "0", "0", "ln(-1)*z"], (1, "", "error: BasePointSingular: base point "
                                    "substitution: ln of non-positive value -1.0\n")),
    (["--", "0", "0", "ln(0)*z"], (1, "", "error: BasePointSingular: base point "
                                   "substitution: ln of non-positive value 0.0\n")),
    (["--", "0", "0", "ln(-10^400)*z"], (1, "", "error: BasePointSingular: base point "
                                         "substitution: coefficient overflow\n")),
])
def test_rational_function_argument_is_decided_exactly(capsys, argv, expected):
    # A float would read 1/10^400 as 0 and 10^400 as an overflow.  A rational
    # argument is decided exactly: sin vanishes only at 0, ln only at 1 and
    # is defined only above 0, and cos and exp never vanish.
    assert run(capsys, "inv-grad", *argv) == expected


def test_sine_of_an_infinite_value_is_a_domain_error(tmp_path, capsys):
    # exp(700)*exp(701) overflows to inf, and sin(inf) has no value: every
    # sample point is outside the domain, and so is the base point.
    assert run(capsys, "verify", "inv-div", "sin(exp(700)*exp(701))") == (
        1, "", "error: SamplingExhausted: more than 1000 sample points fell outside "
        "the domain\n")
    path = tmp_path / "infinite.coords"
    path.write_text("names = u, v, w\nh1 = sin(exp(700)*exp(701))\nh2 = 1\nh3 = 1\n"
                    "base = 0, 0, 0\nbox = -2:2, -2:2, -2:2\n")
    assert run(capsys, "div", "u", "v", "w", "--coords-file", str(path)) == (
        2, "", "error: ValidationError: h1 undefined at the base point\n")


@pytest.mark.parametrize("argv", [
    ["inv-curl", "--unchecked", "--verify", "--", "exp(700)*exp(701)*sin(1/10^400)*x", "0", "0"],
    ["verify", "inv-div", "exp(700)*exp(701)*sin(1/10^400)"],
])
def test_a_residual_that_reads_nan_is_outside_the_domain(capsys, argv):
    # exp(700)*exp(701) is inf and sin(1/10^400) is sin(0.0) in floats: the
    # product is nan without raising.  nan passes every tolerance, so before
    # the sampler flagged it these reported within_tolerance=True.
    assert run(capsys, *argv) == (1, "", EXHAUSTED)


@pytest.mark.parametrize("kind,args", [
    ("inv-curl", GOLDEN_B),
    ("inv-div", ["4*rho", "--coords", "cylindrical", "--weights", "1,0,0"]),
    ("inv-grad", ["2*x*y", "x^2", "1", "--base", "1,0,0", "--c0", "5", "--samples", "7"]),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_matches_the_inverse_command_with_verify(capsys, kind, args, fmt):
    via_verify = run(capsys, "verify", kind, *args, "--format", fmt)
    direct = run(capsys, kind, *args, "--format", fmt, "--verify")
    assert via_verify[0] == 0 and via_verify[2] == ""
    if fmt == "text":
        assert via_verify == direct
    else:
        assert json.loads(via_verify[1]) == dict(json.loads(direct[1]), command="verify")


@pytest.mark.parametrize("kind,args,foreign", [
    ("inv-curl", GOLDEN_B, ["--weights", "junk"]),
    ("inv-grad", ["2*x*y", "x^2", "1"], ["--weights", "junk"]),
    ("inv-div", ["3"], ["--base", "junk", "--c0", "q"]),
])
def test_verify_ignores_the_options_of_another_kind(capsys, kind, args, foreign):
    plain = run(capsys, "verify", kind, *args)
    assert plain[0] == 0
    assert run(capsys, "verify", kind, *args, *foreign) == plain


@pytest.mark.parametrize("argv,message", [
    (["inv-div", "3", "4"], "verify inv-div takes one scalar expression"),
    (["inv-curl", "x", "y"], "verify inv-curl takes three component expressions"),
    (["inv-grad", "x"], "verify inv-grad takes three component expressions"),
])
def test_verify_arity_messages(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: ValidationError: {message}\n")


# The full JSON output of two commands, as pinned before the report's
# fields were listed once: key order, nesting and number spelling.
VERIFY_INV_DIV_JSON = """{
  "command": "verify",
  "coords": "cartesian",
  "input": [
    "3"
  ],
  "result": [
    "x",
    "y",
    "z"
  ],
  "verification": {
    "kind": "inv_div",
    "symbolic_equal": true,
    "residual": [
      "0"
    ],
    "sample_count": 100,
    "max_abs_error": 0.0,
    "max_rel_error": 0.0,
    "rng_seed": 42,
    "sampling_box": [
      [
        -2.0,
        2.0
      ],
      [
        -2.0,
        2.0
      ],
      [
        -2.0,
        2.0
      ]
    ],
    "resample_count": 0,
    "within_tolerance": true
  },
  "error": null
}
"""
UNCHECKED_INV_CURL_JSON = """{
  "command": "inv-curl",
  "coords": "cartesian",
  "input": [
    "x",
    "0",
    "0"
  ],
  "result": [
    "0",
    "-x*z/3",
    "x*y/3"
  ],
  "verification": null,
  "error": null,
  "residual": "1"
}
"""


@pytest.mark.parametrize("argv,expected", [
    (["verify", "inv-div", "3", "--format", "json"], VERIFY_INV_DIV_JSON),
    (["inv-curl", "--unchecked", "--format", "json", "x", "0", "0"],
     UNCHECKED_INV_CURL_JSON),
])
def test_json_output_is_pinned(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


def test_coords_file_with_a_huge_rational_scale_factor(tmp_path, capsys):
    # h1 = 10^400 overflows a float, but is a nonzero rational at the base.
    path = tmp_path / "huge.coords"
    path.write_text("names = u, v, w\nh1 = 10^400\nh2 = 1\nh3 = 1\nbase = 0, 0, 0\n"
                    "box = -2:2, -2:2, -2:2\n")
    assert run(capsys, "inv-div", "--coords-file", str(path), "u", "--weights", "0,1,0") == (
        0, "e1: 0\ne2: u*v\ne3: 0\n", "")


def test_coords_file_with_an_unbounded_box_exits_2(tmp_path, capsys):
    # Every sample of x would be nan, and the report would read 0 error.
    path = tmp_path / "unbounded.coords"
    path.write_text("names = x, y, z\nh1 = 1\nh2 = 1\nh3 = 1\nbase = 0, 0, 0\n"
                    "box = -inf:inf, -2:2, -2:2\n")
    assert run(capsys, "inv-curl", "--coords-file", str(path), "--unchecked", "--verify",
               "--", "x^2", "0", "0") == (
        2, "", "error: ValidationError: sampling interval [-inf, inf] is not finite\n")
