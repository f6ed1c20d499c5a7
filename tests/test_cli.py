"""End-to-end command-line tests driven through main()."""

import gc
import json
import re
import sys
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


@pytest.mark.parametrize("argv,name,out", [
    (["inv-curl", "y", "z", "x"], "inverse_curl",
     "e1: -x*y/2 + z^2/4\ne2: x^2/4 - y*z/2\ne3: -x*z/2 + y^2/4\n"),
    (["inv-div", "3", "--weights", "1,0,0"], "inverse_divergence", "e1: 3*x\ne2: 0\ne3: 0\n"),
    (["inv-grad", "2*x*y", "x^2", "1"], "inverse_gradient", "phi: x^2*y + z\n"),
    (["inv-curl", "--unchecked", "x", "0", "0"], "curl_potential_formula",
     "e1: 0\ne2: -x*z/3\ne3: x*y/3\nresidual: 1\n"),
], ids=["inv-curl", "inv-div", "inv-grad", "inv-curl-unchecked"])
def test_the_operators_are_looked_up_when_a_command_runs(capsys, monkeypatch, argv, name,
                                                         out):
    # A tracer rebinds the names inverse holds; construct must call through them.
    calls = []
    original = getattr(invdel.inverse, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(invdel.inverse, name, spy)
    assert run(capsys, *argv) == (0, out, "")
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
    # The interpreter's message echoes the path, which is cut after 200 characters.
    code, _, err = run(capsys, "div", "u", "v", "w", "--coords-file", str(tmp_path / ("x" * 300)))
    assert (code, err[-18:]) == (2, " more characters)\n")
    assert len(err) < len("error: ValidationError: cannot read coordinate file: ") + 240


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


INV_DIV_USAGE = """usage: invdel inv-div [-h] [--coords {cartesian,cylindrical,spherical}]
                      [--coords-file PATH] [--format {text,json}] [--verify]
                      [--samples SAMPLES] [--seed SEED] [--weights K1,K2,K3]
                      [--gauge-vector E1,E2,E3]
                      expression
invdel inv-div: error: """
ROOT_USAGE = """usage: invdel [-h] {curl,div,grad,inv-curl,inv-div,inv-grad,verify} ...
invdel: error: """


# Each usage error that echoes an outside argument, by id: the argument's
# text before its q's, the argv around it (ARG marks the argument), the
# stderr with ECHO for the echo, and whether argparse quotes the echo.  A
# quoted echo is the argument's q's, a bare one the whole argument.
ECHOES = {
    "coords-choice": ("", ("inv-div", "x", "--coords", "ARG"),
     INV_DIV_USAGE + "argument --coords: invalid choice: ECHO (choose from 'cartesian', "
     "'cylindrical', 'spherical')", True),
    "samples-int": ("", ("inv-div", "x", "--samples", "ARG"),
     INV_DIV_USAGE + "argument --samples: invalid int value: ECHO", True),
    "samples-int-after-equals": ("--samples=", ("inv-div", "x", "ARG"),
     INV_DIV_USAGE + "argument --samples: invalid int value: ECHO", True),
    "command-choice": ("", ("ARG",),
     ROOT_USAGE + "argument command: invalid choice: ECHO (choose from 'curl', 'div', "
     "'grad', 'inv-curl', 'inv-div', 'inv-grad', 'verify')", True),
    "unrecognized": ("", ("grad", "x", "ARG"), ROOT_USAGE + "unrecognized arguments: ECHO",
     False),
    "flag-value": ("--verify=", ("inv-div", "x", "ARG"),
     INV_DIV_USAGE + "argument --verify: ignored explicit argument ECHO", True),
    "short-flag-tail": ("-h", ("inv-div", "x", "ARG"),
     INV_DIV_USAGE + "argument -h/--help: ignored explicit argument ECHO", True),
    "ambiguous-option": ("--co=", ("inv-div", "x", "ARG"),
     INV_DIV_USAGE + "ambiguous option: ECHO could match --coords, --coords-file", False),
}


@pytest.mark.parametrize("prefix,argv,stderr,quoted", ECHOES.values(), ids=ECHOES)
@pytest.mark.parametrize("length", [200, 100_000])
def test_a_usage_error_cuts_each_echoed_argument(capsys, monkeypatch, prefix, argv, stderr,
                                                 quoted, length):
    # The usage lines wrap at the terminal's width.
    monkeypatch.setenv("COLUMNS", "80")
    arg = prefix + "q" * (length - len(prefix))
    echo = repr(arg[len(prefix):]) if quoted else arg
    if length > 200:
        echo = f"{echo[:200]} ... ({len(echo) - 200} more characters)"
    argv = [arg if a == "ARG" else a for a in argv]
    assert run(capsys, *argv) == (2, "", stderr.replace("ECHO", echo) + "\n")


@pytest.mark.parametrize("argv,code", [
    (("grad", "x"), 0),
    (("inv-curl", "x", "0", "0"), 3),
    (("inv-div",), 2),
])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, code):
    # main runs many times in one process; a freeze would keep every run's
    # garbage for good.
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run(capsys, *argv)[0] == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_process_entry_runs_main_on_the_process_argv_then_freezes(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["invdel", "grad", "x*y"])
    frozen = gc.get_freeze_count()
    try:
        assert invdel.cli.run() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "e1: y\ne2: x\ne3: 0\n"


def test_the_console_script_is_the_entry_the_module_runs():
    # Read as text: Python 3.10 has no tomllib.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^invdel = "invdel\.cli:(\w+)"$', pyproject, flags=re.M)
    source = Path(invdel.cli.__file__).read_text()
    assert source.split('if __name__ == "__main__":\n')[1] == f"    sys.exit({target[1]}())\n"


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


EXHAUSTED = ("error: SamplingExhausted: more than 1000 sample points fell outside "
             "the domain\n")


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


@pytest.mark.parametrize("text", ["x + q - q", "x + 0*q", "x*q^0"])
def test_foreign_variable_that_cancels_is_accepted(capsys, text):
    # Fields are checked on the parsed canonical form, in which q is gone.
    code, out, err = run(capsys, "grad", text)
    assert (code, out, err) == (0, "e1: 1\ne2: 0\ne3: 0\n", "")


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
    # sample point is outside the domain.  At the base point a constant sine
    # of an infinite value has no value to test, so it is kept, as by inv-grad.
    assert run(capsys, "verify", "inv-div", "sin(exp(700)*exp(701))") == (
        1, "", "error: SamplingExhausted: more than 1000 sample points fell outside "
        "the domain\n")
    path = tmp_path / "infinite.coords"
    path.write_text(COORDS_FILE.format(h1="sin(exp(700)*exp(701))", base="0, 0, 0",
                                       box="-2:2, -2:2, -2:2"))
    assert run(capsys, "div", "u", "v", "w", "--coords-file", str(path)) == (
        0, "phi: 2 + sin(exp(700)*exp(701))^-1\n", "")


@pytest.mark.parametrize("factor,judged", [
    ("sin(0)", "vanishes"),
    ("cos(0)", None),
    ("ln(1)", "vanishes"),
    ("ln(-1)", "undefined"),
    ("sin(1/10^400)", None),
    ("cos(10^400)", None),
    ("exp(10^400)", None),
    ("exp(1000)", None),
    ("ln(exp(1000))", "undefined"),
    ("sin(exp(700)*exp(701))", None),
    ("exp(1000*cos(0))", None),
])
def test_a_constant_factor_is_judged_alike_at_both_base_points(tmp_path, capsys, factor,
                                                               judged):
    # A coordinate system's scale factor and the inverse gradient's integrand
    # meet the same rule at the base point: h1 = F is undefined there exactly
    # when F*z is BasePointSingular, and vanishes exactly when F^-1 is refused
    # as the reciprocal of a vanishing factor.
    path = tmp_path / "constant.coords"
    path.write_text(COORDS_FILE.format(h1=factor, base="0, 0, 0", box="-2:2, -2:2, -2:2"))
    code, _, err = run(capsys, "div", "u", "v", "w", "--coords-file", str(path))
    assert (code, err) == ((0, "") if judged is None else
                           (2, f"error: ValidationError: h1 {judged} at the base point\n"))
    _, _, product = run(capsys, "inv-grad", "--", "0", "0", f"{factor}*z")
    _, _, inverse = run(capsys, "inv-grad", "--", "0", "0", f"{factor}^-1")
    assert ("BasePointSingular" in product) == (judged == "undefined")
    assert ("reciprocal of a vanishing factor" in inverse) == (judged == "vanishes")


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
