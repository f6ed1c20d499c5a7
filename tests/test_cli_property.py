"""Property: every command-line input ends in a documented exit code.

``cli.main`` runs in-process on invocations drawn from every command, both
output formats and the three builtin systems, with expressions from the
grammar: small integers, the system's variables and one foreign name,
``10^k`` just inside the float range, alone and times a variable,
``10^k`` and ``1/10^k`` past it, products of ``exp`` that overflow a
float, the four functions and ``+ - * / ^``, nested up to four levels.
A second property samples sums of the ``10^k*v`` terms, whose value
overflows a float at some points.  An exception that escapes ``main``
fails the test as it is.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from invdel.cli import main  # noqa: E402

SYSTEMS = {
    "cartesian": ("x", "y", "z"),
    "cylindrical": ("rho", "phi", "z"),
    "spherical": ("r", "theta", "phi"),
}
# Command words and the number of expressions each takes.
COMMANDS = {
    "curl": 3, "div": 3, "grad": 1, "inv-curl": 3, "inv-div": 1, "inv-grad": 3,
    "verify inv-curl": 3, "verify inv-div": 1, "verify inv-grad": 3,
}
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5}


def large_terms(names):
    """``10^k*v``, just inside the float range: a sum of such terms in
    different variables stays a sum until it is sampled, where it can
    overflow while each term is finite."""
    return st.tuples(st.integers(305, 308), st.sampled_from(names)).map(
        lambda p: f"10^{p[0]}*{p[1]}")


def leaves(names):
    return st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(names + ("a",)),
        # Just inside the float range, so that a sum of them can overflow.
        st.integers(305, 308).map(lambda k: f"10^{k}"),
        large_terms(names),
        st.integers(300, 1000).map(lambda k: f"10^{k}"),
        st.integers(300, 1000).map(lambda k: f"1/10^{k}"),
        st.tuples(st.integers(700, 710), st.integers(700, 710)).map(
            lambda p: f"exp({p[0]})*exp({p[1]})"),
    )


def expressions(names, depth=4):
    """Source text nested at most ``depth`` levels below its leaves."""
    if depth == 0:
        return leaves(names)
    inner = expressions(names, depth - 1)
    return st.one_of(
        leaves(names),
        st.tuples(st.sampled_from(("sin", "cos", "exp", "ln")), inner).map(
            lambda p: f"{p[0]}({p[1]})"),
        st.tuples(inner, st.sampled_from(("+", "-", "*", "/")), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(inner, st.integers(-2, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


EXPRESSIONS = {system: expressions(names) for system, names in SYSTEMS.items()}


def assert_documented_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in DOCUMENTED_EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue()


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    argv = command.split() + ["--coords", system,
                              "--format", draw(st.sampled_from(("text", "json")))]
    if command.startswith(("inv-", "verify")):
        argv += ["--samples", "10"]
        if command.startswith("inv-") and draw(st.booleans()):
            argv.append("--verify")
    return argv + ["--"] + [draw(EXPRESSIONS[system]) for _ in range(COMMANDS[command])]


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
@example(["verify", "inv-div", "--weights", "1,0,0", "--",
          "exp(300*y)*exp(301*y) - exp(300*y)*exp(302*y)"])
@example(["verify", "inv-div", "--weights", "1,0,0", "--", "10^308*y + 10^308*z"])
def test_every_input_ends_in_a_documented_exit_code(argv):
    assert_documented_exit(argv)


@st.composite
def large_sums(draw):
    """``verify inv-div`` of two or three ``large_terms``, which the nested
    grammar above seldom puts side by side in one sum."""
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    terms = draw(st.lists(large_terms(SYSTEMS[system]), min_size=2, max_size=3))
    # Weights 1,0,0 integrate in the first coordinate, which every system's
    # volume factor allows, so the report is always sampled.
    return ["verify", "inv-div", "--coords", system, "--weights", "1,0,0", "--",
            " + ".join(terms)]


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(large_sums())
def test_a_sum_of_large_terms_ends_in_a_documented_exit_code(argv):
    assert_documented_exit(argv)
