"""The command line's process contract: each row runs ``python -m invdel.cli``
on this tree's ``src`` and asserts its exit status, its stdout (through the
row's view), its whole stderr (``err`` is the line after ``error: ``), no
traceback, and an end within ``bound`` seconds.  ``coords`` text goes to a
file whose path replaces ``COORDS_FILE`` in the argv.
"""

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text().splitlines()
COORDS_FILE = "COORDS_FILE"
VIEWS = {
    "all": lambda out: out,
    "last line": lambda out: out.splitlines()[-1],
    "json error": lambda out: json.loads(out)["error"],
    "3 lines": lambda out: "".join(out.splitlines(keepends=True)[:3]),
}


class Row(NamedTuple):
    id: str
    argv: tuple
    code: int
    out: str = ""
    err: str = ""
    view: str = "all"
    coords: Optional[str] = None
    bound: float = 10.0


def readme_row(id, command, lines, view="all"):
    """The README example ``command``: stdout is the ``lines`` lines after it."""
    at = README.index(command) + 1
    return Row(id, tuple(shlex.split(command)[1:]), 0,
               "".join(line + "\n" for line in README[at:at + lines]), view=view)


def coords(h1, box="-2:2, -2:2, -2:2", names="u, v, w"):
    return f"names = {names}\nh1 = {h1}\nh2 = 1\nh3 = 1\nbase = 0, 0, 0\nbox = {box}\n"


DEEP = "(" * 2000 + "x" + ")" * 2000
NESTED = "SourceError: at offset 100: expected at most 100 nested parentheses, found '('"
TOKEN = "SourceError: at offset {}: expected a token, found character '{}'"
DIGITS = ("SourceError: at offset {}: expected an integer within the interpreter's digit "
          "limit, found a 5000-digit integer")
RENDER = ("UnsupportedExpression: rendering a number of about 6026 digits exceeds the "
          "interpreter's digit limit")
REFUSAL = ("NotIntegrable: term with a number of about 6021 digits has no antiderivative in "
           "x within the supported class")
POWER = "UnsupportedExpression: a coefficient power of more than 10000 digits exceeds the budget"
PRODUCT = POWER.replace("power", "product")
EXHAUSTED = "SamplingExhausted: more than 1000 sample points fell outside the domain"
RESAMPLED = ("verify: symbolic_equal=True within_tolerance=True samples=100 seed=42 "
             "max_abs_error=0.0 max_rel_error=0.0 resamples={}")
DIGIT_COUNT = "with a number of about 6021 digits"
CURL_RESIDUAL = f"NotConservative: curl residual ({DIGIT_COUNT})"
# x^i*y^i for 1 <= i < 8000; its curl residual's third component has 7999
# terms, of which the message shows the first 20.
WIDE = " + ".join(f"x^{i}*y^{i}" for i in range(1, 8000))
WIDE_RESIDUAL = ("NotConservative: curl residual (0, 0, -"
                 + " - ".join(f"{i}*x^{i}*y^{i - 1}" for i in range(7999, 7979, -1))
                 + " ... (7979 more terms))")
WEIGHT = ("ValidationError: divergence weights must sum to 1, got a weight past the "
          "interpreter's digit limit")
BIG = "1" + "0" * 400
# Inputs of 100 000 characters; each fits in one argument of a Linux exec.
QS = "q" * 100_000
ONES = "1" * 100_000
CUT = " ... ({} more characters)"


def _refusal(text):
    """The interpreter's own message for a Fraction it cannot read."""
    try:
        Fraction(text)
    except ValueError as exc:
        return str(exc)

ROWS = (
    readme_row("readme-inv-curl", 'invdel inv-curl "x*y*z + y^2" "x*z + y" "-z - y*z^2/2"', 3),
    readme_row("readme-inv-grad", 'invdel inv-grad --base 0,0,0 "2*x*y" "x^2" "1"', 1),
    # The README elides the fourth line, the report.
    readme_row("readme-inv-div",
               'invdel inv-div "4*rho" --coords cylindrical --weights 1,0,0 --verify', 3,
               "3 lines"),
    Row("deep-nesting-curl", ("curl", DEEP, "0", "0"), 2, err=NESTED),
    Row("deep-nesting-inv-curl", ("inv-curl", DEEP, "0", "0"), 2, err=NESTED),
    Row("non-ascii-digit-inv-div", ("inv-div", "²"), 2, err=TOKEN.format(0, "²")),
    Row("non-ascii-digit-curl", ("curl", "x^²", "0", "0"), 2, err=TOKEN.format(2, "²")),
    Row("non-ascii-digit-arabic-indic", ("inv-div", "x + ٣"), 2, err=TOKEN.format(4, "٣")),
    Row("parse-error-offset-character", ("inv-div", "x*y + z^2 - 3 @"), 2,
        err=TOKEN.format(14, "@")),
    Row("parse-error-offset-end", ("inv-div", "x*y + z^2 - 3 )"), 2,
        err="SourceError: at offset 14: expected end of input, found ')'"),
    Row("integer-past-digit-limit-inv-div", ("inv-div", "7" * 5000 + "*x"), 2,
        err=DIGITS.format(0)),
    Row("integer-past-digit-limit-curl", ("curl", "x^" + "7" * 5000, "0", "0"), 2,
        err=DIGITS.format(2)),
    Row("coefficient-past-digit-limit-text", ("grad", "(2*x)^20000"), 4, err=RENDER),
    Row("coefficient-past-digit-limit-json", ("grad", "--format", "json", "(2*x)^20000"), 4,
        RENDER, view="json error"),
    Row("expansion-past-budget", ("grad", "(x+y+z+1)^60"), 4, bound=5,
        err="UnsupportedExpression: expanding a product of 455 by 969 terms exceeds the "
            "budget of 100000 term pairs"),
    *(Row(f"{name}-power-past-budget-{command}", (command, text), 4, err=POWER, bound=1)
      for name, text in (("coefficient", "3^10000000"), ("rational", "x*(7/3)^3000000"))
      for command in ("grad", "inv-div")),
    # Coefficient products are estimated before they are formed, one at a time.
    Row("coefficient-product-past-budget", ("grad", "(2^9000*x + 1)^300"), 4, err=PRODUCT,
        bound=1),
    Row("coefficient-chain-past-budget", ("grad", "*".join(["(7/3)^4000"] * 300)), 4,
        err=PRODUCT, bound=1),
    Row("weighted-integral-past-budget", ("inv-curl", "--", "0", "0", "2^33218*x"), 4,
        err=PRODUCT),
    Row("integrand-outside-term-class", ("inv-curl", "--", "0", "0", "x^-1*sin(x)"), 4,
        err="NotIntegrable: term sin(x)*x^-1 has no antiderivative in x within the "
            "supported class"),
    Row("refusal-past-digit-limit-text", ("inv-div", "2^20000*x*sin(x)"), 4, err=REFUSAL),
    Row("refusal-past-digit-limit-json", ("inv-div", "--format", "json", "2^20000*x*sin(x)"),
        4, REFUSAL, view="json error"),
    # A residual past the digit limit keeps its error type; its text names
    # the widest number by its digit count.
    Row("not-conservative-past-digit-limit", ("inv-grad", "--", "2^20000*y", "0", "0"), 3,
        err=CURL_RESIDUAL),
    Row("not-conservative-past-digit-limit-json",
        ("inv-grad", "--format", "json", "--", "2^20000*y", "0", "0"), 3, CURL_RESIDUAL,
        view="json error"),
    Row("not-solenoidal-past-digit-limit", ("inv-curl", "--", "2^20000*x", "0", "0"), 3,
        err=f"NotSolenoidal: divergence residual {DIGIT_COUNT}"),
    # ln(2*z) is not rewritten as ln(2) + ln(z), so the self-check fails.
    Row("construction-failed-past-digit-limit",
        ("inv-curl", "--coords", "cylindrical", "--", "-2^20000*z^-1", "0",
         "2^20000*ln(2*z)*rho^-1"), 5,
        err="ConstructionFailed: curl of the constructed potential does not reproduce the "
            f"input; residual ({DIGIT_COUNT})"),
    Row("residual-text-bounded", ("inv-grad", "--", WIDE, "0", "0"), 3, err=WIDE_RESIDUAL),
    # A report samples at most verify.MAX_SAMPLES points; one past it is
    # refused before the first draw.
    Row("samples-past-bound", ("inv-div", "3", "--verify", "--samples", "1000001"), 2,
        err="ValidationError: sample count must be at most 1000000", bound=1),
    # A report's work, its samples times its forms' factors, is bounded too;
    # this one would run for minutes.
    Row("report-work-past-budget",
        ("inv-div", "(x+y+z+1)^20", "--verify", "--samples", "1000000"), 4, bound=5,
        err="UnsupportedExpression: a report of 1000000 samples over plans of 6391 factors "
            "exceeds the budget of 10000000 sample factors"),
    # A coefficient past the float range has no float value at any point, not
    # even inside exp; exp(700)*exp(701) is inf, and sin(inf) has no value.
    Row("float-range-coefficient", ("verify", "inv-div", "7" * 400 + "*x"), 1, err=EXHAUSTED),
    Row("overflow-in-function-verify", ("verify", "inv-div", "exp(10^400)"), 1, err=EXHAUSTED),
    Row("overflow-in-function-inv-div", ("inv-div", "exp(10^400)"), 0,
        f"e1: exp({BIG})*x/3\ne2: exp({BIG})*y/3\ne3: exp({BIG})*z/3\n"),
    Row("sine-of-infinite-value", ("verify", "inv-div", "sin(exp(700)*exp(701))"), 1,
        err=EXHAUSTED),
    # The first sum is inf - inf where y is large, the second overflows.
    Row("sum-past-float-range-inf-minus-inf",
        ("verify", "inv-div", "exp(300*y)*exp(301*y) - exp(300*y)*exp(302*y)", "--weights",
         "1,0,0"), 0, RESAMPLED.format(26), view="last line"),
    Row("sum-past-float-range-overflow",
        ("verify", "inv-div", "10^308*y + 10^308*z", "--weights", "1,0,0"), 0,
        RESAMPLED.format(34), view="last line"),
    # inf times sin(0.0) is nan without raising; nan would pass any tolerance.
    Row("nan-residual", ("inv-curl", "--unchecked", "--verify", "--",
                         "exp(700)*exp(701)*sin(1/10^400)*x", "0", "0"), 1, err=EXHAUSTED),
    # A float would read 10^400 as an overflow; the rational is decided exactly.
    Row("rational-function-argument", ("inv-grad", "--", "0", "0", "ln(10^400)*z"), 0,
        f"phi: ln({BIG})*z^2/2\n"),
    # The first failure in canonical term order: exp(1000) before the coefficient 10^400.
    Row("first-failure-in-term-order",
        ("inv-grad", "--", "0", "0", "sin(exp(1000) + 10^400)*z"), 1,
        err="BasePointSingular: base point substitution: exp overflow"),
    Row("multi-term-scale-factor", ("inv-grad", "--coords-file", COORDS_FILE, "--", "0", "0",
                                    "w"), 4, coords=coords("1 + u^2"),
        err="UnsupportedExpression: reciprocal of a multi-term expression is outside the "
            "term algebra"),
    # Every sample of x would be nan, and the report would read 0 error.
    Row("infinite-box-bound", ("inv-curl", "--coords-file", COORDS_FILE, "--unchecked",
                               "--verify", "--", "x^2", "0", "0"), 2,
        err="ValidationError: sampling interval [-inf, inf] is not finite",
        coords=coords("1", "-inf:inf, -2:2, -2:2", "x, y, z")),
    # h1 = 10^400 overflows a float and exp(1000)^-1 underflows one; neither vanishes.
    *(Row(f"{name}-scale-factor", ("inv-div", "--coords-file", COORDS_FILE, "u", "--weights",
                                   "0,1,0"), 0, "e1: 0\ne2: u*v\ne3: 0\n", coords=coords(h1))
      for name, h1 in (("huge", "10^400"), ("exp", "exp(1000)^-1"))),
    Row("weights-past-digit-limit", ("inv-div", "x", "--weights=1e5000,0,0"), 2, err=WEIGHT),
    Row("weights-past-digit-limit-verify",
        ("verify", "inv-div", "x", "--weights=1e5000,0,0"), 2, err=WEIGHT),
    Row("decimal-exponent-past-budget", ("inv-div", "x", "--weights", "1e100000000,0,0"), 2,
        err="ValidationError: bad weight '1e100000000': a decimal exponent past 10000 "
            "exceeds the budget"),
    # Digits with no exponent are read in linear time, and the echo of an
    # outside text is cut after 200 characters.
    Row("long-weight", ("inv-div", "x", "--weights", f"{ONES},0,0"), 2, bound=5,
        err=f"ValidationError: bad weight '{ONES[:199]}{CUT.format(99_802)}: "
            f"{_refusal(ONES)}"),
    Row("long-foreign-variable", ("inv-div", QS), 2,
        err="ValidationError: expression references variables outside the coordinate "
            f"system: {QS[:200]}{CUT.format(99_800)}"),
    Row("long-token", ("inv-div", f"x {QS}"), 2,
        err=f"SourceError: at offset 2: expected end of input, found '{QS[:199]}"
            f"{CUT.format(99_802)}"),
    # sin(1/10^400) is 0.0 in floats, but the rational argument is decided exactly.
    Row("tiny-sine-scale-factor", ("div", "u", "v", "w", "--coords-file", COORDS_FILE), 0,
        f"phi: 2 + sin(u + 1/{BIG})^-1\n", coords=coords("sin(u + 1/10^400)")),
)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_process(tmp_path, row):
    argv = list(row.argv)
    if row.coords is not None:
        path = tmp_path / "system.coords"
        path.write_text(row.coords)
        argv = [str(path) if arg == COORDS_FILE else arg for arg in argv]
    # A process still running at the bound is killed, and the row fails.
    done = subprocess.run([sys.executable, "-m", "invdel.cli", *argv], capture_output=True,
                          text=True, timeout=row.bound,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert "Traceback" not in done.stderr
    assert (done.returncode, VIEWS[row.view](done.stdout), done.stderr) == (
        row.code, row.out, f"error: {row.err}\n" if row.err else "")
