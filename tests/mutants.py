"""Mutation check of the tier-1 tests: every mutant must make them fail.

    python tests/mutants.py

Each entry of ``MUTANTS`` is ``(file, old, new, why)``: ``old`` must occur
exactly once in ``src/invdel/<file>``, and the mutant replaces it by
``new``.  The unmutated tests run first and must pass.  Then each mutant
is applied to a fresh temporary copy of ``src``, ``tests``, ``README.md``
and ``pyproject.toml``, where ``python -m pytest -x -q`` runs for at most
``TIMEOUT`` seconds.  A mutant is killed when pytest fails or times out,
and survives when it passes.  One line is printed per mutant and the last
line counts the kills.

The exit status is 1 when a mutant survives, unless ``EQUIVALENT`` names it
(by its ``why``) with the reason no test can tell it from the program, and
2 when an ``old`` is not found once or the unmutated tests fail.  A
survivor gets a test; the harness never edits or skips one.  A rule added
to the program adds its mutant here.

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The process entry between the end of main and its own body.
ENTRY = (
    "\n\ndef run() -> int:\n"
    '    """The process entry: ``main`` on the process\'s argv, then ``gc.freeze()``,\n'
    "    so the interpreter's shutdown collections skip every object left alive.\"\"\"\n"
    "    import gc  # here, so that an import of this module does not load it\n")

# The body of one weighted split integral: its walk of its two integrated
# parts, each scaled by its weight.
WEIGHTED_BODY = (
    "    for part, weight in zip(_integrated(form, name, split_var), weights):\n"
    "        if not part or not weight[0]:\n"
    "            continue\n"
    "        if weight != _ONE:\n"
    "            _check_pairs(part, {(): weight})\n"
    "        for factors, c in part.items():\n"
    "            c = _coeff_mul(c, weight)\n"
    "            _add_term(acc, factors, (-c[0], c[1]) if negate else c)\n")

MUTANTS = (
    ("inverse.py",
     "    except (UnsupportedExpression, DomainError) as exc:\n"
     "        raise BasePointSingular",
     "    except UnsupportedExpression as exc:\n"
     "        raise BasePointSingular",
     "_at_base catches only UnsupportedExpression"),
    ("expr.py", "vanishes(atom) and e < 0:", "vanishes(atom):",
     "the judge refuses a vanishing factor whatever its power"),
    ("expr.py", '(atom.tag == "ln" or math.isfinite(value))',
     '(atom.tag != "ln" and math.isfinite(value))',
     "the float branch of the judge no longer evaluates ln"),
    ("expr.py", "return q == _RATIONAL_ROOT.get(atom.tag)", "return False",
     "the exact branch of the judge never finds a root"),
    ("expr.py",
     "        except DomainError:\n            if failed is None:",
     "        except ArithmeticError:\n            if failed is None:",
     "_pointwise catches ArithmeticError in place of DomainError"),
    ("expr.py", "(total := sum(values)) != total:", "(total := sum(values)) is None:",
     "the nan screen is dropped"),
    ("expr.py", "    if failed is not None and (total",
     "    if failed is not None and len(terms) > 1 and (total",
     "the nan screen skips a single-term column, as a function's argument may be"),
    ("verify.py", "    if not total < _MAGNITUDE_BOUND:",
     "    if total < _MAGNITUDE_BOUND:", "the magnitude bound's comparison is inverted"),
    ("verify.py", "peak = peaks[factor] = max(map(abs, values))",
     "peak = peaks[factor] = min(map(abs, values))",
     "the magnitude bound takes each column's smallest value"),
    ("verify.py", "            bound = math.inf", "            bound = 0.0",
     "a coefficient past the float range reads as a bound of 0.0"),
    ("expr.py", 'return (atom.tag != "exp" and (', "return ((",
     "the judge evaluates exp itself, not only its argument"),
    ("coords.py", "zero = value.is_zero() or any(",
     "zero = eval_numeric(value, {}) == 0.0 or any(",
     "coords judges a one-term value by its float product"),
    ("coords.py", "value = value_at(h, at_base)",
     "from .expr import substitute_all\n                value = substitute_all(h, at_base)",
     "coords substitutes without the judge's scan"),
    ("errors.py", "more = len(text) - MAX_ECHOED_CHARS", "more = 0",
     "the echo bound of an error's text is dropped"),
    ("expr.py", r"[\d_]*(?:\.[\d_]*)?[eE]", r"[\d_]*\.?[\d_]*[eE]",
     "digits with no decimal exponent are read in quadratic time"),
    ("verify.py", "if resamples > 10 * samples:", "if resamples > 100 * samples:",
     "the resample bound goes from 10 * samples to 100 * samples"),
    ("verify.py", "RELATIVE_TOLERANCE = 1e-9", "RELATIVE_TOLERANCE = 1e-3",
     "the relative tolerance goes from 1e-9 to 1e-3"),
    ("verify.py", "ABSOLUTE_FLOOR = 1e-12", "ABSOLUTE_FLOOR = 1e-6",
     "the absolute floor goes from 1e-12 to 1e-6"),
    ("inverse.py", 'CurlWeights("1/3", "1/2")', 'CurlWeights("1/2", "1/2")',
     "the curl weight goes from 1/3 to 1/2"),
    ("inverse.py", "    if not all(matched):", "    if False:",
     "the inverse curl's self-check is dropped"),
    ("inverse.py",
     "    if not numerator.is_zero():\n        raise NotSolenoidal(scale * numerator)",
     "    if False:\n        raise NotSolenoidal(scale * numerator)",
     "the solenoidal gate is dropped"),
    ("inverse.py",
     "    if not all(numerator.is_zero() for _, numerator in curl_numerators(A, along)):",
     "    if False:",
     "the conservative gate is dropped"),
    ("inverse.py",
     "    scale = B.system.inverse_jacobian()\n    if not numerator.is_zero():\n"
     "        raise NotSolenoidal(scale * numerator)",
     "    if not numerator.is_zero():\n"
     "        raise NotSolenoidal(B.system.inverse_jacobian() * numerator)",
     "a multi-term scale factor no longer fails the solenoidal gate first"),
    ("calculus.py", "if place is not None or atom.tag", "if atom.tag",
     "a power of the variable times a carrier is integrated"),
    ("calculus.py", "            if carrier is not None:\n                return None\n", "",
     "a term with two carriers is integrated by its last"),
    ("calculus.py", 'atom.tag == "ln" or e != 1:', 'atom.tag == "ln":',
     "a power of a carrier is integrated"),
    ("calculus.py", "if factors != ((name, 1),):", "if False:",
     "a carrier whose argument is not linear is integrated"),
    ("expr.py", "        except OverflowError:\n            if failed is None:",
     "        except ZeroDivisionError:\n            if failed is None:",
     "a coefficient past the float range escapes evaluate as OverflowError"),
    ("expr.py",
     "            if failed is None:\n                raise DomainError(\"coefficient overflow\")",
     "            if True:\n                raise DomainError(\"coefficient overflow\")",
     "a form with a coefficient past the float range is not resampled"),
    ("expr.py", "MAX_PRODUCT_PAIRS = 100_000", "MAX_PRODUCT_PAIRS = 1_000_000",
     "the term-pair budget grows tenfold"),
    ("expr.py", "MAX_POWER_DIGITS = 10_000", "MAX_POWER_DIGITS = 100_000",
     "the coefficient digit budget grows tenfold"),
    ("inverse.py",
     "    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:\n"
     "        raise ValidationError(f\"bad {what}",
     "    except (ValueError, TypeError, OverflowError) as exc:\n"
     "        raise ValidationError(f\"bad {what}",
     "the value reader lets ZeroDivisionError through"),
    ("errors.py", "    exit_code = 5", "    exit_code = 1",
     "ConstructionFailed exits 1 in place of 5"),
    ("inverse.py",
     "            try:\n"
     "                got = \" + \".join(str(n) if d == 1 else f\"{n}/{d}\" for n, d in self._pairs)\n"
     "            except ValueError:  # str() refuses an int past the digit limit\n"
     "                got = \"a weight past the interpreter's digit limit\"\n",
     "            got = \" + \".join(str(n) if d == 1 else f\"{n}/{d}\" for n, d in self._pairs)\n",
     "the weights message prints a weight past the digit limit"),
    ("calculus.py", "factors_contain(factors, split_var) else rest",
     "factors_contain(factors, name) else rest",
     "the weight side is chosen by the integration variable, not the split variable"),
    ("inverse.py", "_weighted(c[k], u[k], u[j], weights._pairs, acc, True)",
     "_weighted(c[k], u[k], u[j], weights._pairs, acc)",
     "the second W of each component is added, not subtracted"),
    ("inverse.py",
     "        _weighted(c[j], u[j], u[k], weights._pairs, acc)\n"
     "        _weighted(c[k], u[k], u[j], weights._pairs, acc, True)\n",
     "        _weighted(c[k], u[k], u[j], weights._pairs, acc, True)\n"
     "        _weighted(c[j], u[j], u[k], weights._pairs, acc)\n",
     "the two W of a component are taken in swapped order"),
    ("calculus.py", WEIGHTED_BODY,
     "    kept = {f: c for f, c in form.items() if _integrate_term(f, c, name)}\n"
     + WEIGHTED_BODY.replace("_integrated(form,", "_integrated(CanonicalForm(kept),")
     + "    if len(kept) < len(form._map):\n        raise _not_integrable(form, name, split_var)\n",
     "the refusal is raised after the part budgets"),
    ("calculus.py", "        if weight != _ONE:\n            _check_pairs(part, {(): weight})\n", "",
     "a part is scaled without _check_pairs"),
    ("expr.py", "int(digits or 0) > MAX_POWER_DIGITS", "int(digits or 0) > 10 * MAX_POWER_DIGITS",
     "the decimal-exponent bound grows tenfold"),
    ("coords.py", "lambda: h[(i + 1) % 3] * h[(i + 2) % 3]", "lambda: h[i] * h[(i + 1) % 3]",
     "pair(i) takes the cycle of i - 1"),
    ("coords.py", 'self._entry(("1/pair", i)', 'self._entry(("pair", i)',
     "pair(i) and its reciprocal share one table key"),
    ("inverse.py", "(*system._base, (0, 1)) if base is None",
     "(*system._base[1:], system._base[0], (0, 1)) if base is None",
     "the default base point is rotated"),
    ("errors.py", "_digit_count(max(map(_widest, forms)))",
     "_digit_count(max(abs(term[1][0]) for form in forms for term in form.items()))",
     "a form past the digit limit counts the coefficient's numerator only"),
    ("errors.py", "        super().__init__(self.template.format(_shown(residual)))",
     "        from .parser import render\n"
     "        forms = getattr(residual, \"components\", (residual,))\n"
     "        super().__init__(self.template.format(\", \".join(map(render, forms))))",
     "the residual errors render without the digit fallback"),
    ("errors.py", "more = len(form.terms) - MAX_SHOWN_TERMS", "more = 0",
     "the term bound of an error's text is dropped"),
    ("errors.py", "        return type(self).__new__, (type(self), *self.args), self.__dict__",
     "        return super().__reduce__()",
     "an error is copied through its __init__"),
    ("coords.py", "            if not isinstance(h, CanonicalForm):", "            if False:",
     "a scale factor of another type reaches the form checks"),
    ("verify.py", "    elif result.system is not system and result.system != system:",
     "    elif False:", "the report accepts a result from another system"),
    ("inverse.py", "    if not isinstance(field, _INPUT[kind]):", "    if False:",
     "construct takes a field of any type for its kind"),
    ("inverse.py", "    if unchecked:\n        along = [None, None, None]",
     "    if False:\n        along = [None, None, None]",
     "construct ignores unchecked for inv_grad"),
    ("cli.py",
     "    _emit(payload, ns.format)\n    return code\n" + ENTRY + "    code = main()\n"
     "    gc.freeze()\n    return code\n",
     "    _emit(payload, ns.format)\n    import gc\n    gc.freeze()\n    return code\n"
     + ENTRY + "    return main()\n",
     "the freeze moves from the process entry into main"),
    ("cli.py", "for t in (s, s.partition(\"=\")[2], s[2:])", "for t in (s,)",
     "a usage error echoes an option's value uncut"),
    ("expr.py", "(c[0] if c[1] == 1 else _Ratio(*c), ", "(c[0], ",
     "the atom key drops a coefficient's denominator"),
    ("expr.py", "else name in atom.variables:", "else False:",
     "factors_contain reads an atom as holding no variable"),
    ("expr.py", "    table[atom, e] = values", "    table[atom, 1] = values",
     "a power's column is stored under its base's key"),
    ("verify.py", "failed, table, peaks = set(), {}, {}",
     "failed, table, peaks = set(), (table if collected else {}), {}",
     "one table serves every block"),
    ("verify.py", "    if samples > MAX_SAMPLES:\n", "    if False:\n",
     "the sample bound is dropped"),
    ("verify.py", "if isinstance(value, bool) or not isinstance(value, int):",
     "if not isinstance(value, int):", "a bool passes as an int sample count or seed"),
    ("expr.py", "            if d:\n                return _reduced(n, d)",
     "            if True:\n                return _reduced(n, d)",
     "a zero denominator takes the fast reader"),
    ("verify.py", "    if samples * factors > MAX_REPORT_WORK:", "    if False:",
     "the report-work budget is dropped"),
    ("verify.py", "count += _factor_count((atom.argument,))", "count += 0",
     "a function's argument form is left out of a report's factor count"),
    ("expr.py",
     "                        if e < 0:\n"
     "                            raise UnsupportedExpression(\"reciprocal of zero\")\n",
     "", "the fold no longer raises for a zero under a negative power"),
    ("expr.py", "power = _coeff_power(value[()], e)",
     "n, d = value[()] if e > 0 else _coeff_inv(value[()])\n"
     "                        power = (n ** abs(e), d ** abs(e))",
     "the fold forms a constant's power past the coefficient-power bound"),
    ("expr.py", "    if not any(atom.__class__ is not str for factors in form._map",
     "    if any(atom.__class__ is not str for factors in form._map",
     "value_at's function-atom test is inverted"),
    ("parser.py", "key = (tag, *tokens[start:", 'key = ("", *tokens[start:',
     "the tag is dropped from the call table's key"),
    ("parser.py", "flat = self.depth < MAX_NESTING and ", "flat = ",
     "the call table's depth guard is dropped"),
    ("vecops.py", "numerator = _derivative(product(j), u[k], acc, True)",
     "numerator = _derivative(product(j), u[k], acc)",
     "curl_numerators adds its second derivative instead of subtracting it"),
    ("vecops.py", "        _derivative(products[-1], u, acc)",
     "        acc = {}\n        _derivative(products[-1], u, acc)",
     "flux keeps only its last derivative"),
    ("__init__.py", " and not isinstance(value, _ModuleType)", "",
     "the public names take in the submodules"),
    ("calculus.py", "    check_variable_name(name)\n    return _derivative(",
     "    return _derivative(", "differentiate takes any variable name"),
    ("calculus.py", "    check_variable_name(name)\n    return CanonicalForm(_integrated(",
     "    return CanonicalForm(_integrated(", "antidifferentiate takes any variable name"),
    ("calculus.py", "    check_variable_name(name)\n    plus: dict = {}", "    plus: dict = {}",
     "split_by_variable takes any variable name"),
    ("calculus.py", "    check_variable_name(split_var)\n", "",
     "weighted_split_integral takes any split variable name"),
    ("calculus.py", "    check_variable_name(int_var)\n", "",
     "weighted_split_integral takes any integration variable name"),
    ("expr.py", "    check_variable_name(name)\n    return substitute_all(",
     "    return substitute_all(", "substitute takes any variable name"),
    ("inverse.py", '    _checked(weights, CurlWeights, "weights")\n', "",
     "curl_potential_formula takes weights of any type"),
    ("inverse.py", 'else _checked(weights, DivergenceWeights, "weights"))._pairs',
     "else weights)._pairs", "inverse_divergence takes weights of any type"),
    ("inverse.py", "(DivergenceWeights.symmetric() if weights is None",
     "(DivergenceWeights.symmetric() if not weights",
     "empty or zero divergence weights mean the symmetric ones"),
    ("inverse.py", 'else _checked(base, BasePoint, "base")._pairs)', "else base._pairs)",
     "the path integral takes a base point of any type"),
    ("inverse.py", "    _checked(gauge, cls, what)\n", "",
     "a gauge shift takes a gauge of any type"),
    ("inverse.py", '    _checked(A, VectorField, "the shifted field")\n', "",
     "a gauge shift takes a shifted field of any type"),
    ("expr.py", "if isinstance(value, (str, bytes, bytearray, memoryview)):  # float() parses text",
     "if False:", "eval_numeric reads text as a number"),
    ("expr.py", "        except (TypeError, ValueError):\n            raise ValidationError(",
     "        except TypeError:\n            raise ValidationError(",
     "eval_numeric lets float()'s ValueError through"),
    ("inverse.py", '    _checked(B, VectorField, "the field")\n    return tuple(',
     "    return tuple(", "curl_integrands takes a field of any type"),
    ("inverse.py", '    _checked(B, VectorField, "the field")\n    _checked(weights',
     "    _checked(weights", "curl_potential_formula takes a field of any type"),
    ("inverse.py", '    _checked(B, VectorField, "the field")\n    c, numerator',
     "    c, numerator", "inverse_curl takes a field of any type"),
    ("inverse.py", '    _checked(f, ScalarField, "the field")\n', "",
     "inverse_divergence takes a field of any type"),
    ("inverse.py", '    _checked(A, VectorField, "the field")\n', "",
     "inverse_gradient takes a field of any type"),
    ("vecops.py", '    _checked(f, ScalarField, "the field")\n', "",
     "gradient takes a field of any type"),
    ("vecops.py", '    _checked(A, VectorField, "the field")\n    numerator',
     "    numerator", "divergence takes a field of any type"),
    ("vecops.py", '    _checked(A, VectorField, "the field")\n    comps',
     "    comps", "curl takes a field of any type"),
    ("vecops.py", 'set(_checked(system, CoordinateSystem, "the system").names)',
     "set(system.names)", "a field constructor takes a system of any type"),
    ("expr.py", "if not (isinstance(name, str) and _IDENT_RE.match(name)):",
     "if not _IDENT_RE.match(name):", "a variable name need not be text"),
)

# Seconds one pytest run may take.
TIMEOUT = 300.0

# why -> the reason no test can kill that mutant.
EQUIVALENT: dict[str, str] = {}


def _copy(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, destination / part, ignore=ignore)
    # Tests check the README's exit-code table against the error types and
    # pyproject.toml's console script against the module's entry.
    for name in ("README.md", "pyproject.toml"):
        shutil.copy(ROOT / name, destination / name)


def _pytest(directory: Path) -> str:
    """``passed``, ``failed`` or ``timeout`` for the tests of the copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=directory, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "passed" if child.wait(timeout=TIMEOUT) == 0 else "failed"
    except subprocess.TimeoutExpired:
        # The tests start CLI processes of their own; end them with pytest.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"


def main() -> int:
    for file, old, _, why in MUTANTS:
        count = (ROOT / "src" / "invdel" / file).read_text().count(old)
        if count != 1:
            print(f"error: {file}: the text of '{why}' occurs {count} times", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        _copy(Path(scratch))
        if _pytest(Path(scratch)) != "passed":
            print("error: the unmutated tests do not pass", file=sys.stderr)
            return 2

    killed = 0
    survivors = []
    for number, (file, old, new, why) in enumerate(MUTANTS, start=1):
        started = time.monotonic()
        with tempfile.TemporaryDirectory() as scratch:
            _copy(Path(scratch))
            path = Path(scratch) / "src" / "invdel" / file
            path.write_text(path.read_text().replace(old, new))
            outcome = _pytest(Path(scratch))
        note = ""
        if outcome != "passed":
            verdict = "killed"
            killed += 1
        elif why in EQUIVALENT:
            verdict, note = "equivalent", f" ({EQUIVALENT[why]})"
        else:
            verdict = "SURVIVED"
            survivors.append(why)
        print(f"{number:2d} {verdict:10s} {time.monotonic() - started:6.1f} s  "
              f"{file}: {why}{note}", flush=True)
    print(f"mutants killed: {killed} of {len(MUTANTS)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
