"""Function atoms: an exact sort key, facts worked out once, and bounded
comparison work on deep inputs."""

import hashlib
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from invdel import differentiate, num, parse, substitute, var
from invdel.cli import main
from invdel.expr import CanonicalForm, FunctionAtom, atom_power, factors_contain, free_variables

from _support import random_polynomial

NAMES = ("x", "y", "z")
TAGS = ("sin", "cos", "exp", "ln")


def reference_key(atom):
    """The sort key with a Fraction for every coefficient, integers included."""
    if isinstance(atom, str):
        return (atom, 0, ())
    return (atom.tag, 1, tuple(
        (Fraction(*c), tuple((reference_key(a), e) for a, e in f))
        for f, c in atom.argument.terms))


def random_atom(rng, depth):
    """An atom over a random polynomial, now and then with an atom inside."""
    argument = random_polynomial(rng, rng.sample(NAMES, rng.randint(1, 3)), 3, 2)
    if depth and rng.random() < 0.5:
        inner = atom_power(random_atom(rng, depth - 1), rng.choice((-1, 1, 2)))
        argument = argument + num(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) * inner
    return FunctionAtom(rng.choice(TAGS), argument)


FIXED = ("x/2", "2*x/5", "x", "-x", "2*x", "-3*x/7", "x + 1", "x - 1/2",
         "sin(x/2)", "sin(2*x/5)", "3*sin(x)^2 - y/4")


def test_atom_keys_order_as_keys_made_of_fractions():
    rng = random.Random(20261019)
    atoms = [FunctionAtom("sin", parse(text)) for text in FIXED]
    atoms += [random_atom(rng, 2) for _ in range(150)]
    references = [reference_key(atom) for atom in atoms]
    for atom, reference in zip(atoms, references):
        assert atom.key == reference
    for a, ra in zip(atoms, references):
        for b, rb in zip(atoms, references):
            assert (a.key < b.key) == (ra < rb), (a, b)


def test_an_atom_reads_its_facts_without_walking_or_hashing_its_argument(monkeypatch):
    atom = FunctionAtom("sin", parse("x + sin(z)"))
    form = var("y") * atom_power(atom)

    def refuse(*_):
        raise AssertionError("walked again")

    monkeypatch.setattr(CanonicalForm, "__hash__", refuse)
    assert hash(atom) == atom._hash
    assert atom.variables == frozenset({"x", "z"})
    (factors, _), = form.items()
    assert factors_contain(factors, "z") and not factors_contain(factors, "w")
    assert free_variables(form) == frozenset({"x", "y", "z"})
    assert differentiate(form, "y") == atom_power(atom)
    assert substitute(form, "y", 2) == 2 * atom_power(atom)


def test_equal_atoms_built_apart_stay_distinct_objects():
    first, second = FunctionAtom("cos", parse("x + 1")), FunctionAtom("cos", parse("1 + x"))
    assert first == second and first is not second
    assert first.variables == second.variables == frozenset({"x"})
    assert FunctionAtom("exp", parse("2")).variables == frozenset()


def test_a_pickled_atom_rebuilds_its_facts_in_a_process_with_other_string_hashes():
    atom = FunctionAtom("sin", parse("z + y*x"))
    assert atom.__reduce__() == (FunctionAtom, ("sin", parse("x*y + z")))
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import pickle, sys; from invdel import parse; from invdel.expr import FunctionAtom; "
            "a = FunctionAtom('sin', parse('x*y + z')); hash(a); "
            "sys.stdout.buffer.write(pickle.dumps(a))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1"))
    assert done.returncode == 0, done.stderr
    loaded = pickle.loads(done.stdout)
    assert loaded == atom and hash(loaded) == hash(atom) and loaded in {atom}
    assert loaded.variables == frozenset({"x", "y", "z"}) and loaded.key == atom.key


def nest(depth):
    """x + sin(x + sin(... sin(x) ...)), ``depth`` atoms deep."""
    text = "x"
    for _ in range(depth):
        text = f"x+sin({text})"
    return text


def test_a_deep_gradient_compares_no_fraction(monkeypatch, capsys):
    calls = []
    for name in ("__eq__", "__lt__"):
        compare = getattr(Fraction, name)

        def counted(self, other, compare=compare):
            calls.append(1)
            return compare(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    assert main(["grad", nest(20)]) == 0
    assert capsys.readouterr().out.startswith("e1: ")
    assert not calls


def test_a_deep_gradient_prints_the_pinned_text(capsys):
    # The stdout that sort keys of Fractions alone gave: every term keeps its place.
    assert main(["grad", nest(30)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "fdd4cb1f6ca37f2a710e30e2066573034720596a99820343afcc8e30415399b2"
