"""Seeded differential of the command line: one JSON line per invocation.

    python tests/cli_differential.py SRC SEED COUNT > out.jsonl

Imports ``invdel.cli`` from the source directory SRC, draws COUNT
invocations from SEED and runs each through ``main`` in-process. Each
prints one JSON line with its argv, exit code, stdout and stderr; an
exception that escapes ``main`` is recorded in place of the exit code by
its type and message. The invocations cover every command, both output
formats, the three builtin systems, ``--unchecked``, both gauges, good and
malformed ``--weights``, ``--base`` and ``--c0``, options of another kind
under ``verify``, ``verify`` with the wrong number of expressions,
malformed expressions, expressions padded with spaces and tabs, and
``--help``. They depend on SEED and COUNT alone, so two source trees, or
two runs under different ``PYTHONHASHSEED``s, are compared with ``cmp``:

    python tests/cli_differential.py old/src 1 5000 > old.jsonl
    python tests/cli_differential.py src 1 5000 > new.jsonl
    cmp old.jsonl new.jsonl

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

# Names and scale factors of the builtin systems.
SYSTEMS = {
    "cartesian": (("x", "y", "z"), ("1", "1", "1")),
    "cylindrical": (("rho", "phi", "z"), ("1", "rho", "1")),
    "spherical": (("r", "theta", "phi"), ("1", "r", "r*sin(theta)")),
}
CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
COMMANDS = ("curl", "div", "grad", "inv-curl", "inv-div", "inv-grad", "verify")
KINDS = ("inv-curl", "inv-div", "inv-grad")
SCALAR_KINDS = ("grad", "inv-div")
COEFFICIENTS = ("1", "2", "3", "1/2", "-1", "-2/3", "5/4")
MALFORMED = ("(", "x^", "x +", "2*", "²", "q", "1/(x + 1)", "", "sin x")
GOOD_WEIGHTS = ("1,0,0", "0,1,0", "1/2,1/4,1/4", "1/3,1/3,1/3")
BAD_WEIGHTS = ("junk", "1,1,1", "1,0", "1/0,0,1")
GOOD_BASES = ("0,0,0", "1,1,0", "1/2,1,1")
BAD_BASES = ("junk", "1,2", "a,b,c")
GOOD_CONSTANTS = ("5", "-1/2")
BAD_CONSTANTS = ("q", "1/0")
PADDING = (" ", "  ", "\t", " \t ")
README = (
    ["inv-curl", "x*y*z + y^2", "x*z + y", "-z - y*z^2/2"],
    ["inv-grad", "--base", "0,0,0", "2*x*y", "x^2", "1"],
    ["inv-div", "4*rho", "--coords", "cylindrical", "--weights", "1,0,0", "--verify"],
)


def term(rng: random.Random, names) -> str:
    """A coefficient times powers of ``names``, sometimes with one function."""
    parts = [rng.choice(COEFFICIENTS)]
    for name in names:
        power = rng.choice((0, 0, 0, 1, 1, 2, 3, -1))
        if power:
            parts.append(name if power == 1 else f"{name}^{power}")
    if names and rng.random() < 0.15:
        tag = rng.choice(("sin", "cos", "exp", "ln"))
        parts.append(f"{tag}({rng.choice(('', '2*', '-'))}{rng.choice(names)})")
    return "*".join(parts)


def expression(rng: random.Random, names, most: int = 3) -> str:
    return " + ".join(term(rng, names) for _ in range(rng.randint(1, most)))


def pad(rng: random.Random, text: str) -> str:
    """``text``, now and then with spaces or tabs before or after it."""
    if rng.random() < 0.15:
        text = rng.choice(PADDING) + text
    if rng.random() < 0.15:
        text += rng.choice(PADDING)
    return text


def vector(rng: random.Random, coords: str, shape: str) -> list:
    """Three components: ``solenoidal`` makes h_j*h_k*B_i free of u_i,
    ``conservative`` makes h_i*A_i a function of u_i alone."""
    names, h = SYSTEMS[coords]
    components = []
    for i, j, k in CYCLES:
        if shape == "solenoidal":
            text = f"({expression(rng, (names[j], names[k]))})*({h[j]}*{h[k]})^-1"
        elif shape == "conservative":
            text = f"({expression(rng, (names[i],))})*({h[i]})^-1"
        else:
            text = expression(rng, names)
        components.append(text)
    return components


def kind_options(rng: random.Random, kind: str, bad: float) -> list:
    """Options that ``kind`` reads, each drawn malformed with chance ``bad``."""
    options = []
    if kind == "inv-div" and rng.random() < 0.4:
        weights = rng.choice(BAD_WEIGHTS if rng.random() < bad else GOOD_WEIGHTS)
        options.append(f"--weights={weights}")
    if kind == "inv-grad" and rng.random() < 0.4:
        base = rng.choice(BAD_BASES if rng.random() < bad else GOOD_BASES)
        options.append(f"--base={base}")
    if kind == "inv-grad" and rng.random() < 0.3:
        c0 = rng.choice(BAD_CONSTANTS if rng.random() < bad else GOOD_CONSTANTS)
        options.append(f"--c0={c0}")
    if rng.random() < 0.4:
        options.append(f"--samples={rng.choice((1, 7, 20, 0))}")
    if rng.random() < 0.2:
        options.append(f"--seed={rng.randint(0, 99)}")
    return options


def invocation(rng: random.Random) -> list:
    if rng.random() < 0.03:
        return list(rng.choice(README))
    command = rng.choice(COMMANDS)
    if rng.random() < 0.01:
        return [command, "--help"] if rng.random() < 0.8 else ["--help"]
    kind = rng.choice(KINDS) if command == "verify" else command
    coords = rng.choice(tuple(SYSTEMS))
    names = SYSTEMS[coords][0]

    if kind in SCALAR_KINDS:
        texts = [expression(rng, names)]
    else:
        shape = {"inv-curl": "solenoidal", "inv-grad": "conservative"}.get(kind)
        texts = vector(rng, coords, shape if rng.random() < 0.8 else None)
    if rng.random() < 0.05:
        texts[rng.randrange(len(texts))] = rng.choice(MALFORMED)
    if command == "verify" and rng.random() < 0.08:
        texts = texts[:-1] if len(texts) == 3 else texts + [expression(rng, names)]
    texts = [pad(rng, text) for text in texts]

    # Valued options are single words, so that a value starting with "-"
    # stays a value and the options can be shuffled.
    options = []
    if coords != "cartesian" or rng.random() < 0.2:
        options.append(f"--coords={coords}")
    if rng.random() < 0.3:
        options.append(f"--format={rng.choice(('json', 'text'))}")
    if kind in KINDS:
        options += kind_options(rng, kind, bad=0.25)
        if command == "verify":
            # Options of another kind, which verify accepts and ignores.
            other = rng.choice(KINDS)
            if other != kind and rng.random() < 0.3:
                options += kind_options(rng, other, bad=0.7)
        else:
            if rng.random() < 0.3:
                options.append("--verify")
            if kind != "inv-div" and rng.random() < 0.2:
                options.append("--unchecked")
            if kind == "inv-curl" and rng.random() < 0.2:
                gauge = (expression(rng, names, 2) if rng.random() < 0.8
                         else rng.choice(MALFORMED))
                options.append(f"--gauge-scalar={gauge}")
            if kind == "inv-div" and rng.random() < 0.2:
                gauge = [expression(rng, names, 2) for _ in range(3)]
                if rng.random() < 0.2:
                    gauge.pop()
                options.append(f"--gauge-vector={','.join(gauge)}")
    if rng.random() < 0.02:
        # An option the command does not take: a usage error.
        options.append(rng.choice(("--unchecked", "--verify", "--weights=1,0,0")))
    rng.shuffle(options)
    return [command, *options, "--", *([kind] if command == "verify" else []), *texts]


def run(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # recorded, so that the trees can be compared
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def transcript(main, seed: int, count: int):
    """The JSON lines of ``count`` invocations drawn from ``seed``, each run
    through ``main``."""
    rng = random.Random(seed)
    for _ in range(count):
        argv = invocation(rng)
        code, out, err = run(main, argv)
        yield json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err})


def main(args: list) -> int:
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    src, seed, count = os.path.abspath(args[0]), int(args[1]), int(args[2])
    # argparse wraps help to the terminal width; fix it.
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, src)
    from invdel.cli import main as cli_main

    for line in transcript(cli_main, seed, count):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
