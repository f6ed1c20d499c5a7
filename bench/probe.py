"""Probe helper for the in-process workloads, run as its own process.

    python3 bench/probe.py

Reads one whole number per line from stdin, runs the expression probe that
many times, and writes the durations in seconds as one JSON list per line.
It exits at the end of its input.  ``run.py`` starts it and asks it for a
sample between pieces of measured work.

The probe runs in a process of its own so that nothing the library does to
the process it runs in (garbage-collector settings, a heap grown by a
cache, interpreter settings) reaches the probe and cancels out of the
reported times.  ``run.py`` pins itself to one CPU before it starts this
helper, which inherits the pin, so probe and measured work share a CPU.
"""

import json
import sys
import time

from refexpr import expr as E


def expression_probe():
    """Canonicalize, rebuild, substitute and evaluate one fixed expression
    with ``refexpr``, a frozen copy of the library's expression kernel.  It
    slows down with the machine the way the library does; a generic loop of
    Fraction sums slowed down 7% more than the workloads did."""
    x, y, z = E.var("x"), E.var("y"), E.var("z")
    tree = ((E.num(2, 3) * x * y + E.sin(z) * y ** 2 - E.num(5) * z)
            * (x + E.num(1, 7) * y * z + x ** 2) * (y - z))
    points = [{"x": 0.3 * k, "y": 1.1 - 0.2 * k, "z": 0.7 + 0.1 * k}
              for k in range(4)]

    def probe():
        e = E.expression_of(E.canonicalize(tree))
        E.canonicalize(E.substitute(e, "x", E.num(1, 2)))
        for point in points:
            E.eval_numeric(e, point)

    return probe


def main() -> None:
    probe = expression_probe()
    clock = time.perf_counter
    for line in sys.stdin:
        took = []
        for _ in range(int(line)):
            t0 = clock()
            probe()
            took.append(clock() - t0)
        sys.stdout.write(json.dumps(took) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
