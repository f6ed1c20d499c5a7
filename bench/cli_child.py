"""Traced stand-in for ``python -m invdel.cli``, used by traced cli_cold runs.

    python3 bench/cli_child.py ARGV...

Times ``import invdel.cli``, installs the tracer, runs
``invdel.cli.main(ARGV)`` with its stdout captured, and prints one JSON line:
the import and main times, the exit code, the captured stdout and the
per-layer counts.  ``invdel`` must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).
"""

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def main(argv) -> None:
    start = time.perf_counter()
    import invdel.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = invdel.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()

    samples = 0
    for line in captured.getvalue().splitlines():
        if line.startswith("verify: "):
            fields = dict(f.split("=", 1) for f in line[len("verify: "):].split())
            samples += int(fields["samples"]) + int(fields["resamples"])
    print(json.dumps({"import_s": import_s, "main_s": main_s, "code": code,
                      "stdout": captured.getvalue(), "verify_samples": samples,
                      "layers": tracer.snapshot()}))


if __name__ == "__main__":
    main(sys.argv[1:])
