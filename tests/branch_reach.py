"""Statements of ``src/invdel`` that the tier-1 tests never reach.

    python tests/branch_reach.py [PYTEST_ARGS...]

Runs pytest on the tests in this process under a ``sys.settrace`` tracer
that records the lines run in ``src/invdel``, then prints one line per
statement that no test reached (file, line and its text) and, last, their
count; pytest's own report goes to stderr.  A statement is reached when one
of its own lines runs: those from its first line (or decorator) to the line
before its body.  A statement with no code, such as a docstring, is not
counted.  A test that starts a CLI process of its own is not followed into
it.  It takes about four times as long as the tests.

It exits 0 whatever it finds; the CI job on Python 3.11 fails unless its
last line reads ``unreached statements: 0``.  It uses the standard library
and pytest only, and pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "invdel"


def _code_lines(code) -> set[int]:
    """The lines that carry instructions, in ``code`` and the code it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, set[int]]:
    """First line of each statement with code -> the lines of its own."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    result = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = [child.lineno for field in ("body", "handlers", "orelse", "finalbody")
                for child in getattr(node, field, ())]
        own = set(range(first, min(body, default=node.end_lineno + 1))) & code_lines
        if own:
            result[node.lineno] = own
    return result


def main(argv: list[str]) -> int:
    import pytest

    hits: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = hits.setdefault(frame.f_code.co_filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # The CLI processes some tests start import the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        # pytest reports on stderr, so that stdout is the list alone.
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                         *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        text = path.read_text().splitlines()
        for lineno, own in sorted(statements(path).items()):
            if not own & ran:
                unreached += 1
                print(f"{path.name}:{lineno}: {text[lineno - 1].strip()}")
    print(f"unreached statements: {unreached}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
