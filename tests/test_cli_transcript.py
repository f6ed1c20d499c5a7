r"""The committed CLI transcript: ``tests/cli_differential.py`` at seed 1 x 1000,
regenerated in-process and compared line by line.

The transcript pins every output byte, exit code and JSON key of those
invocations.  A change that alters output on purpose regenerates it with

    python tests/cli_differential.py src 1 1000 \
        | python -m gzip --best > tests/cli_transcript.jsonl.gz

and lists the changed lines in CHANGES.md; it is never regenerated to hide
an unintended change.
"""

import gzip
import json
from pathlib import Path

import pytest

from invdel.cli import main

import cli_differential

TRANSCRIPT = Path(__file__).with_name("cli_transcript.jsonl.gz")
SEED, COUNT = 1, 1000


def test_cli_output_matches_the_committed_transcript(monkeypatch):
    # cli_differential fixes argparse's help width the same way.
    monkeypatch.setenv("COLUMNS", "80")
    with gzip.open(TRANSCRIPT, "rt", encoding="utf-8") as f:
        expected = f.read().splitlines()
    got = list(cli_differential.transcript(main, SEED, COUNT))
    for number, (want, line) in enumerate(zip(expected, got), start=1):
        if line != want:
            pytest.fail(f"invocation {number} differs: {json.loads(want)['argv']}\n"
                        f"expected: {want}\ngot:      {line}")
    assert len(got) == len(expected) == COUNT
