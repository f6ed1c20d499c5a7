"""The frozen files, pinned by their sha256.

Each ``tests/_reference_*.py`` is a frozen copy of an earlier algorithm
that the library is compared with, and ``tests/cli_transcript.jsonl.gz``
is the committed CLI transcript (``test_cli_transcript``).  Neither follows
a change of the library.  An intended transcript change regenerates it,
updates its pin here and lists the changed lines in CHANGES.md; a new
reference file is pinned when it is added, and fails this test until then.
"""

import hashlib
from pathlib import Path

TESTS = Path(__file__).parent
PINS = {
    "_reference_curl_formula.py":
        "d4ca39d8340ab3287b84fa1b0f02b7a0557169dce82701b7a2dae466a73f2c86",
    "_reference_parser.py": "88fadf286cbdbc933815814e6ad800eb7a62a14dd2684d473002252d627c332f",
    "_reference_substitute.py":
        "80c4224d7247f922db027546c2c1668d934f7838c48eca35c7761b048394e88a",
    "_reference_weighted.py": "c62395ba714a751657d92d0d3b5be2fd44380a680b71223616af7fccee15929f",
    "cli_transcript.jsonl.gz": "536d8b9e9fc0a83eeb273ce48836934eca1233c93cd157643e7ff010788ef94e",
}


def test_every_frozen_file_has_its_pinned_sha256():
    frozen = [*TESTS.glob("_reference_*.py"), TESTS / "cli_transcript.jsonl.gz"]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in frozen} == PINS
