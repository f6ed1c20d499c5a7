#!/usr/bin/env python3
"""Self-test of the benchmark: traced counts repeat exactly.

    python3 bench/selftest.py [BASELINE.json]

Makes two traced runs of every workload at its acceptance seed, each in a
fresh process, and fails (exit 1) unless

- every per-layer count (``*.calls``, ``terms_out``, ``refused``,
  ``verify.samples``, ``run.ops``) and the output digest agree between the
  two runs,
- no op failed, and
- the number of refused ops equals the one the baseline file records
  (default ``bench/BENCH_baseline.json``: 183 on curl_corpus and 187 on
  div_grad_corpus).

Counts that differ from the baseline's are listed as information; a change
to the library is expected to move them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ACCEPTANCE_SEEDS, BENCH_DIR, OUT_DIR, ROOT, WORKLOADS


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    path = OUT_DIR / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def counts(record: dict) -> dict:
    return {name: m["value"] for name, m in record["metrics"].items()
            if m["unit"] == "count"}


def main(argv) -> int:
    baseline_path = Path(argv[0]) if argv else BENCH_DIR / "BENCH_baseline.json"
    baseline = json.loads(baseline_path.read_text())["traced"]
    problems = []
    for workload in WORKLOADS:
        seed = ACCEPTANCE_SEEDS[workload]
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        a, b = counts(first), counts(second)
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                problems.append(f"{workload}: {name} {a.get(name)} != {b.get(name)}")
        if first["digest"] != second["digest"]:
            problems.append(f"{workload}: output digests differ")
        for run in (first, second):
            if run["failed"]:
                problems.append(f"{workload}: {run['failed']} ops failed: "
                                f"{run['errors']}")
        expected = baseline[workload]
        if first["refused"] != expected["refused"]:
            problems.append(f"{workload}: {first['refused']} refused, baseline "
                            f"{baseline_path.name} records {expected['refused']}")
        moved = [f"{name} {expected['counts'].get(name)} -> {value}"
                 for name, value in sorted(a.items())
                 if expected["counts"].get(name) != value]
        print(f"{workload} seed {seed}: {first['attempted']} ops, "
              f"{first['refused']} refused, {len(a)} counts repeat"
              + ("" if not moved else "; moved against baseline: "
                 + ", ".join(moved)))
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
