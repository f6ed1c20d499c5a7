#!/usr/bin/env python3
"""Measure a baseline: seeded untraced runs plus one traced run per workload.

    python3 bench/baseline.py OUT.json

For every workload in BENCHMARK.json, makes RUNS untraced runs of
``run_seconds`` on seeds 1..RUNS, one after another, and records
each end-to-end metric's median, quartiles and spread (quartile distance
over median), with the median refused share.  Then makes one traced run at
the workload's acceptance seed and records its per-layer metrics, refused
count and output digest.  Writes everything to OUT.json.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ACCEPTANCE_SEEDS, BENCH_DIR, OUT_DIR, ROOT

RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    return json.loads(
        (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    result = {"python": platform.python_version(), "machine": platform.machine(),
              "run_seconds": seconds, "seeds": list(range(1, RUNS + 1)),
              "end_to_end": {}, "traced": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [run(workload, seed, seconds, 0) for seed in result["seeds"]]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in records]
            summary[m["name"]] = {"unit": m["unit"], **spread(values)}
        summary["refused_share"] = statistics.median(r["refused_share"] for r in records)
        summary["failed"] = sum(r["failed"] for r in records)
        result["end_to_end"][workload] = summary
        seed = ACCEPTANCE_SEEDS[workload]
        traced = run(workload, seed, seconds, 1)
        result["traced"][workload] = {
            "seed": seed, "attempted": traced["attempted"],
            "refused": traced["refused"], "failed": traced["failed"],
            "digest": traced["digest"],
            "counts": {name: m["value"] for name, m in traced["metrics"].items()
                       if m["unit"] == "count"},
            "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        line = ", ".join(f"{k} {v['median']:.4g} ({v['spread']:.3f})"
                         for k, v in summary.items() if isinstance(v, dict))
        print(f"{workload}: {line}", flush=True)
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
