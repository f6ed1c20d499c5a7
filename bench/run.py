#!/usr/bin/env python3
"""invdel benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; invdel is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads (see README.md here):

    curl_corpus      parse -> inverse_curl -> render on the inverse-curl corpus
    div_grad_corpus  parse -> inverse_divergence / inverse_gradient -> render
    verify_reports   roundtrip_report(samples=100) on precomputed results
    cli_cold         one fresh ``python -m invdel.cli`` process per op

``--trace 0`` runs ops back to back for ``--seconds`` (and at least
MIN_OPS ops) over corpora generated from the seed, never one input twice,
and reports the end-to-end metrics.  ``--trace 1`` makes one traced pass
over the seed's corpus, a fixed amount of work so that every count repeats
exactly, and one untraced pass over another corpus of the same size, and
reports the per-layer metrics.  Every output is checked outside the timed
region.  Timings are reported at reference speed (see ``Calibration``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("curl_corpus", "div_grad_corpus", "verify_reports", "cli_cold")
# The acceptance suite's seeds (see workloads.py for how close the corpora are).
ACCEPTANCE_SEEDS = {"curl_corpus": 20260201, "div_grad_corpus": 20260202,
                    "verify_reports": 20260201, "cli_cold": 20260201}
MIN_OPS = 100            # p90 then has at least ten samples beyond it
# Corpora built per untraced run: about twice the inputs a 10 s run gets
# through at reference speed, so that the timed pass never has to run an
# input twice.  Each corpus is one set-up, and setup_s takes their median.
CORPORA = {"curl_corpus": 5, "div_grad_corpus": 16, "verify_reports": 4}
CORPUS_SEED_STEP = 100_003   # corpus k of seed N is generated with N + k*step
CLI_SETUP_REPEATS = 5
CLI_TRACE_ROUNDS = 5     # traced cli_cold: every example this many times
WARMUP_SEED_OFFSET = 1_000_003
CHILD_TIMEOUT_S = 60
CAL_INTERVAL_S = 0.05    # in-process work calibrates this often
CAL_REF_S = 0.0017       # expression probe time that defines reference speed
CLI_CAL_REF_S = 0.048    # bare interpreter start that defines it for cli_cold

# The README examples with their complete expected stdout; exit code 0.
CLI_EXAMPLES = (
    (("inv-curl", "x*y*z + y^2", "x*z + y", "-z - y*z^2/2"),
     "e1: x*z^2/4 + y^2*z^2/12 + 2*y*z/3\n"
     "e2: -x*y*z^2/3 - x*z/3 - y^2*z/2\n"
     "e3: -x^2*z/4 + x*y^2*z/6 - x*y/3 + y^3/6\n"),
    (("inv-grad", "--base", "0,0,0", "2*x*y", "x^2", "1"),
     "phi: x^2*y + z\n"),
    (("inv-div", "4*rho", "--coords", "cylindrical", "--weights", "1,0,0",
      "--verify"),
     "e1: 4*rho^2/3\ne2: 0\ne3: 0\n"
     "verify: symbolic_equal=True within_tolerance=True samples=100 seed=42 "
     "max_abs_error=0.0 max_rel_error=0.0 resamples=0\n"),
    (("verify", "inv-div", "3"),
     "e1: x\ne2: y\ne3: z\n"
     "verify: symbolic_equal=True within_tolerance=True samples=100 seed=42 "
     "max_abs_error=0.0 max_rel_error=0.0 resamples=0\n"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


class Record:
    """Outcome of one op: ok, refused or failed, its latency and output."""

    __slots__ = ("index", "status", "latency_s", "at", "output", "kept", "error")

    def __init__(self, index, status, latency_s, at, output=(), kept=None,
                 error=""):
        self.index = index
        self.status = status
        self.latency_s = latency_s
        self.at = at             # clock() when the op ended
        self.output = output
        self.kept = kept
        self.error = error


# --- calibration ---------------------------------------------------------

class ProbeHelper:
    """The expression probe of ``probe.py``, run in a helper process.

    Calling it with a count runs the probe that many times and returns the
    durations.  Use it as a context manager: on leaving, the helper is told
    to exit and waited for, or killed if it does not."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py")], cwd=BENCH_DIR,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self, count: int) -> list:
        self.proc.stdin.write(f"{count}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return json.loads(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Calibration:
    """Samples of a fixed probe taken between pieces of measured work.

    On a shared machine the processor's speed drifts by a third or more
    within seconds, and the measured work and a fixed probe slow down
    together.  Every timing is therefore reported at reference speed: its
    wall time times ``reference_s`` over the median of the probe samples
    taken around it.  Raw wall times are kept in the run record.
    ``measure(count)`` runs the probe ``count`` times and returns the
    durations.
    """

    def __init__(self, measure, reference_s: float):
        self.measure = measure
        self.reference_s = reference_s
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> None:
        took = self.measure(count)
        self.at.extend([clock()] * len(took))
        self.took.extend(took)

    def ref_s(self, wall_s: float, at: float) -> float:
        """``wall_s`` ending at ``at``, at reference speed; uses the three
        samples before ``at`` and the three after."""
        j = bisect.bisect(self.at, at)
        return wall_s * self.reference_s / statistics.median(
            self.took[max(0, j - 3):j + 3])

    def summary(self) -> dict:
        return {"reference_s": self.reference_s, "samples": len(self.took),
                "median_s": statistics.median(self.took)}


class Segments:
    """Times one long computation in segments of about CAL_INTERVAL_S,
    calibrating between them; ``tick`` is called at safe points."""

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.done: list[tuple[float, float]] = []
        self.start = clock()

    def tick(self) -> None:
        now = clock()
        if now - self.start >= CAL_INTERVAL_S:
            self.stop(now)
            self.start = clock()

    def stop(self, now=None) -> None:
        now = clock() if now is None else now
        self.done.append((now - self.start, now))
        self.cal.sample()

    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.done)

    def ref_s(self) -> float:
        return sum(self.cal.ref_s(wall, at) for wall, at in self.done)


# --- statistics ----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(records, distinct: int) -> str:
    """sha256 over the outputs of the first ``distinct`` ops, in op order."""
    h = hashlib.sha256()
    for r in records[:distinct]:
        h.update(f"{r.index}\t{r.status}\t{r.error}\t"
                 f"{'|'.join(r.output)}\n".encode())
    return h.hexdigest()


def busy_s(records, cal: Calibration) -> float:
    return sum(cal.ref_s(r.latency_s, r.at) for r in records)


def summarize(records, cal: Calibration, distinct: int) -> dict:
    counts = {s: sum(1 for r in records if r.status == s)
              for s in ("ok", "refused", "failed")}
    wall_ms = [r.latency_s * 1e3 for r in records]
    ref_ms = [cal.ref_s(r.latency_s, r.at) * 1e3 for r in records]
    n = len(records)
    return {
        "attempted": n,
        "ok": counts["ok"],
        "refused": counts["refused"],
        "failed": counts["failed"],
        "refused_share": counts["refused"] / n,
        "failed_share": counts["failed"] / n,
        "busy_s": sum(ref_ms) / 1e3,
        "ok_per_s": counts["ok"] / (sum(ref_ms) / 1e3),
        "op_ms_p50": statistics.median(ref_ms),
        "op_ms_p90": percentile(ref_ms, 0.9),
        "wall_busy_s": sum(wall_ms) / 1e3,
        "wall_ok_per_s": counts["ok"] / (sum(wall_ms) / 1e3),
        "wall_op_ms_p50": statistics.median(wall_ms),
        "wall_op_ms_p90": percentile(wall_ms, 0.9),
        "latency_samples": n,
        "digest": digest(records, distinct),
        "errors": sorted({r.error for r in records if r.status == "failed"})[:10],
    }


# --- in-process workloads ------------------------------------------------

def timed_pass(corpora, cal: Calibration, seconds=None, check=True):
    """Closed loop with one caller over the inputs of ``corpora``, in
    order; no input runs twice.  With ``seconds``, stop once that much time
    has passed and MIN_OPS ops are done, or when the inputs run out;
    without, run them all.  Calibrates every CAL_INTERVAL_S.  With
    ``check``, each corpus's outputs are checked when the loop leaves it,
    outside the op timings and the deadline, and their ``kept`` values
    dropped.  Returns the records and the reports' sample count."""
    import workloads

    refusals = workloads.REFUSALS
    records, samples = [], 0
    cal.sample(3)
    deadline = None if seconds is None else clock() + seconds
    next_cal = clock() + CAL_INTERVAL_S
    for items in corpora:
        first = len(records)
        for item in items:
            if (deadline is not None and len(records) >= MIN_OPS
                    and clock() >= deadline):
                break
            if clock() >= next_cal:
                cal.sample()
                next_cal = clock() + CAL_INTERVAL_S
            i = len(records)
            t0 = clock()
            try:
                output, kept = workloads.run_op(item)
            except refusals as exc:
                t1 = clock()
                records.append(Record(i, "refused", t1 - t0, t1,
                                      error=type(exc).__name__))
            except Exception as exc:  # any other error is a failed op, counted
                t1 = clock()
                records.append(Record(i, "failed", t1 - t0, t1,
                                      error=f"{type(exc).__name__}: {exc}"))
            else:
                t1 = clock()
                records.append(Record(i, "ok", t1 - t0, t1, output, kept))
        if check:
            t0 = clock()
            samples += check_records(items, records[first:])
            if first:
                # Only the first corpus's outputs go into the digest; the
                # rest are dropped so that memory does not grow with the
                # number of ops a run gets through.
                for r in records[first:]:
                    r.output = ()
            if deadline is not None:
                deadline += clock() - t0
        if len(records) - first < len(items):
            break
    cal.sample(3)
    return records, samples


def check_records(items, records) -> int:
    """Mark failed every success whose output does not check, and drop the
    values kept for the check.  ``records`` are the ops run on the first
    ``len(records)`` of ``items``.  Returns the reports' sample count."""
    import workloads

    samples = 0
    for item, r in zip(items, records):
        if r.status == "ok":
            if not workloads.check(item, r.kept):
                r.status, r.error = "failed", "output did not check"
            if item.kind == "report":
                samples += r.kept.sample_count + r.kept.resample_count
        r.kept = None
    return samples


def run_in_process(args) -> dict:
    package = SRC / "invdel"
    with ProbeHelper() as probe:
        cal = Calibration(probe, CAL_REF_S)
        cal.sample(5)
        sys.path.insert(0, str(SRC))
        t0 = clock()
        import invdel
        t1 = clock()
        cal.sample(5)
        if Path(invdel.__file__).resolve().parent != package.resolve():
            raise RuntimeError(f"imported invdel from {invdel.__file__}")
        return measure_in_process(args, cal, cal.ref_s(t1 - t0, t1))


def measure_in_process(args, cal: Calibration, import_s: float) -> dict:
    import workloads

    # Every corpus is a set-up of its own, from its own seed, started with
    # an empty atom cache.  The timed pass runs them in order, so no timed
    # input has run before; the traced run times one pass with tracing on
    # and one without, each on a corpus of its own.
    count = 2 if args.trace else CORPORA[args.workload]
    corpora, setups = [], []
    for k in range(count):
        workloads.clear_atom_cache()
        gc.collect()
        timer = Segments(cal)
        corpora.append(workloads.build(args.workload,
                                       args.seed + k * CORPUS_SEED_STEP,
                                       tick=timer.tick))
        timer.stop()
        setups.append(timer)
    timer = Segments(cal)
    warm = workloads.build(args.workload, args.seed + WARMUP_SEED_OFFSET,
                           workloads.WARMUP_SIZE, tick=timer.tick)
    timer.stop()

    timed_pass([warm], cal)     # untimed warm-up on another seed
    workloads.clear_atom_cache()
    gc.collect()
    gc.freeze()                 # set-up objects stay out of the timed GC work

    out = {"setup_s": import_s + statistics.median(t.ref_s() for t in setups)
           + timer.ref_s(),
           "import_s": import_s,
           "warmup_setup_s": timer.ref_s(),
           "setup_runs_s": [t.ref_s() for t in setups],
           "wall_setup_runs_s": [t.wall_s() for t in setups],
           "ops_per_corpus": [len(c) for c in corpora]}
    if not args.trace:
        records, _ = timed_pass(corpora, cal, args.seconds)
        out.update(summarize(records, cal, len(corpora[0])))
        out["inputs_exhausted"] = len(records) == sum(map(len, corpora))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["calibration"] = cal.summary()
        return out

    from tracer import Tracer

    # The traced pass runs on the workload's own corpus (the acceptance
    # corpus at the acceptance seed), so that its counts are the ones the
    # self-test compares; its outputs are checked after the tracer is gone.
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = timed_pass(corpora[:1], cal, check=False)
    finally:
        tracer.uninstall()
    samples = check_records(corpora[0], records)
    workloads.clear_atom_cache()
    plain, _ = timed_pass(corpora[1:], cal)
    out.update(summarize(records, cal, len(corpora[0])))
    out["untraced_busy_s"] = busy_s(plain, cal)
    out["untraced_failed"] = sum(r.status == "failed" for r in plain)
    out["errors"] += sorted({r.error for r in plain if r.status == "failed"})[:10]
    # Per op, since the two passes run on corpora of their own.
    out["trace_overhead"] = (out["busy_s"] / len(records)) / (
        out["untraced_busy_s"] / len(plain))
    out["layers"] = tracer.snapshot()
    out["verify_samples"] = samples
    out["calibration"] = cal.summary()
    return out


# --- cli_cold ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run ``python ARGV`` to completion: the process, its wall time and
    the clock() when it ended."""
    t0 = clock()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    t1 = clock()
    return proc, t1 - t0, t1


def cli_order(seed: int, ops: int) -> list:
    """Example indices: each round of four is a seeded permutation."""
    rng = random.Random(seed)
    order = []
    while len(order) < ops:
        round_ = list(range(len(CLI_EXAMPLES)))
        rng.shuffle(round_)
        order.extend(round_)
    return order[:ops]


def cli_record(i, example, proc, wall, at, stdout=None, code=None) -> Record:
    expected = CLI_EXAMPLES[example][1]
    stdout = proc.stdout.decode() if stdout is None else stdout
    code = proc.returncode if code is None else code
    ok = code == 0 and stdout == expected and proc.stderr == b""
    return Record(i, "ok" if ok else "failed", wall, at, (stdout,),
                  error="" if ok else f"exit {code}, stdout {stdout!r}, "
                                      f"stderr {proc.stderr.decode()!r}")


def run_cli(args) -> dict:
    # The probe is a bare interpreter start, which tracks a child's speed
    # far better than work in this process.
    env = child_env()
    cal = Calibration(lambda count: [spawn(["-c", "pass"], env)[1]
                                     for _ in range(count)], CLI_CAL_REF_S)
    cal.sample(3)
    setups = []
    for _ in range(CLI_SETUP_REPEATS):
        proc, wall, at = spawn(["-c", "import invdel.cli"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import invdel.cli: {proc.stderr.decode()}")
        setups.append((wall, at))
        cal.sample()
    cal.sample(2)
    out = {"setup_s": statistics.median(cal.ref_s(w, at) for w, at in setups),
           "setup_runs_s": [cal.ref_s(w, at) for w, at in setups],
           "wall_setup_runs_s": [w for w, _ in setups]}

    def plain_pass(order, seconds=None):
        records = []
        cal.sample(3)
        start = clock()
        i = 0
        while (i < len(order)) if seconds is None else (
                i < MIN_OPS or clock() - start < seconds):
            example = order[i]
            proc, wall, at = spawn(["-m", "invdel.cli", *CLI_EXAMPLES[example][0]], env)
            records.append(cli_record(i, example, proc, wall, at))
            cal.sample()
            i += 1
        cal.sample(2)
        return records

    if not args.trace:
        # Enough of the seeded order for any run length; ops past the
        # deadline are never started.
        order = cli_order(args.seed, max(MIN_OPS, int(args.seconds * 50)))
        records = plain_pass(order, args.seconds)
        out.update(summarize(records, cal, len(CLI_EXAMPLES)))
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        out["calibration"] = cal.summary()
        return out

    order = cli_order(args.seed, CLI_TRACE_ROUNDS * len(CLI_EXAMPLES))
    plain = plain_pass(order)
    child = str(BENCH_DIR / "cli_child.py")
    records, reports = [], []
    cal.sample(3)
    for i, example in enumerate(order):
        proc, wall, at = spawn([child, *CLI_EXAMPLES[example][0]], env)
        cal.sample()
        try:
            report = json.loads(proc.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            records.append(Record(i, "failed", wall, at, error="traced child: "
                                  + proc.stderr.decode()[-500:]))
            continue
        reports.append(report)
        records.append(cli_record(i, example, proc, wall, at,
                                  report["stdout"], report["code"]))
    cal.sample(2)
    for r, p in zip(records, plain):
        if p.status == "failed" and r.status == "ok":
            r.status, r.error = "failed", "untraced: " + p.error
    out.update(summarize(records, cal, len(CLI_EXAMPLES)))
    out["untraced_busy_s"] = busy_s(plain, cal)
    out["trace_overhead"] = out["busy_s"] / out["untraced_busy_s"]
    out["cli"] = {
        "import_s": statistics.median(r["import_s"] for r in reports),
        "main_s": statistics.median(r["main_s"] for r in reports),
        "process_s": statistics.median(cal.ref_s(r.latency_s, r.at) for r in plain),
    }
    layers = {}
    for report in reports:
        for key, stat in report["layers"].items():
            total = layers.setdefault(key, dict.fromkeys(stat, 0))
            for name, value in stat.items():
                total[name] += value
    out["layers"] = layers
    out["verify_samples"] = sum(r["verify_samples"] for r in reports)
    out["calibration"] = cal.summary()
    return out


# --- reporting -----------------------------------------------------------

def end_to_end_metrics(out: dict) -> dict:
    return {name: {"value": out[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(out: dict) -> dict:
    from tracer import ENTRY_POINTS

    layers = out["layers"]
    metrics = {}
    for module, names in ENTRY_POINTS.items():
        for fn in names:
            stat = layers[f"{module}.{fn}"]
            metrics[f"{module}.{fn}.calls"] = (stat["calls"], "count")
            metrics[f"{module}.{fn}.self_s"] = (stat["self_s"], "s")
    canon = layers["expr.canonicalize"]
    anti = layers["calculus.antidifferentiate"]
    metrics["expr.canonicalize.terms_out"] = (canon["terms_out"], "count")
    metrics["expr.canonicalize.calls_per_op"] = (
        canon["calls"] / out["attempted"], "count/op")
    metrics["calculus.antidifferentiate.refused"] = (anti["refused"], "count")
    metrics["calculus.antidifferentiate.ok_ratio"] = (
        (anti["calls"] - anti["refused"]) / anti["calls"] if anti["calls"] else 0.0,
        "ratio")
    metrics["verify.samples"] = (out["verify_samples"], "count")
    cli = out.get("cli", {})
    for name in ("import_s", "main_s", "process_s"):
        metrics[f"cli.{name}"] = (cli.get(name, 0.0), "s")
    metrics["run.ops"] = (out["attempted"], "count")
    metrics["run.refused_share"] = (out["refused_share"], "share")
    metrics["run.failed_share"] = (out["failed_share"], "share")
    metrics["run.trace_overhead"] = (out["trace_overhead"], "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "invdel"
    if not (package / "__init__.py").is_file():
        print(f"error: no invdel source at {package}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    # Import and CLI start-up then load bytecode, on the first run in a
    # checkout as on every later one.
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: invdel source does not compile", file=sys.stderr)
        return 2

    # Children and the probe helper inherit the pin to one CPU, so probes
    # and measured work run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out = run_cli(args) if args.workload == "cli_cold" else run_in_process(args)

    metrics = per_layer_metrics(out) if args.trace else end_to_end_metrics(out)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0], "metrics": metrics,
              **{k: v for k, v in out.items() if k != "layers"},
              "layers": out.get("layers")}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"attempted {out['attempted']} ok {out['ok']} refused {out['refused']} "
          f"failed {out['failed']} refused_share {out['refused_share']} share "
          f"failed_share {out['failed_share']} share "
          f"latency_samples {out['latency_samples']} digest {out['digest']}")
    if not args.trace:
        print("unscaled wall: " + " ".join(
            f"{k} {out['wall_' + k]}" for k in ("ok_per_s", "op_ms_p50", "op_ms_p90"))
            + f" calibration_median_s {out['calibration']['median_s']}")
    for error in out["errors"]:
        print(f"failed: {error}")
    print(f"results {path.relative_to(ROOT)}")
    if out.get("inputs_exhausted"):
        print(f"note: all {out['attempted']} inputs ran before {args.seconds} s "
              "had passed")
    print(json.dumps({"correct": out["failed"] == 0 and not out.get("untraced_failed"),
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
