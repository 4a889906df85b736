"""Benchmark of the workbench: time to verdict on four workloads.

    python3 perfbench/run.py --workload deep_protocols --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run is one workload in its own
process: it sets the program up several times (fresh imports, seeded
inputs, scratch directory), then runs whole passes of the workload's op mix
for about `--seconds`, checking every verdict against its known answer.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
replays the same passes with every layer wrapped and reports per-layer
metrics.  The last line of output is the result as JSON.
`--workload all` runs every workload, one process each, and prints a table.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = ("src/mpst/__init__.py", "scripts/run_pipeline.py",
            "scripts/composition_audit.py", "tests/randgen.py", "corpus/relay.gt")
SETUP_REPEATS = 7
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SCRATCH_ROOT = ROOT / ".perfbench-tmp"
SPANS = ROOT / ".perfbench-spans"

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "verdict_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Program:
    """The workbench modules, imported afresh as a new process would."""

    module_roots = ("mpst", "randgen", "run_pipeline", "composition_audit")

    def __init__(self):
        for name in list(sys.modules):
            if name.split(".")[0] in self.module_roots:
                del sys.modules[name]
        self.root = ROOT
        for sub in ("core", "parser", "typecheck", "semantics", "compose", "cli"):
            setattr(self, sub, importlib.import_module(f"mpst.{sub}"))
        self.randgen = importlib.import_module("randgen")
        self.run_pipeline = importlib.import_module("run_pipeline")
        self.audit = importlib.import_module("composition_audit")


def set_up(workload_cls, seed, scratch_root, probe):
    """Set up SETUP_REPEATS times; the median time at reference speed, the
    median wall-clock time and the last workload."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        scratch = tempfile.mkdtemp(dir=scratch_root)
        workload = workload_cls(Program(), seed, scratch)
        times.append(perf_counter() - start)
        scaled.append(times[-1] * probe.bracket())
    return statistics.median(scaled), statistics.median(times), workload


def run_passes(workload, ledger, seconds, passes=None):
    """Whole passes: a given count, or until the next would end further past
    `seconds` than stopping now falls short.  Returns (passes, wall seconds)."""
    start = perf_counter()
    done = 0
    while True:
        workload.run_pass(ledger, done)
        done += 1
        wall = perf_counter() - start
        if passes is not None:
            if done == passes:
                return done, wall
        elif wall + wall / done / 2 >= seconds and ledger.attempted >= MIN_OPS:
            return done, wall


def rank(values, q):
    """Nearest-rank quantile of an ascending list."""
    return values[max(0, math.ceil(len(values) * q) - 1)] if values else float("inf")


def end_to_end(seconds, failed_ops, busy, setup_s):
    """The metrics from per-op times, the ops' total time and set-up time."""
    ok = [s for i, s in enumerate(seconds) if i not in failed_ops]
    # a failed op ranks slower than every success
    ranked = sorted(ok) + [float("inf")] * len(failed_ops)
    return {
        "verdicts_per_s": len(ok) / busy,
        "verdict_p50_ms": rank(ranked, 0.5) * 1e3,
        "verdict_p90_ms": rank(ranked, 0.9) * 1e3,
        "verdict_ok_ratio": len(ok) / len(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": commit(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name, seed, seconds, traced):
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH_ROOT)
    try:
        probe = speed.SpeedProbe()
        setup_s, setup_wall, workload = set_up(workloads.WORKLOADS[name], seed, scratch, probe)
        ledger = workloads.Ledger(probe)
        if not traced:
            probed = probe.spent
            passes, wall = run_passes(workload, ledger, seconds)
            metrics = end_to_end(ledger.scaled, ledger.failed_ops, sum(ledger.scaled), setup_s)
            units = END_TO_END_UNITS
            # the same metrics in wall-clock time, for the printed listing
            raw = end_to_end(ledger.seconds, ledger.failed_ops,
                             wall - (probe.spent - probed), setup_wall)
        else:
            # untraced passes for a quarter of the time, then the same passes traced
            plain = workloads.Ledger(probe)
            passes, _ = run_passes(workload, plain, seconds / 4)
            tracer = tracing.Tracer(ledger)
            tracer.install(workload.prog)
            try:
                _, wall = run_passes(workload, ledger, seconds, passes)
            finally:
                tracer.uninstall()
            # one factor for the whole run turns the layers' summed times into
            # times at reference speed, as the probes between ops measured it
            metrics = tracer.metrics(sum(ledger.scaled) / sum(ledger.seconds))
            metrics["core.intern.growth_exponent"] = 0.0
            if hasattr(workload, "layer_metrics"):
                metrics.update(workload.layer_metrics(tracer, ledger))
            metrics["trace.overhead_ratio"] = sum(ledger.scaled) / sum(plain.scaled)
            units = tracing.metric_units()
            SPANS.mkdir(exist_ok=True)
            tracer.write_spans(SPANS / f"{name}.tsv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    failures = {}
    for op, (cause, wrong) in ledger.failed_ops.items():
        key = (ledger.labels[op], cause, wrong)
        failures[key] = failures.get(key, 0) + 1
    print(f"workload {name}, seed {seed}, trace {int(traced)}: {ledger.attempted} ops "
          f"in {passes} passes, {wall:.3f} s timed; environment {json.dumps(environment())}")
    for (label, cause, wrong), count in sorted(failures.items()):
        kind = "WRONG VERDICT" if wrong else "failed"
        print(f"  {kind} x{count}: {label}: {cause}")
    print(f"  failed_ratio {len(ledger.failed_ops) / ledger.attempted:.6g} "
          f"({len(ledger.failed_ops)}/{ledger.attempted})")
    print(f"  times at reference speed, where one probe takes {speed.REFERENCE_MS} ms; "
          f"probes took {min(probe.samples) * 1e3:.3f} to {max(probe.samples) * 1e3:.3f} ms "
          f"(median {statistics.median(probe.samples) * 1e3:.3f}) over {len(probe.samples)} probes")
    for key, value in metrics.items():
        layer, _, field = key.rpartition(".")
        if field in ("self_s", "calls") and not metrics[f"{layer}.calls"]:
            continue  # a layer this workload does not reach
        wall_clock = f"  wall clock {raw[key]:12.6g}" if not traced else ""
        print(f"  {key:40s} {value:14.6g} {units[key]:6s} (n={ledger.attempted} ops){wall_clock}")
    return {
        "correct": not any(wrong for _, wrong in ledger.failed_ops.values()),
        "attempted": ledger.attempted,
        "failed": len(ledger.failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, then one table of their results."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        print(out, end="")
        results[name] = json.loads(out.strip().splitlines()[-1])
    keys = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':40s}" + "".join(f"{n:>16s}" for n in results))
    for key in keys:
        print(f"{key:40s}" + "".join(f"{r['metrics'][key]['value']:16.6g}"
                                     for r in results.values()))
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        sys.exit(f"not a workbench checkout: {ROOT} lacks {', '.join(missing)}")
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
