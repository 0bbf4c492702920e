"""transknot benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json lists the workloads the benchmark gates on; the others in
workloads.py run the same way.  Load comes from this single
process with one client and no threads, in a closed loop: an op starts
only after the previous one finished and was checked.  Ops come in
rounds (see workloads.py); rounds start until S seconds have passed and
every round started is completed, so each run measures whole rounds.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  setup_s is the median over several fresh processes of
the time from process start to the first timed op (imports, hash-checked
inputs, warm-up).  Throughput counts ops that passed their checks over
the time spent inside ops; checks run outside that time.

With --trace 1 it reports the per-layer metrics instead: one round is run
untraced and then again with tracing wrappers installed, and the totals
of the traced pass are reported.  The op count is fixed by the seed, so
counts repeat exactly for a given seed; --seconds is not used.

--max-ops caps the number of ops, for the benchmark's own quick tests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckFailed, Inputs, SetupError, child_env, import_program

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5


def open_workload(name: str, seed: int):
    """Everything between process start and the first timed op."""
    tk = import_program(ROOT)
    inputs = Inputs(Path(__file__).resolve().parent / "inputs")
    workload = WORKLOADS[name](tk, inputs, seed, ROOT)
    op = workload.warm_up()
    op.check(op.run(None), op.expected)
    return workload


def run_ops(ops, tracer_=None):
    """Run ops in a closed loop; returns (latency, passed) per op."""
    results = []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer_ is None:
                out = op.run(None)
            else:
                with tracer_.active(i):
                    out = op.run(tracer_)
        except Exception:  # an op that raises is a failed op, not a failed run
            results.append((time.perf_counter() - start, False))
            print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latency = time.perf_counter() - start
        try:
            op.check(out, op.expected)
            passed = True
        except CheckFailed as e:
            print(f"op {op.label} failed its check: {e}", file=sys.stderr)
            passed = False
        except Exception:
            print(f"op {op.label} check raised:\n{traceback.format_exc()}", file=sys.stderr)
            passed = False
        results.append((latency, passed))
    return results


def timed_rounds(workload, seconds: float, max_ops: int | None):
    results = []
    start = time.perf_counter()
    r = 0
    while True:
        ops = workload.round(r)
        if max_ops is not None:
            ops = ops[: max_ops - len(results)]
        results += run_ops(ops)
        r += 1
        if time.perf_counter() - start >= seconds or (
            max_ops is not None and len(results) >= max_ops
        ):
            return results


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, measured from spawn to 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up child exited with {proc.returncode}")
    return samples


def end_to_end(args, workload) -> tuple[dict, list]:
    results = timed_rounds(workload, args.seconds, args.max_ops)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-small" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    passed = sum(1 for _, ok in results if ok)
    busy = sum(lat for lat, _ in results)
    values = {
        "setup_s": statistics.median(setup_seconds(args)),
        "throughput_ops_s": passed / busy,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, results


def per_layer(args, workload, names) -> tuple[dict, list]:
    ops = workload.round(0)[: args.max_ops]
    plain = run_ops(ops)
    t = tracer.Tracer()
    traced = run_ops(ops, t)
    summary = t.summary()
    values = dict(t.values)
    values["trace.overhead_ratio"] = sum(lat for lat, _ in plain) / sum(lat for lat, _ in traced)
    for name in names:
        if name not in values:
            values[name] = tracer.layer_value(summary, name)
    return values, plain + traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workload = open_workload(args.workload, args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = [m["name"] for m in metrics]
        if args.trace:
            values, results = per_layer(args, workload, names)
        else:
            values, results = end_to_end(args, workload)
    except (SetupError, CheckFailed, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    failed = sum(1 for _, ok in results if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
