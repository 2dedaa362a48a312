"""Benchmark of the multidescent CLI: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-curves --seed 1 --seconds 50 --trace 0

Workloads are described in bench/README.md.  The workload runs in one fresh
interpreter (``worker.py``), command by command on request; passes start
until ``--seconds`` are up, with at least two.  Set-up is timed in other
fresh interpreters (``worker.py --setup-only``): one warm-up start, then
SETUP_RUNS timed starts spread evenly over the run, each between two
commands while the workload process waits.  Only one process computes at a
time.

stdout: a table of every metric with its unit, a provenance line, and as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: its second half is traced, and the spans go to bench/out/.  Exits
non-zero, printing no result, when ``src/multidescent`` is missing or a
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150


def _worker_argv(args, *extra) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_start(args) -> float:
    """Seconds from starting a fresh interpreter to its ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(_worker_argv(args, "--setup-only"), stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with status {child.returncode}")
    return elapsed


def _ask(worker, request: str) -> str:
    worker.stdin.write(request + "\n")
    worker.stdin.flush()
    reply = worker.stdout.readline()
    if not reply:
        raise RuntimeError(f"workload process ended with status {worker.wait()}")
    return reply.strip()


def measure(args) -> tuple[list[float], dict]:
    """Run the workload; returns the set-up samples and the worker's report."""
    setup_start(args)  # fills the bytecode caches; not timed
    due = [] if args.trace else [(i + 0.5) * args.seconds / SETUP_RUNS for i in range(SETUP_RUNS)]
    samples = []
    with subprocess.Popen(_worker_argv(args), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as worker:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, worker.kill)
        watchdog.start()
        try:
            if worker.stdout.readline().strip() != "ready":
                raise RuntimeError(f"workload process failed with status {worker.wait()}")
            start = time.perf_counter()
            passes = traced = 0
            while True:
                now = time.perf_counter() - start
                if args.trace and not traced and passes and now >= args.seconds / 2:
                    worker.stdin.write("trace\n")
                    traced = passes
                done = passes >= MIN_PASSES and (not args.trace or passes > traced > 0)
                if done and now >= args.seconds:
                    break
                while True:
                    if due and time.perf_counter() - start >= due[0]:
                        due.pop(0)
                        samples.append(setup_start(args))
                    if _ask(worker, "next") == "pass":
                        break
                passes += 1
            samples += [setup_start(args) for _ in due]
            worker.stdin.write("report\n")
            worker.stdin.flush()
            report = json.loads(worker.stdout.readline())
            if worker.wait() != 0:
                raise RuntimeError(f"workload process failed with status {worker.returncode}")
        finally:
            watchdog.cancel()
    return samples, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "multidescent", "cli.py")):
        print("bench: run from the root of a checkout; src/multidescent not found",
              file=sys.stderr)
        return 2
    try:
        setup_samples, report = measure(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    totals = report["totals"]
    attempted = sum(totals.values())
    per_pass = report["per_pass"]
    # A replication whose mean missed the Monte Carlo band still completed.
    completed_per_pass = per_pass["ok"] + per_pass["stat"]
    correct = totals["wrong"] == 0 and report["stdout_identical"]
    if args.trace:
        metrics = {name: (report["layers"][name], unit) for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (report["wall_s"], "s"),
            "ops_per_s": (completed_per_pass / report["wall_s"], "1/s"),
            "ok_share": (totals["ok"] / attempted, "ratio"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {report['passes']}  stdout sha256 {report['stdout_sha256'][:16]}")
    print("  pass seconds: " + " ".join(f"{t:.4f}" for t in report["pass_seconds"]))
    if setup_samples:
        print("  set-up seconds: " + " ".join(f"{t:.4f}" for t in setup_samples))
    print(f"  ops per pass: {sum(per_pass.values())} attempted, {per_pass['ok']} ok, "
          f"{per_pass['loud']} loud solver failures, {per_pass['stat']} outside the "
          f"Monte Carlo band, {per_pass['wrong']} wrong")
    print(f"  {'fail_share':34s} {1.0 - totals['ok'] / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for note in report["notes"]:
        print(f"  note: {note}")
    if "spans_file" in report:
        print(f"  spans: {report['spans_file']}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": totals["wrong"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
