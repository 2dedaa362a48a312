"""Run the benchmark over several seeds and summarise each end-to-end metric.

From the root of a checkout:

    python3 bench/collect.py --seeds 1-10 --seconds 40 --out bench/baseline.json

Runs ``bench/run.py --trace 0`` once per (workload, seed), one at a time, and
writes per workload and metric the median, the quartiles, the spread
(quartile distance over median, as the bounds in BENCHMARK.json are read)
and every value, with the provenance of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOAD_NAMES  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, provenance = {}, None
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = json.loads(lines[-2].partition(" ")[2])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        metrics = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
        summary["workloads"][workload] = {"metrics": metrics}
        summary["provenance"] = provenance
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
