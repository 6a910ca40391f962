#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--trace 0|1]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` from BENCHMARK.json, and prints per metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        if len(series) < 2:
            print(f"{name}: median {median:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
