#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage (from the root of a source checkout):

  python3 perfbench/spread.py --workload update_mix --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of that median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread at or above the bound is flagged; setup_s is
exempt, as in the acceptance rule. Runs use BENCHMARK.json's run_seconds
unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    within = True
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound:
            flag = "  OVER BOUND"
            within = False
        elif bound is not None and spread >= bound / 3:
            flag = "  above a third of the bound"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:34s} median={median:<12.5g} spread={spread:6.3f} "
              f"bound={bound_text}{flag}")
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
