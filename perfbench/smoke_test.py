#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at a tiny size (--tiny, 1 second), untraced and traced,
and checks that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * the untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and the traced run every per-layer metric;
  * every answer matched its oracle (correct, failed == 0, so
    failed_op_ratio is 0).

Usage, from the root of a source checkout:  python3 perfbench/smoke_test.py
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"FAIL {label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {label}: failed_op_ratio is not 0: {result}")
            if result["attempted"] < 1:
                sys.exit(f"FAIL {label}: nothing attempted")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            if sorted(metrics) != sorted(names):
                missing = sorted(set(names) - set(metrics))
                extra = sorted(set(metrics) - set(names))
                sys.exit(f"FAIL {label}: missing {missing}, extra {extra}")
            for m in expected[trace]:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"]:
                    sys.exit(f"FAIL {label}: {m['name']} unit {got['unit']}")
                if not isinstance(got["value"], (int, float)):
                    sys.exit(f"FAIL {label}: {m['name']} value {got['value']}")
            print(f"ok   {label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations, all correct")
    print("smoke test passed")


if __name__ == "__main__":
    main()
