#!/usr/bin/env python3
"""Compares a parent revision with this checkout in interleaved benchmark pairs.

Usage (from anywhere inside a source checkout):

  python3 scripts/perf_pairs.py <parent-rev> --workload analytic_cold \\
      --seeds 1-10 [--held-out 1009] [--seconds 30]

The parent revision is checked out into a temporary `git worktree` (removed
again on exit). Each seed is one pair: `perfbench/run.py` runs once on the
parent and once on this checkout (its working tree, uncommitted edits
included), alternating which side runs first. `--workload` may be repeated;
without it every workload of BENCHMARK.json is run, each in its own rows.
`--held-out SEED` adds `--held-out-pairs` pairs on a seed kept out of
development, reported in rows of their own.

For every end-to-end metric the report gives both sides' median and
quartiles (statistics.quantiles, n=4), the median change, how many pairs the
change won (ties count for neither side) and a verdict:

  gain         the change wins >= 9/10 of the pairs and the medians differ by
               more than the parent's interquartile range, in the better
               direction;
  regression   the change's median is worse than the parent's by more than
               the metric's bound from BENCHMARK.json;
  unresolved   the parent's own spread (IQR / median) is wider than the bound
               and the change did not beat every parent run;
  within bound otherwise.

Benchmark builds land in each tree's .bench_build/; nothing is written under
perfbench/. `--json FILE` also saves every run's metrics. The exit status is
1 when any row is a regression or a run fails its oracle, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_bench(tree, workload, seed, seconds, extra=()):
    command = [sys.executable, str(tree / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *extra]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{tree}: {workload} seed {seed}: oracle failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """One row's verdict over paired runs (see the module docstring)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (cm - pm)
    if wins * 10 >= 9 * len(parent) and gap > (p3 - p1):
        return wins, "gain"
    if bound is not None and -gap > bound * abs(pm):
        return wins, "regression"
    beats_all = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    if (bound is not None and pm and (p3 - p1) / abs(pm) > bound
            and not beats_all):
        return wins, "unresolved"
    return wins, "within bound"


def report(label, runs, metrics):
    """Prints one workload's rows; returns True when any row regressed."""
    print(f"\n== {label}: {len(runs)} pairs (parent vs change)")
    print(f"{'metric':22s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s} {'wins':>5s}  verdict")
    regressed = False
    for m in metrics:
        name = m["name"]
        parent = [r["parent"][name] for r in runs if name in r["parent"]]
        change = [r["change"][name] for r in runs if name in r["change"]]
        if not parent or len(parent) != len(change):
            continue
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins, word = verdict(parent, change, m["better"], m.get("bound"))
        regressed |= word == "regression"
        delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "-"
        parent_text = f"{pm:.5g} [{p1:.4g}, {p3:.4g}]"
        change_text = f"{cm:.5g} [{c1:.4g}, {c3:.4g}]"
        print(f"{name:22s} {parent_text:34s} {change_text:34s} {delta:>8s} "
              f"{wins:>2d}/{len(parent):<2d}  {word}")
    return regressed


def run_pairs(parent_tree, workload, seeds, seconds, runs):
    for i, seed in enumerate(seeds):
        sides = [("parent", parent_tree), ("change", ROOT)]
        if i % 2 == 1:
            sides.reverse()
        pair = {"seed": seed, "first": sides[0][0]}
        for side, tree in sides:
            pair[side] = run_bench(tree, workload, seed, seconds)
        runs.append(pair)
        print(f"{workload} seed {seed} ({pair['first']} first) done",
              file=sys.stderr, flush=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--held-out-pairs", type=int, default=3)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        str(parent_tree), args.parent_rev], check=True,
                       stdout=sys.stderr)
        try:
            # Build both engines before any timed run.
            for tree in (parent_tree, ROOT):
                run_bench(tree, workloads[0], 1, 1, extra=("--tiny",))
            results = {}
            for workload in workloads:
                runs = results.setdefault(workload, [])
                run_pairs(parent_tree, workload, seeds, seconds, runs)
                if args.held_out is not None:
                    held = results.setdefault(
                        f"{workload} (held-out seed {args.held_out})", [])
                    run_pairs(parent_tree, workload,
                              [args.held_out] * args.held_out_pairs, seconds,
                              held)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(parent_tree)], stdout=sys.stderr)

    print(f"parent {args.parent_rev} vs working tree, {seconds} s per run")
    regressed = False
    for label, runs in results.items():
        regressed |= report(label, runs, spec["end_to_end"])
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
