#!/usr/bin/env python3
"""Runs alternating parent/change pairs of perfbench/run.py and summarises them.

Usage, from anywhere:

    python3 scripts/perf_pairs.py --parent DIR --change DIR --workload field10k \
        --pairs 10 --seconds 45 --seed 7000
    python3 scripts/perf_pairs.py --self-test

Each checkout builds perfbench into its own CARGO_TARGET_DIR
(<checkout>/.bench_build), so the two builds never share objects. Pair i runs
both sides on seed --seed + i; even pairs run the parent first, odd pairs the
change. For every end-to-end metric in the change's BENCHMARK.json the
summary prints each side's median and quartiles, how many pairs the change
won (ties count for neither side) and the parent's interquartile range. A
metric reads "gain" when the change won at least nine tenths of the pairs and
the medians differ, in the better direction, by more than the parent's IQR
(docs/PERFORMANCE.md, "Per-event cost on the 10k field").
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(Q1, median, Q3), inclusive method: a one-value list is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(metrics, parent_runs, change_runs):
    """Summary lines for `metrics` [(name, better)] over paired runs.

    parent_runs[i] and change_runs[i] are the metric dicts of pair i; a
    failed run is None, and a pair with a failed side is left out.
    """
    pairs = [(p, c) for p, c in zip(parent_runs, change_runs) if p is not None and c is not None]
    lines = ["pairs %d of %d complete" % (len(pairs), len(parent_runs))]
    for name, better in metrics:
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            lines.append("%s: no values" % name)
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p, c in both if sign * (c - p) > 0)
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        iqr = p_q3 - p_q1
        gain = wins >= math.ceil(0.9 * len(both)) and sign * (c_med - p_med) > iqr
        lines.append(
            "%s (%s): parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
            "wins %d/%d  parent IQR %.6g  %s"
            % (name, better, p_med, p_q1, p_q3, c_med, c_q1, c_q3, wins, len(both), iqr,
               "gain" if gain else "no gain"))
    return lines


def run_side(checkout, workload, seed, seconds):
    """One perfbench run; its metric values, or None when it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    record = json.loads(lines[-1])
    if record.get("failed", 0) != 0:
        return None
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def self_test():
    metrics = [("speed", "higher"), ("rss", "lower")]
    parent = [{"speed": v, "rss": 10.0} for v in (100, 104, 98, 102, 101, 99, 103, 97, 100, 105)]
    change = [{"speed": v, "rss": r} for v, r in zip(
        (120, 118, 125, 119, 121, 117, 122, 96, 123, 120),
        (10.0, 10.0, 10.5, 10.0, 9.0, 10.0, 10.0, 10.0, 10.0, 10.0))]
    change[3] = None  # a failed run drops its pair
    expected = [
        "pairs 9 of 10 complete",
        "speed (higher): parent 100 [99, 103]  change 120 [118, 122]  "
        "wins 8/9  parent IQR 4  no gain",
        "rss (lower): parent 10 [10, 10]  change 10 [10, 10]  wins 1/9  parent IQR 0  no gain",
    ]
    got = summarise(metrics, parent, change)
    if got != expected:
        print("self-test FAILED:\n  got      %s\n  expected %s" % (got, expected), file=sys.stderr)
        return 1
    change[3] = {"speed": 119, "rss": 10.0}
    change[7]["speed"] = 121
    if "wins 10/10  parent IQR 3.5  gain" not in summarise(metrics, parent, change)[1]:
        print("self-test FAILED: a clean win does not read as a gain", file=sys.stderr)
        return 1
    print("perf_pairs self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", default="field10k")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--self-test", action="store_true",
                        help="check the summary against a fixed list and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change or args.pairs < 1:
        parser.error("--parent, --change and --pairs >= 1 are required")
    parent_dir = os.path.abspath(args.parent)
    change_dir = os.path.abspath(args.change)
    with open(os.path.join(change_dir, "BENCHMARK.json")) as handle:
        metrics = [(m["name"], m["better"]) for m in json.load(handle)["end_to_end"]]

    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", parent_dir), ("change", change_dir)]
        if i % 2 == 1:
            order.reverse()
        results = {}
        for side, checkout in order:
            results[side] = run_side(checkout, args.workload, seed, args.seconds)
            value = results[side] and results[side].get(metrics[0][0])
            print("pair %d seed %d %s: %s=%s" % (i, seed, side, metrics[0][0], value),
                  file=sys.stderr)
        parent_runs.append(results["parent"])
        change_runs.append(results["change"])
    for line in summarise(metrics, parent_runs, change_runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
