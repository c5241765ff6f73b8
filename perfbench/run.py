#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload testbed14|field10k|match1m_churn \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
configuring happens once, and every run asks CMake for an incremental rebuild,
which is a no-op when nothing changed. Build output goes to stderr, so the
binary's JSON result stays the last line of stdout. Traced runs write their
spans to <build>/spans/<workload>-seed<N>.csv.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("testbed14", "field10k", "match1m_churn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under %s/src; run from a full checkout" % REPO_ROOT,
              file=sys.stderr)
        return 2

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(REPO_ROOT, target_dir, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 3

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))
        command += ["--spans", spans]
    return subprocess.run(command, cwd=REPO_ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
