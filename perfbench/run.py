#!/usr/bin/env python3
"""Build and run bref-bench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is built with CMake
from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs only re-check the build.
The last line of standard output is the run's JSON result; build output
goes to standard error. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wire-point", "inproc-rq", "inproc-update")
FIRST_RUN_BUDGET_S = 880  # the first run in a checkout builds
RUN_BUDGET_S = 175
BUILD_RESERVE_S = 40  # left for the run itself when the build is slow


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, deadline):
    cmd = []
    if not (build_dir / "CMakeCache.txt").exists():
        cmd.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"])
    cmd.append(["cmake", "--build", str(build_dir), "-j", "2"])
    for c in cmd:
        left = deadline - time.monotonic()
        if left <= 0:
            fail("build ran out of time")
        try:
            r = subprocess.run(c, stdout=sys.stderr, stderr=sys.stderr, timeout=left)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(c)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    start = time.monotonic()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "net" / "server.h").is_file():
        fail(f"library sources not found under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build_dir / "bref_bench"
    deadline = start + (RUN_BUDGET_S if binary.exists() else FIRST_RUN_BUDGET_S)
    build(root, build_dir, deadline - BUILD_RESERVE_S)

    left = deadline - time.monotonic()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if r.returncode != 0:
        fail(f"benchmark exited with code {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
