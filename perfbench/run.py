#!/usr/bin/env python3
"""Builds and runs perfbench, the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest     # the benchmark's own helper tests

The benchmark is its own CMake project (perfbench/CMakeLists.txt) over the
library targets of src/. It is configured as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and rebuilt
incrementally on every run. Build output goes to stderr; the benchmark's
stdout is passed through, and its last line is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-wide", "query-zipf", "live-tail")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs]):
        return None
    return os.path.join(out, target)


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([binary]).returncode
    if args.workload is None:
        p.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work-dir", work, "--git-sha", git_sha(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
