#!/usr/bin/env python3
"""End-to-end benchmark of DEFLECTION: builds perfbench and runs one workload.

Usage (from the root of the repository):
  python3 perfbench/run.py --workload serve-echo|serve-image|admit \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The benchmark is configured and built from source on first use, under
$CARGO_TARGET_DIR (default .bench_build) at the root of the repository;
build output goes to stderr. The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-echo", "serve-image", "admit")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds the benchmark (incrementally); returns the binary path."""
    cmake = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmake += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    build_step = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    for step in (cmake, build_step):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode
    work_dir = os.path.join(out, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
