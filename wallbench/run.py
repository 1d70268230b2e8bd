#!/usr/bin/env python3
"""Build the wall-clock benchmark from this checkout and run one workload.

    python3 wallbench/run.py --workload tpcc_inproc --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The harness and the engine sources it
measures are compiled into $CARGO_TARGET_DIR (default .bench_build) with
CMake; later runs only rebuild what changed. The self-test of the
benchmark's percentile code and output checks runs before every
measurement. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. See wallbench/README.md for workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc_inproc", "tpcc_loopback", "tpcds_tune", "online_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("wallbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to wallbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "wallbench")
    work_dir = os.path.join(target, "work")
    build(build_dir)
    os.makedirs(work_dir, exist_ok=True)
    run_quiet([os.path.join(build_dir, "wallbench_selftest")], 60)

    cmd = [os.path.join(build_dir, "wallbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
