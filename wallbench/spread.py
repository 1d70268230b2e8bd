#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 wallbench/spread.py --workload tpcds_tune --seeds 1-10 [--trace 0]

For every metric: the median over the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread below a
third of the bound is marked "ok". Each run's JSON line is appended to
--log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d failed (exit %d)\n%s%s" % (seed, done.returncode,
                                                     done.stdout, done.stderr))
            sys.exit(1)
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload,
                                      "seed": seed, "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done: correct=%s" % (seed, result["correct"]),
              flush=True)

    print("%-32s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread < bound / 3 else ("WIDE" if spread >= bound
                                                    else "near")
        print("%-32s %14.4f %9.4f %7s %s" % (
            name, median, spread, "" if bound is None else bound, mark))


if __name__ == "__main__":
    main()
