#!/usr/bin/env python3
"""Append a wallbench result summary to the repo's BENCH_<workload>.json.

    python3 scripts/bench_record.py --run 1-10 --label "what changed"

runs `wallbench/spread.py --seeds 1-10 --log` for every workload that
BENCHMARK.json lists, then records that log. To record runs made earlier:

    python3 wallbench/spread.py --workload tpcds_tune --seeds 1-10 --log runs.jsonl
    python3 scripts/bench_record.py runs.jsonl --label "what changed"

Reads the JSONL that `wallbench/spread.py --log` writes (one line per run:
{"workload", "seed", "result"}). For each workload in it, appends one entry

    {"commit", "label", "seeds", "metrics": {name: {unit, median, q1, q3}}}

to BENCH_<workload>.json at the repo root, a JSON list kept in the order
entries were recorded, so the files form a trajectory across changes.

With --trace-seeds SEEDS it also runs `wallbench/spread.py --trace 1` over
SEEDS for each recorded workload and adds the per-layer metrics of those
runs to the same entry, summarized the same way:

    "trace_seeds": [...], "per_layer": {name: {unit, median, q1, q3}}

Entries without these two keys stay valid.
Quartiles are statistics.quantiles(n=4), as spread.py computes them.
`commit` defaults to `git describe --always --dirty` of the repo; a
"-dirty" suffix means the runs measured uncommitted changes over it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3


def describe_head():
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=False)
    return done.stdout.strip() or "unknown"


def load_runs(path):
    runs = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            run = json.loads(line)
            if not run["result"].get("correct", False):
                sys.exit("%s:%d: %s seed %s was not correct; not recording"
                         % (path, lineno, run["workload"], run["seed"]))
            runs.setdefault(run["workload"], []).append(run)
    return runs


def listed_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_spread(workloads, seeds, log, trace):
    """Runs spread.py over `seeds` for each workload, logging to `log`."""
    for workload in workloads:
        print("running %s, seeds %s, trace %d" % (workload, seeds, trace),
              flush=True)
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "wallbench", "spread.py"),
             "--workload", workload, "--seeds", seeds, "--trace", str(trace),
             "--log", log],
            cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.exit("spread.py failed for %s (exit %d); not recording"
                     % (workload, done.returncode))


def summarize_metrics(runs):
    values = {}
    units = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    metrics = {}
    for name, vals in values.items():
        median, q1, q3 = summarize(vals)
        metrics[name] = {"unit": units[name], "median": median, "q1": q1,
                         "q3": q3}
    return metrics


def entry_for(runs, commit, label, trace_runs=None):
    entry = {"commit": commit, "label": label,
             "seeds": [run["seed"] for run in runs],
             "metrics": summarize_metrics(runs)}
    if trace_runs:
        entry["trace_seeds"] = [run["seed"] for run in trace_runs]
        entry["per_layer"] = summarize_metrics(trace_runs)
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("log", nargs="?",
                        help="JSONL written by spread.py --log")
    parser.add_argument("--run", metavar="SEEDS",
                        help="run every listed workload over SEEDS "
                             "(e.g. 1-10) and record those runs")
    parser.add_argument("--trace-seeds", metavar="SEEDS",
                        help="also run each recorded workload with "
                             "--trace 1 over SEEDS and record its "
                             "per-layer metrics in the same entry")
    parser.add_argument("--label", required=True,
                        help="what the measured tree is, e.g. 'baseline'")
    parser.add_argument("--commit", help="default: git describe --dirty")
    args = parser.parse_args()
    if (args.log is None) == (args.run is None):
        parser.error("give either LOG or --run SEEDS")

    commit = args.commit or describe_head()
    trace_by_workload = {}
    with tempfile.TemporaryDirectory() as tmp:
        if args.run is not None:
            log = os.path.join(tmp, "runs.jsonl")
            run_spread(listed_workloads(), args.run, log, trace=0)
            runs_by_workload = load_runs(log)
        else:
            runs_by_workload = load_runs(args.log)
        if args.trace_seeds is not None:
            trace_log = os.path.join(tmp, "trace.jsonl")
            run_spread(sorted(runs_by_workload), args.trace_seeds, trace_log,
                       trace=1)
            trace_by_workload = load_runs(trace_log)
    for workload, runs in sorted(runs_by_workload.items()):
        path = os.path.join(ROOT, "BENCH_%s.json" % workload)
        history = []
        if os.path.exists(path):
            with open(path) as f:
                history = json.load(f)
        history.append(entry_for(runs, commit, args.label,
                                 trace_by_workload.get(workload)))
        with open(path, "w") as f:
            json.dump(history, f, indent=2)
            f.write("\n")
        print("%s: %d runs recorded as %r (%s)"
              % (os.path.basename(path), len(runs), args.label, commit))


if __name__ == "__main__":
    main()
