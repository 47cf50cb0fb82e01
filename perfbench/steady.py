#!/usr/bin/env python3
"""Steadiness check for perfbench: repeated runs, spread and agreement.

Run from the root of an ipdb checkout:

    python3 perfbench/steady.py --workloads serve_circuit,ingest_refresh \
        --seeds 1-10 --sets 2

Each round runs every listed workload once on one seed, untraced and for
run_seconds of BENCHMARK.json; the order of the workloads alternates from
round to round, so a slow drift of the machine does not land on one
workload. For each set of rounds and each end-to-end metric it prints the
median, the quartiles (statistics.quantiles(n=4)), the interquartile
spread as a share of the median, and min-max. With two or more sets it
also compares each set's median with the first set's. It checks both
numbers against the metric's bound in BENCHMARK.json: the spread must
stay within the bound, and a later set's median may not differ from the
first's, in either direction, by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed:\n%s" %
                           (workload, seed, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("  note: %s seed %d: correct=%s failed=%d" %
              (workload, seed, result["correct"], result["failed"]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds per set, e.g. 1-10 or 3,7,11")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    # results[set][workload] -> list of metric dicts
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    round_index = 0
    for set_index in range(args.sets):
        for seed in seeds:
            order = workloads if round_index % 2 == 0 else workloads[::-1]
            round_index += 1
            for workload in order:
                metrics = run_once(workload, seed, seconds)
                results[set_index][workload].append(metrics)
                print("set %d seed %d %s: %s" % (
                    set_index + 1, seed, workload,
                    " ".join("%s=%.6g" % kv for kv in sorted(metrics.items()))),
                    flush=True)

    ok = True
    for workload in workloads:
        print("\n== %s (%d seeds per set, %g s per run)" %
              (workload, len(seeds), seconds))
        names = sorted(results[0][workload][0])
        for name in names:
            bound = bounds.get(name)
            first_median = None
            for set_index in range(args.sets):
                values = [m[name] for m in results[set_index][workload]]
                median, q1, q3, spread = summarize(values)
                verdict = ""
                if bound is not None:
                    limit = bound["bound"]
                    if spread > limit:
                        verdict += " SPREAD>BOUND"
                    elif spread > limit / 3:
                        verdict += " spread>bound/3"
                    if first_median is None:
                        first_median = median
                    else:
                        shift = (median - first_median) / first_median
                        verdict += " vs set 1: %+.4f%s" % (
                            shift, " SHIFT>BOUND" if abs(shift) > limit else "")
                    ok = ok and "BOUND" not in verdict
                print("  set %d %-34s median=%-12.6g q1=%-12.6g q3=%-12.6g "
                      "iqr/median=%.4f min=%.6g max=%.6g%s" %
                      (set_index + 1, name, median, q1, q3, spread,
                       min(values), max(values), verdict))
    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
