#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 semcc_bench/spread.py --workload oe-durable --seeds 1-10

Runs run.py once per seed (--trace 0) and prints, for every end-to-end
metric of BENCHMARK.json, the median, the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
and that spread against a third of the metric's bound. Also prints how many
runs reported correct=false or failed transactions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    incorrect = 0
    failing = 0
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if p.returncode != 0:
            sys.exit("run.py failed for seed %d" % seed)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"]
        if not result["correct"]:
            incorrect += 1
            print("seed %d incorrect: qoh_violations=%s recovery_mismatches=%s"
                  % (seed, meta["qoh_violations"],
                     meta["recovery_mismatches"]))
        if result["failed"] > 0:
            failing += 1
            print("seed %d failed %d of %d transactions: %s" % (
                seed, result["failed"], result["attempted"],
                meta["fail_by_status"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        # How many one-second windows the medians kept, and the median
        # window's steal share: a slow run with high steal met the host.
        print("seed %d: %s windows_used=%d/%d steal=%.3f" % (
            seed, " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items()),
            meta["windows_used"], meta["windows"],
            statistics.median(meta["window_steal"])), flush=True)

    print("%-16s %12s %8s %8s %s" % ("metric", "median", "spread", "bound/3",
                                     "ok"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        print("%-16s %12.6g %8.4f %8.4f %s" % (
            m["name"], med, share, m["bound"] / 3,
            "yes" if share < m["bound"] / 3 else "NO"))
    print("runs with correct=false: %d of %d" % (incorrect, len(args.seeds)))
    print("runs with failed transactions: %d of %d" % (failing,
                                                        len(args.seeds)))


if __name__ == "__main__":
    main()
