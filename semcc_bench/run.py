#!/usr/bin/env python3
"""Build and run the semcc end-to-end benchmark.

    python3 semcc_bench/run.py --workload oe-durable --seed 3 --seconds 10 --trace 0
    python3 semcc_bench/run.py --seed 3            # every workload, both runs

Run from the root of a checkout. The first call configures and builds
semcc_bench/ (the library from src/ plus harness.cc) in Release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed.

With --workload, the harness runs that workload once: --trace 0 measures the
end-to-end metrics, --trace 1 the per-layer metrics (a separate run with
tracing on, plus the layer probes). Every metric is printed as
"name value unit", then one metadata line, and last one JSON object with the
keys correct, attempted, failed and metrics. The JSON object carries the
metrics BENCHMARK.json lists for that run; --trace 0 also prints, as
"name value unit" lines only, the end-to-end quantities that have no bound
(UNBOUNDED below). Without --workload, every workload runs both ways and the
tracing overhead is printed as well.

The metric names and units come from BENCHMARK.json at the checkout root;
README.md beside this file says what each one measures.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's workloads, then two reproducers of known library defects
# that BENCHMARK.json does not list (README.md says what they show).
WORKLOADS = ["oe-uniform", "oe-durable", "oe-hot", "oe-durable-evict"]
# The harness's own limit; the whole run must end within 180 s.
HARNESS_TIMEOUT_S = 150
COMPENSATION_FAILED = re.compile(r"compensation of \S+ failed")
# End-to-end quantities of the untraced run that BENCHMARK.json does not
# bound: p99 moves 3-4x between runs of one seed, and the rest read 0 on some
# workloads. The durable-only ones read 0 without a WAL.
UNBOUNDED = [("latency_p99_us", "us"), ("fail_share", "share"),
             ("qoh_violations", "items"), ("recovery_mismatches", "count"),
             ("log_bytes_per_commit", "B"), ("restart_s", "s")]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(jobs):
    """Configures and builds the harness (a no-op when nothing changed);
    returns its path."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(jobs)]]
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "semcc_bench")


def source_digest():
    """sha256 over src/ and semcc_bench/ (the checkout may not be a git
    repository, so this identifies the measured code)."""
    h = hashlib.sha256()
    for top in ("src", "semcc_bench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return p.stdout.strip() if p.returncode == 0 else "none"


def run_harness(binary, workload, seed, seconds, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--traced", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    err = p.stderr.splitlines()
    for line in err[:20]:
        print("harness: " + line, file=sys.stderr)
    if len(err) > 20:
        print("harness: ... %d more stderr lines" % (len(err) - 20),
              file=sys.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("harness exited with %d" % p.returncode)
    result = json.loads(lines[-1])
    # The program logs every dropped compensation as an ERROR line.
    result["txn.compensation_failures"] = sum(
        1 for line in err if COMPENSATION_FAILED.search(line))
    return result


def measure(spec, binary, workload, seed, seconds, traced):
    """One harness run turned into the benchmark's result object and the
    untraced run's unbounded end-to-end quantities (empty when traced)."""
    r = run_harness(binary, workload, seed, seconds, traced)
    r["trace.commit_tps"] = r["commit_tps"]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # WAL-only metrics read 0 on the workloads without a WAL.
        value = r.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unbounded = {} if traced else {
        name: {"value": r.get(name, 0), "unit": unit}
        for name, unit in UNBOUNDED}
    correct = (r["qoh_violations"] == 0 and
               r.get("recovery_mismatches", 0) == 0)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": traced, "workers": r["workers"], "nproc": r["nproc"],
        "build_type": r["build_type"], "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "calls": r["attempted"],
        "segments": r["segments"],
        "windows": r["windows"],
        "latency_min_samples_per_window":
            r["latency_min_samples_per_window"],
        "commit_tps_whole_run": r["commit_tps_whole_run"],
        "cpu_us_per_commit_whole_run": r["cpu_us_per_commit_whole_run"],
        "lock_timeouts": r["lock_timeouts"],
        "cpu_s": r["cpu_s"],
        "windows_used": r["windows_used"],
        "setup_samples": r["setup_samples"],
        "qoh_violations": r["qoh_violations"],
        "recovery_mismatches": r.get("recovery_mismatches", 0),
        "compensation_failures": r["txn.compensation_failures"],
        "fail_share": r["fail_share"],
        "fail_by_status": {k[5:]: r[k] for k in r if k.startswith("fail.")},
    }
    if traced:
        meta["cc_wait_samples"] = r["cc.wait_samples"]
    for k in ("window_tps", "window_p50_us", "window_p90_us",
              "window_p99_us", "window_cpu_us_per_commit", "window_steal"):
        meta[k] = [float(x) for x in r[k].split()]
    out = {"correct": correct, "attempted": int(r["attempted"]),
           "failed": int(r["failed"]), "metrics": metrics}
    return out, meta, unbounded


def print_metrics(metrics, prefix=""):
    for name, m in metrics.items():
        print("%s%-32s %.6g %s" % (prefix, name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build(len(os.sched_getaffinity(0)))

    if args.workload:
        result, meta, unbounded = measure(spec, binary, args.workload,
                                          args.seed, args.seconds,
                                          bool(args.trace))
        print_metrics(result["metrics"])
        print_metrics(unbounded)
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return

    for w in WORKLOADS:
        e2e, meta, unbounded = measure(spec, binary, w, args.seed,
                                       args.seconds, False)
        layers, _, _ = measure(spec, binary, w, args.seed, args.seconds,
                               True)
        print("== %s" % w)
        print_metrics(e2e["metrics"], "  ")
        print_metrics(unbounded, "  ")
        print_metrics(layers["metrics"], "  ")
        tps = e2e["metrics"]["commit_tps"]["value"]
        traced_tps = layers["metrics"]["trace.commit_tps"]["value"]
        print("  %-32s %.6g txn/s (%.1f%% of untraced)" %
              ("trace.overhead_tps", tps - traced_tps,
               100.0 * (tps - traced_tps) / tps))
        print("  %-32s %s (attempted %d, failed %d)" %
              ("correct", e2e["correct"], e2e["attempted"], e2e["failed"]))
        print("  meta " + json.dumps(meta))


if __name__ == "__main__":
    main()
