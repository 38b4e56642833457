#!/usr/bin/env bash
# Run the experiment benches and write the machine-readable perf-trajectory
# files BENCH_throughput.json, BENCH_contention.json, BENCH_recovery.json
# (logging overhead, restart cost, group commit, file-backed log), and
# BENCH_lockpath.json (the lock-path microbenches: acquire/release per
# protocol, ancestor-walk depth, queue length, commutativity lookups) and
# BENCH_storage.json (the storage microbenches, including the buffer pool's
# fetch-hit path at 1, 2 and 4 threads) at the repo root. The two
# microbench files hold five repetitions, aggregates only.
#
# Usage:
#   scripts/run_bench.sh [build-dir]
#
# Environment:
#   SEMCC_BENCH_TXNS   shorten runs (per-thread transaction count); used by
#                      the CI perf-smoke leg.
#
# Every emitted file is validated as JSON — a bench that writes a malformed
# or empty file fails the script. If a previous copy of a BENCH file exists
# (the committed perf trajectory), scripts/check_bench_regression.py compares
# new against old: >15% timing regressions WARN only (perf is tracked, not
# gated, here), but a baseline row missing from the new run FAILS the script
# — bench coverage must never shrink silently.
#
# The build directory must be a Release build (cmake -DCMAKE_BUILD_TYPE=Release)
# or the numbers are meaningless.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${BUILD_DIR:-$repo_root/build-rel}}"

for bench in bench_throughput bench_contention bench_recovery bench_lock_manager \
    bench_storage; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not found (build with" >&2
    echo "  cmake -B $build_dir -S $repo_root -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build $build_dir -j)" >&2
    exit 1
  fi
done

# Validate that a bench actually produced a well-formed, non-empty JSON file.
validate_json() {
  local path="$1"
  if [[ ! -s "$path" ]]; then
    echo "error: $path missing or empty (bench silently failed?)" >&2
    exit 1
  fi
  if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
if isinstance(data, list) and len(data) == 0:
    sys.exit("empty result array")
' "$path"; then
    echo "error: $path is not valid JSON" >&2
    exit 1
  fi
}

# Stash the previous trajectory (if any) for the regression comparison.
stash_dir="$(mktemp -d)"
trap 'rm -rf "$stash_dir"' EXIT
bench_files=(BENCH_throughput.json BENCH_contention.json BENCH_recovery.json
             BENCH_lockpath.json BENCH_storage.json)
for f in "${bench_files[@]}"; do
  [[ -f "$repo_root/$f" ]] && cp "$repo_root/$f" "$stash_dir/$f"
done

# --stats adds the verdict-breakdown columns to every row
# (commute/case1/case2/root_waits/retained_hits/timeouts), so the trajectory
# files track protocol behavior, not just throughput.
"$build_dir/bench/bench_throughput" --stats --json="$repo_root/BENCH_throughput.json"
validate_json "$repo_root/BENCH_throughput.json"
# The read-mix sections (MVCC snapshot reads vs locking readers) must be
# present — their rows are the mvcc_reads ablation record.
if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    labels = {row.get("label", "") for row in json.load(f)}
required = ["readmix90-t16", "readmix90-mvcc-t16",
            "readmix50-t16", "readmix50-mvcc-t16"]
missing = [l for l in required if l not in labels]
if missing:
    sys.exit("missing read-mix rows: " + ", ".join(missing))
' "$repo_root/BENCH_throughput.json"; then
  echo "error: BENCH_throughput.json lacks the read-mix (mvcc) rows" >&2
  exit 1
fi
# The key-range ablation rows (keyrange_locks on, same workload as the
# semantic-param sweep) are that flag's ablation record.
if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    labels = {row.get("label", "") for row in json.load(f)}
required = ["orderentry-zipf0.8-keyrange-t1", "orderentry-zipf0.8-keyrange-t16"]
missing = [l for l in required if l not in labels]
if missing:
    sys.exit("missing key-range ablation rows: " + ", ".join(missing))
' "$repo_root/BENCH_throughput.json"; then
  echo "error: BENCH_throughput.json lacks the keyrange ablation rows" >&2
  exit 1
fi
"$build_dir/bench/bench_contention" --stats --json="$repo_root/BENCH_contention.json"
validate_json "$repo_root/BENCH_contention.json"
# The hot-set sweep rows (one item, insert-share sweep, keyrange off/on per
# mix) must be present in both variants or the ablation record is broken.
if ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    labels = {row.get("label", "") for row in json.load(f)}
required = ["hotset-insert%d-t8" % p for p in (10, 30, 50)]
required += ["hotset-insert%d-keyrange-t8" % p for p in (10, 30, 50)]
missing = [l for l in required if l not in labels]
if missing:
    sys.exit("missing hot-set rows: " + ", ".join(missing))
' "$repo_root/BENCH_contention.json"; then
  echo "error: BENCH_contention.json lacks the hot-set (keyrange) rows" >&2
  exit 1
fi
"$build_dir/bench/bench_recovery" --stats --json="$repo_root/BENCH_recovery.json"
validate_json "$repo_root/BENCH_recovery.json"
"$build_dir/bench/bench_lock_manager" \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out="$repo_root/BENCH_lockpath.json" \
  --benchmark_out_format=json
validate_json "$repo_root/BENCH_lockpath.json"
"$build_dir/bench/bench_storage" \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out="$repo_root/BENCH_storage.json" \
  --benchmark_out_format=json
validate_json "$repo_root/BENCH_storage.json"

echo
for f in "${bench_files[@]}"; do
  echo "wrote $repo_root/$f"
  if [[ -f "$stash_dir/$f" ]]; then
    # Timing regressions only warn (exit 0), but a baseline row that
    # disappeared from the new run exits 1 and fails the script: bench
    # coverage must never shrink silently.
    python3 "$repo_root/scripts/check_bench_regression.py" \
      "$stash_dir/$f" "$repo_root/$f"
  fi
done
