#!/usr/bin/env bash
# Regression gate for the JSON-emitting benchmarks.
#
# Runs each bench that writes a BENCH_*.json results file and compares the
# fresh numbers against the committed baseline at the repo root. Only
# machine-independent RATIO metrics are compared (speedups, send
# reductions): absolute rates vary with the host, but a ratio judged by
# the median of paired passes should reproduce anywhere. Token verify
# throughput is gated the same way: bench_security's token_verify_per_kref
# counts verifies per 1000 iterations of a fixed reference loop timed in
# interleaved passes of the same process, so a slower host moves both
# halves of the ratio (its absolute token_verify_per_s is printed for
# information only). bench_nlv_primitives' host_scan_speedup is timed the
# same way: a count-only loadline without a host over one with host=, in
# interleaved pass pairs over segments that all hold that host, so it
# gates the in-segment skip of a compressed scan. bench_telemetry_overhead writes
# no results file: its <5% overhead budget is a hard floor the bench
# enforces itself, so it runs here as a gate of its own. A fresh ratio may
# fall below baseline by at most TOLERANCE (fraction, default 0.35 — the
# bars are >= 5x/10x with baselines around 16x, so a third of headroom is
# noise allowance, not a loophole). The bench binaries additionally
# enforce their hard acceptance floors themselves (non-zero exit).
#
# A missing baseline is not an error: the fresh results are recorded as
# the new baseline ("no baseline, recording"), so a fresh checkout — or a
# newly added bench — bootstraps itself on first run.
#
# Usage: scripts/check_bench.sh [build-dir]   (default: build)
#   TOLERANCE=0.5 scripts/check_bench.sh      # loosen for noisy machines
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
tolerance="${TOLERANCE:-0.35}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)" --target bench_pipeline_throughput bench_liveness bench_archive bench_federation bench_nlv_primitives bench_directory bench_security bench_telemetry_overhead

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# compare_ratios <fresh.json> <baseline.json> <ratio-key> [<ratio-key>...]
# Missing baseline → record fresh as baseline and pass.
compare_ratios() {
  local fresh="$1" base="$2"
  shift 2
  if [[ ! -f "$base" ]]; then
    echo "  no baseline at ${base#$repo_root/}, recording fresh results"
    cp "$fresh" "$base"
    return 0
  fi
  python3 - "$fresh" "$base" "$tolerance" "$@" <<'PY'
import json, sys

fresh_path, base_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
keys = sys.argv[4:]
fresh = json.load(open(fresh_path))["results"]
base = json.load(open(base_path))["results"]

failed = False
for key in keys:
    f, b = fresh[key], base[key]
    floor = b * (1.0 - tol)
    verdict = "ok" if f >= floor else "REGRESSION"
    failed |= f < floor
    print(f"  {key}: fresh {f:.2f}x vs baseline {b:.2f}x "
          f"(min allowed {floor:.2f}x) ... {verdict}")
sys.exit(1 if failed else 0)
PY
}

echo "== bench_pipeline_throughput (floors enforced by the bench itself)"
"$build_dir/bench/bench_pipeline_throughput" "$tmp/BENCH_pipeline.json"
compare_ratios "$tmp/BENCH_pipeline.json" "$repo_root/BENCH_pipeline.json" \
  encode_once_speedup_64subs send_reduction_batch16 flat_speedup

echo "== bench_liveness (floors enforced by the bench itself)"
"$build_dir/bench/bench_liveness" "$tmp/BENCH_liveness.json"
compare_ratios "$tmp/BENCH_liveness.json" "$repo_root/BENCH_liveness.json" \
  renew_vs_republish_speedup_10k

echo "== bench_archive (floors enforced by the bench itself)"
"$build_dir/bench/bench_archive" "$tmp/BENCH_archive.json"
compare_ratios "$tmp/BENCH_archive.json" "$repo_root/BENCH_archive.json" \
  ingest_speedup_4t flat_ingest_speedup_4t convert_ingest_speedup_4t

echo "== bench_federation (floors enforced by the bench itself)"
"$build_dir/bench/bench_federation" "$tmp/BENCH_federation.json"
compare_ratios "$tmp/BENCH_federation.json" "$repo_root/BENCH_federation.json" \
  pushdown_send_reduction depth3_vs_depth1_throughput

echo "== bench_nlv_primitives (floors enforced by the bench itself)"
"$build_dir/bench/bench_nlv_primitives" "$tmp/BENCH_analysis.json"
compare_ratios "$tmp/BENCH_analysis.json" "$repo_root/BENCH_analysis.json" \
  sealed_compression_ratio lifeline_bytes_reduction host_scan_speedup

echo "== bench_directory (floors enforced by the bench itself)"
"$build_dir/bench/bench_directory" "$tmp/BENCH_directory.json"
compare_ratios "$tmp/BENCH_directory.json" "$repo_root/BENCH_directory.json" \
  read_saturation_ratio recovery_vs_populate_speedup

echo "== bench_security (floors enforced by the bench itself)"
"$build_dir/bench/bench_security" "$tmp/BENCH_security.json"
compare_ratios "$tmp/BENCH_security.json" "$repo_root/BENCH_security.json" \
  authz_overhead_ratio cache_speedup token_verify_per_kref

echo "== bench_telemetry_overhead (<5% budget enforced by the bench itself)"
"$build_dir/bench/bench_telemetry_overhead"

echo "bench: no regression beyond tolerance ${tolerance} vs committed baselines"
