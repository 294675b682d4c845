#!/usr/bin/env bash
# Build the whole tree under AddressSanitizer + UndefinedBehaviorSanitizer
# (-DJAMM_SANITIZE=address, which also enables -fsanitize=float-cast-overflow:
# GCC's -fsanitize=undefined leaves that check out) and run the full ctest
# suite, failing on any report. The TSan sweep over the concurrency labels is
# scripts/check_tsan.sh; this one covers memory errors, leaks and
# undefined behaviour everywhere.
#
# ASan aborts on its first report by default; UBSan only prints, so
# UBSAN_OPTIONS makes its first report fatal too (the test then fails).
#
# Usage: scripts/check_sanitizers.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

cmake -B "$build_dir" -S "$repo_root" -DJAMM_SANITIZE=address
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure

echo "asan+ubsan: all tests clean"
