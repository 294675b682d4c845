#!/usr/bin/env bash
# Build the concurrency-sensitive tests under ThreadSanitizer and run them.
#
# The telemetry registry (sharded atomic counters/histograms, trace id
# minting) and the gateway fan-out are the only deliberately concurrent
# code in the repo; they carry the ctest label "concurrency". The
# fault-injection suite (label "resilience") crosses threads in its
# reconnect/retry paths and runs here too, as does the seeded end-to-end
# chaos harness (label "chaos"), the segmented archive's lock-striped
# concurrent ingest/query suite (label "archive"), the archive analysis
# engine's queries racing ingest and compression and the offline
# nlv views built on it (label "analysis"), the republisher tree's
# merge/dedup/pushdown paths (label "federation"), the sharded
# WAL-backed directory's RCU snapshot reads racing structural writes
# and the reaper (label
# "directory", ISSUE 9), the flat
# ULM core (label "ulm", ISSUE 7): the lock-free symbol-interning table
# and the MPSC ring channel's multi-producer stress tests, and the
# security fast path (label "security", ISSUE 10): decision-cache lookups
# and token mint/adopt racing policy reloads and re-authentication churn,
# plus the wire-format fuzz corpus. This script
# configures a dedicated build tree with -DJAMM_SANITIZE=thread and runs
# exactly those labels, failing on any reported race.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DJAMM_SANITIZE=thread
cmake --build "$build_dir" -j "$(nproc)" --target telemetry_test gateway_test resilience_test chaos_test archive_test analysis_property_test nlv_test federation_test directory_test flat_test ulm_test ulm_fuzz_test transport_test security_test security_fuzz_test
ctest --test-dir "$build_dir" -L 'concurrency|resilience|chaos|archive|analysis|federation|directory|ulm|security' --output-on-failure

echo "tsan: concurrency/resilience/chaos/archive/analysis/federation/directory/ulm/security-labelled tests clean"
