// The three workloads and the result they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;  // --size tiny: the smoke test's scale
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // tracing off
  std::vector<Metric> per_layer;   // traced run
  std::vector<Metric> diagnostics; // both; side file and stderr only
  std::string samples_json;        // per-wave and per-query samples
  std::string trace_json;          // traced run: spans, wire, ledger
};

/// ingest_wire and federation_deep: saturation, open loop, read-back.
RunResult RunPipelineWorkload(const Args& args);
/// query_mixed: saturation, then trickle waves beside a query client.
RunResult RunQueryMixed(const Args& args);

}  // namespace perfbench
