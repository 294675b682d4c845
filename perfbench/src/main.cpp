// jamm_perfbench — end-to-end benchmark of the sensor → manager → gateway
// → (federation) → archiver → archive → arch.query path over the in-proc
// transport.
//
//   jamm_perfbench --workload <ingest_wire|federation_deep|query_mixed>
//                  --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the metrics — the end-to-end set with --trace 0, the per-layer set
// with --trace 1; the exit code is 1 when the run's outputs were wrong.
// Diagnostics go to stderr and to .bench_out/ in the working directory,
// with the spans of a traced run beside them.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::RunResult;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: jamm_perfbench --workload "
               "<ingest_wire|federation_deep|query_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--size tiny|full]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      args.tiny = value == "tiny";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "ingest_wire" && args.workload != "federation_deep" &&
      args.workload != "query_mixed") {
    Usage("unknown workload");
  }
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void WriteFile(const std::string& path, const std::string& text) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const RunResult result = args.workload == "query_mixed"
                               ? perfbench::RunQueryMixed(args)
                               : perfbench::RunPipelineWorkload(args);

  const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  const std::string line = head + MetricsJson(metrics) + "}";

  for (const auto& d : result.diagnostics) {
    std::fprintf(stderr, "  %-28s %.6g %s\n", d.name.c_str(), d.value,
                 d.unit.c_str());
  }
  const std::string out_dir = ".bench_out";
  ::mkdir(out_dir.c_str(), 0755);
  const std::string stem = out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  WriteFile(stem + ".json",
            "{\"result\": " + line + ", \"diagnostics\": " +
                MetricsJson(result.diagnostics) +
                ", \"samples\": " + result.samples_json + "}\n");
  if (args.trace) WriteFile(stem + "-spans.json", result.trace_json + "\n");

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
