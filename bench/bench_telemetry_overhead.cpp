// ISSUE 1 satellite: self-telemetry must be cheap enough to leave on.
//
// Drives the gateway's instrumented Publish() hot path (counters, the
// fan-out ScopedTimer histogram, trace-less fast path) twice with the same
// workload: once with the default registry enabled and once with
// set_enabled(false) — the "no-op registry", where every Add()/Record()
// collapses to one relaxed load and a branch. Reports the wall-clock delta
// and fails (exit 1) if the enabled path is more than kMaxOverheadPct
// slower, judged by the median of paired-pass ratios so background noise
// shared by a pair cancels out.
//
// Also reports the raw per-op cost of Counter::Add and Histogram::Record
// so the numbers in DESIGN.md's "Self-telemetry" section stay honest.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "gateway/gateway.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/simhost.hpp"
#include "telemetry/metrics.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr int kRepeats = 9;
constexpr int kPublishes = 200000;
constexpr double kMaxOverheadPct = 5.0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed pass: kPublishes events through a gateway with 4 subscribers
// and summary windows — the realistic shape of the instrumented path.
double TimedPublishPass(const std::vector<ulm::Record>& events) {
  SimClock clock;
  gateway::EventGateway gw("gw", clock);
  for (const auto& rec : events) gw.EnableSummary(rec.event_name());
  std::uint64_t sink = 0;
  for (int c = 0; c < 4; ++c) {
    (void)gw.SubscribeEncoded("consumer-" + std::to_string(c), {},
                              [&sink](const ulm::EncodedRecord&) { ++sink; });
  }
  std::vector<ulm::FlatRecord> corpus;
  corpus.reserve(events.size());
  for (const auto& rec : events) {
    corpus.push_back(ulm::FlatRecord::FromRecord(rec));
  }
  const double t0 = NowSeconds();
  for (int i = 0; i < kPublishes; ++i) {
    gw.Publish(corpus[static_cast<std::size_t>(i) % corpus.size()]);
  }
  const double elapsed = NowSeconds() - t0;
  if (sink == 0) std::fprintf(stderr, "impossible: no deliveries\n");
  return elapsed;
}

double OnePass(bool telemetry_on, const std::vector<ulm::Record>& events) {
  telemetry::Metrics().set_enabled(telemetry_on);
  telemetry::Metrics().Reset();
  const double t = TimedPublishPass(events);
  telemetry::Metrics().set_enabled(true);
  return t;
}

// Per-op cost of the primitives themselves, single-threaded.
void ReportPrimitiveCosts() {
  auto& counter = telemetry::Metrics().counter("bench.raw_counter");
  auto& hist = telemetry::Metrics().histogram("bench.raw_hist");
  constexpr std::uint64_t kOps = 20000000;
  double t0 = NowSeconds();
  for (std::uint64_t i = 0; i < kOps; ++i) counter.Add(1);
  const double counter_ns = (NowSeconds() - t0) * 1e9 / kOps;
  t0 = NowSeconds();
  for (std::uint64_t i = 0; i < kOps; ++i) hist.Record(i & 1023);
  const double hist_ns = (NowSeconds() - t0) * 1e9 / kOps;
  std::printf("primitives (single thread): Counter::Add %.1f ns/op, "
              "Histogram::Record %.1f ns/op\n\n", counter_ns, hist_ns);
}

}  // namespace

int main() {
  std::printf("telemetry overhead — instrumented gateway Publish(), "
              "registry enabled vs no-op (best of %d × %d publishes)\n\n",
              kRepeats, kPublishes);

  // A realistic event: one vmstat record off the simulated host.
  SimClock clock;
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  sensors::VmstatSensor vmstat("vmstat", clock, host, kSecond);
  (void)vmstat.Start();
  std::vector<ulm::Record> events;
  vmstat.Poll(events);

  ReportPrimitiveCosts();

  // Warm up both paths (metric registration, page faults) off the clock.
  (void)OnePass(false, events);
  (void)OnePass(true, events);

  // Run disabled/enabled as adjacent pairs so both halves of a pair see
  // the same CPU frequency and background load; the per-pair ratio cancels
  // that shared noise, and the median ratio shrugs off outlier pairs.
  double off = 1e30, on = 1e30;
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    const double o = OnePass(false, events);
    const double e = OnePass(true, events);
    off = std::min(off, o);
    on = std::min(on, e);
    ratios.push_back(e / o);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  const double rate_on = kPublishes / on;

  std::printf("%-22s | %12s | %14s\n", "registry", "seconds", "publishes/s");
  std::printf("%-22s | %12.4f | %14.0f\n", "no-op (disabled)", off,
              kPublishes / off);
  std::printf("%-22s | %12.4f | %14.0f\n", "enabled (default)", on, rate_on);
  std::printf("\noverhead (median of %d paired ratios): %+.2f%% "
              "(budget %.1f%%)\n", kRepeats, overhead_pct, kMaxOverheadPct);

  if (overhead_pct > kMaxOverheadPct) {
    std::printf("FAIL: telemetry overhead exceeds budget\n");
    return 1;
  }
  std::printf("PASS: telemetry is cheap enough to leave on\n");
  return 0;
}
