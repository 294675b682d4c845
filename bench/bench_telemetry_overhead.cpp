// ISSUE 1 satellite: self-telemetry must be cheap enough to leave on.
//
// Drives two instrumented paths twice with the same workload: once with
// the default registry enabled and once with set_enabled(false) — the
// "no-op registry", where every Add()/Record() collapses to one relaxed
// load and a branch.
//
//   * publish: the gateway's Publish() hot path (counters, the fan-out
//     ScopedTimer histogram, trace-less fast path) into 4 subscribers;
//   * wire: the same publishes served by GatewayService over the in-proc
//     transport to one batched GatewayClient, with a service poll and a
//     client drain every kPollEvery publishes. Zero-timeout polls no
//     longer sleep (DESIGN.md §8), so a service poll costs microseconds,
//     not ~57 µs, and the telemetry on it is no longer hidden behind
//     that sleep.
//
// Reports the wall-clock delta per path and fails (exit 1) if either
// enabled path is more than kMaxOverheadPct slower, judged by the median
// of paired-pass ratios so background noise shared by a pair cancels out.
// scripts/check_bench.sh runs it as a gate.
//
// Also reports the raw per-op cost of Counter::Add and Histogram::Record
// so the numbers in DESIGN.md's "Self-telemetry" section stay honest.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/simhost.hpp"
#include "telemetry/metrics.hpp"
#include "transport/inproc.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

// Many short pairs rather than a few long ones: on a shared host a pass's
// speed swings by up to 2x over tens of milliseconds, so a pair must be
// short to see the same conditions on both halves, and the median of 101
// pairs holds within about a point run to run.
constexpr int kRepeats = 101;
constexpr int kPublishes = 20000;
constexpr double kMaxOverheadPct = 5.0;
constexpr int kPollEvery = 64;  // publishes per service poll (wire path)

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Corpus = std::vector<ulm::FlatRecord>;

// One timed pass: kPublishes events through a gateway with 4 subscribers
// and summary windows — the realistic shape of the instrumented path.
double TimedPublishPass(Corpus& corpus) {
  SimClock clock;
  gateway::EventGateway gw("gw", clock);
  for (const auto& rec : corpus) {
    gw.EnableSummary(std::string(rec.event_name()));
  }
  std::uint64_t sink = 0;
  for (int c = 0; c < 4; ++c) {
    (void)gw.SubscribeEncoded("consumer-" + std::to_string(c), {},
                              [&sink](const ulm::EncodedRecord&) { ++sink; });
  }
  const double t0 = NowSeconds();
  for (int i = 0; i < kPublishes; ++i) {
    gw.Publish(corpus[static_cast<std::size_t>(i) % corpus.size()]);
  }
  const double elapsed = NowSeconds() - t0;
  if (sink == 0) std::fprintf(stderr, "impossible: no deliveries\n");
  return elapsed;
}

// One timed pass over the wire path: kPublishes events through a gateway
// whose one batched subscriber is a GatewayClient on the far side of a
// GatewayService, polled and drained every kPollEvery publishes.
double TimedWirePass(Corpus& corpus) {
  SimClock clock;
  gateway::EventGateway gw("gw", clock);
  transport::InProcNetwork net;
  auto listener = net.Listen("gw");
  gateway::GatewayService service(gw, std::move(*listener));
  gateway::GatewayClient client([&net] { return net.Dial("gw"); });
  (void)client.SubscribeBatchedAsync("consumer", {});
  service.PollOnce();  // accept the dial, register the subscription
  std::uint64_t received = 0;
  const double t0 = NowSeconds();
  for (int i = 0; i < kPublishes; ++i) {
    gw.Publish(corpus[static_cast<std::size_t>(i) % corpus.size()]);
    if (i % kPollEvery == kPollEvery - 1) {
      service.PollOnce();
      received += client.DrainEvents().size();
    }
  }
  const double elapsed = NowSeconds() - t0;
  if (received == 0) std::fprintf(stderr, "impossible: no deliveries\n");
  return elapsed;
}

using TimedPass = double (*)(Corpus&);

double OnePass(bool telemetry_on, TimedPass pass, Corpus& corpus) {
  telemetry::Metrics().set_enabled(telemetry_on);
  telemetry::Metrics().Reset();
  const double t = pass(corpus);
  telemetry::Metrics().set_enabled(true);
  return t;
}

// Runs disabled/enabled as adjacent pairs so both halves of a pair see the
// same CPU frequency and background load; the per-pair ratio cancels that
// shared noise, and the median ratio shrugs off outlier pairs. Prints the
// path's row and returns its median overhead in percent.
double MeasureOverhead(const char* name, TimedPass pass,
                       Corpus& corpus) {
  // Warm up both modes (metric registration, page faults) off the clock.
  (void)OnePass(false, pass, corpus);
  (void)OnePass(true, pass, corpus);
  double off = 1e30, on = 1e30;
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    // Alternate which half runs first, so a pass-order effect (allocator
    // or cache state a pass leaves for the next one) lands on both sides.
    const bool off_first = r % 2 == 0;
    const double first = OnePass(!off_first, pass, corpus);
    const double second = OnePass(off_first, pass, corpus);
    const double o = off_first ? first : second;
    const double e = off_first ? second : first;
    off = std::min(off, o);
    on = std::min(on, e);
    ratios.push_back(e / o);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  std::printf("%-8s | %14.0f | %14.0f | %+9.2f%%\n", name, kPublishes / off,
              kPublishes / on, overhead_pct);
  return overhead_pct;
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
  std::printf("telemetry overhead — instrumented gateway paths, registry "
              "enabled vs no-op (%d paired passes × %d publishes)\n\n",
              kRepeats, kPublishes);

  // A realistic event: one vmstat record off the simulated host.
  SimClock clock;
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  sensors::VmstatSensor vmstat("vmstat", clock, host, kSecond);
  (void)vmstat.Start();
  std::vector<ulm::Record> events;
  vmstat.Poll(events);
  Corpus corpus;
  for (const auto& rec : events) {
    corpus.push_back(ulm::FlatRecord::FromRecord(rec));
  }

  ReportPrimitiveCosts();

  std::printf("%-8s | %14s | %14s | %10s\n", "path", "no-op pub/s",
              "enabled pub/s", "overhead");
  const double publish_pct = MeasureOverhead("publish", TimedPublishPass,
                                             corpus);
  const double wire_pct = MeasureOverhead("wire", TimedWirePass, corpus);
  std::printf("\noverhead (median of %d paired ratios): publish %+.2f%%, "
              "wire %+.2f%% (budget %.1f%%)\n", kRepeats, publish_pct,
              wire_pct, kMaxOverheadPct);

  if (publish_pct > kMaxOverheadPct || wire_pct > kMaxOverheadPct) {
    std::printf("FAIL: telemetry overhead exceeds budget\n");
    return 1;
  }
  std::printf("PASS: telemetry is cheap enough to leave on\n");
  return 0;
}
