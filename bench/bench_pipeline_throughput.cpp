// ISSUE 3 tentpole: load-generator benchmark for the encode-once batched
// event pipeline.
//
// Part A — encode-once fan-out. Publishes vmstat records through an
// EventGateway whose N subscribers all want the binary wire format, twice:
// a baseline where every subscriber callback re-encodes the record itself
// (the pre-ISSUE-3 shape: O(subscribers) serializations per event) and the
// encode-once path where callbacks read the shared EncodedRecord cache
// (one serialization per event). Speedups are judged by the median of
// paired-pass ratios, like bench_telemetry_overhead, so noise shared by a
// pair cancels.
//
// Part B — batched wire delivery. Serves the gateway over the in-proc
// transport and streams events to one remote consumer, sweeping batch size
// × publish burst size (the event-rate proxy under SimClock). Counts
// transport frames on the wire and measures end-to-end records/s including
// the consumer-side decode (ASCII for the unbatched protocol, binary batch
// for the batched one).
//
// Emits BENCH_pipeline.json (path = argv[1], default ./BENCH_pipeline.json)
// for scripts/check_bench.sh, and exits 1 if the acceptance bars fail:
// >= 5x encode-once speedup at 64 binary subscribers, >= 10x fewer sends
// at batch size 16.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <map>

#include "archive/archive.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/simhost.hpp"
#include "transport/inproc.hpp"
#include "transport/net_sink.hpp"
#include "ulm/flat.hpp"
#include "ulm_reference.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr int kRepeats = 7;
constexpr int kFanoutPublishes = 20000;
constexpr int kWireEvents = 100000;
constexpr double kMinSpeedup64 = 5.0;
constexpr double kMinSendReduction16 = 10.0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<ulm::Record> BenchEvents() {
  SimClock clock;
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  sensors::VmstatSensor vmstat("vmstat", clock, host, kSecond);
  (void)vmstat.Start();
  std::vector<ulm::Record> events;
  vmstat.Poll(events);
  return events;
}

/// The corpus as the flat records the gateway publishes (built outside
/// every timed region).
std::vector<ulm::FlatRecord> FlatCorpus(
    const std::vector<ulm::Record>& events) {
  std::vector<ulm::FlatRecord> corpus;
  corpus.reserve(events.size());
  for (const auto& rec : events) {
    corpus.push_back(ulm::FlatRecord::FromRecord(rec));
  }
  return corpus;
}

// ------------------------------------------------- Part A: encode-once

/// One timed pass: kFanoutPublishes events through a gateway with `nsubs`
/// binary-format subscribers. `encode_once` false re-encodes per
/// subscriber with the reference Record encoder (tests/ulm_reference.hpp)
/// from the bench's own corpus (the baseline the tentpole replaced).
double TimedFanoutPass(const std::vector<ulm::Record>& events, int nsubs,
                       bool encode_once) {
  SimClock clock;
  gateway::EventGateway gw("gw", clock);
  std::vector<ulm::FlatRecord> corpus = FlatCorpus(events);
  const ulm::Record* current = nullptr;  // the Record being published
  std::uint64_t sink = 0;
  for (int c = 0; c < nsubs; ++c) {
    gateway::EventGateway::EncodedCallback cb;
    if (encode_once) {
      cb = [&sink](const ulm::EncodedRecord& enc) {
        sink += enc.Binary().size();  // shared cache: 1 encode per publish
      };
    } else {
      cb = [&sink, &current](const ulm::EncodedRecord&) {
        sink += ulm::reference::EncodeBinary(*current).size();  // per-sub
      };
    }
    (void)gw.SubscribeEncoded("c" + std::to_string(c), {}, std::move(cb));
  }
  const double t0 = NowSeconds();
  for (int i = 0; i < kFanoutPublishes; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % events.size();
    current = &events[k];
    gw.Publish(corpus[k]);
  }
  const double elapsed = NowSeconds() - t0;
  if (sink == 0) std::fprintf(stderr, "impossible: no deliveries\n");
  return elapsed;
}

struct FanoutRow {
  int subscribers;
  double baseline_rate;     // publishes/s, per-subscriber encode
  double encode_once_rate;  // publishes/s, shared EncodedRecord
  double speedup;           // median of paired ratios
};

FanoutRow MeasureFanout(const std::vector<ulm::Record>& events, int nsubs) {
  (void)TimedFanoutPass(events, nsubs, false);  // warm both paths
  (void)TimedFanoutPass(events, nsubs, true);
  double base = 1e30, once = 1e30;
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    const double b = TimedFanoutPass(events, nsubs, false);
    const double o = TimedFanoutPass(events, nsubs, true);
    base = std::min(base, b);
    once = std::min(once, o);
    ratios.push_back(b / o);
  }
  std::sort(ratios.begin(), ratios.end());
  return {nsubs, kFanoutPublishes / base, kFanoutPublishes / once,
          ratios[ratios.size() / 2]};
}

// --------------------------------------------- Part B: batched delivery

struct WireRow {
  std::size_t batch;  // 0 = unbatched ASCII protocol
  int burst;          // publishes between consumer drains (rate proxy)
  std::uint64_t frames;
  double records_per_s;  // end-to-end, including consumer decode
};

/// One timed pass: kWireEvents records through gateway → service → in-proc
/// channel → raw consumer that counts frames and decodes every record.
WireRow TimedWirePass(const std::vector<ulm::Record>& events,
                      std::size_t batch, int burst) {
  SimClock clock;
  gateway::EventGateway gw("gw", clock);
  transport::InProcNetwork net;
  auto listener = net.Listen("gw");
  gateway::GatewayService service(gw, std::move(*listener));
  auto channel = net.Dial("gw");
  service.PollOnce();
  const std::string payload =
      batch == 0 ? "bench\nall"
                 : "bench\nall\nbatch:" + std::to_string(batch);
  (void)(*channel)->Send({"gw.subscribe", payload});
  service.PollOnce();
  (void)(*channel)->Receive(kSecond);  // gw.ok

  std::vector<ulm::FlatRecord> corpus = FlatCorpus(events);
  WireRow row{batch, burst, 0, 0};
  std::uint64_t decoded = 0;
  ulm::FlatBatch frame;  // the consumer's reused decode targets
  ulm::FlatRecord line;
  auto drain = [&] {
    while (auto msg = (*channel)->TryReceive()) {
      ++row.frames;
      if (msg->type == transport::kEventBatchMessageType) {
        frame.Clear();
        if (frame.DecodeBinaryStreamInto(msg->payload).ok()) {
          decoded += frame.size();
        }
      } else {
        if (line.AssignAscii(msg->payload).ok()) ++decoded;
      }
    }
  };
  const double t0 = NowSeconds();
  for (int i = 0; i < kWireEvents; ++i) {
    gw.Publish(corpus[static_cast<std::size_t>(i) % corpus.size()]);
    if (i % burst == burst - 1) drain();
  }
  clock.Advance(service.batch_max_age());
  service.PollOnce();  // flush the partial tail batch
  drain();
  row.records_per_s = kWireEvents / (NowSeconds() - t0);
  if (decoded != static_cast<std::uint64_t>(kWireEvents)) {
    std::fprintf(stderr, "record loss: decoded %llu of %d\n",
                 static_cast<unsigned long long>(decoded), kWireEvents);
  }
  return row;
}

WireRow MeasureWire(const std::vector<ulm::Record>& events, std::size_t batch,
                    int burst) {
  WireRow best = TimedWirePass(events, batch, burst);  // warm-up counts too
  for (int r = 0; r < 3; ++r) {
    WireRow row = TimedWirePass(events, batch, burst);
    if (row.records_per_s > best.records_per_s) best = row;
  }
  return best;
}

// ------------------------------------------- Part C: flat record hot path

constexpr int kFlatEvents = 200000;
constexpr int kFlatSubs = 8;
constexpr std::size_t kFlatFrame = 256;
constexpr double kMinFlatSpeedup = 3.0;

archive::EventArchive MakePipelineArchive() {
  archive::SegmentConfig config;
  config.max_records = 8192;
  config.max_span = 1000 * kHour;
  config.stripes = 8;
  return archive::EventArchive("bench", 1, config);
}

/// One owned Record frame as the flat chunk the archive stores — the
/// per-record conversion the pre-flat archive ran at ingest.
ulm::FlatBatch FrameToBatch(const std::vector<ulm::Record>& frame) {
  ulm::FlatBatch batch;
  batch.Reserve(frame.size(), frame.size() * 64);
  for (const auto& rec : frame) (void)batch.Append(rec);
  return batch;
}

/// The pre-ISSUE-7 shape of one sensor→manager→gateway→republisher→archive
/// trip, reconstructed faithfully: a string-keyed Record is COPIED at each
/// hand-off (manager queue, gateway cache/fan-out, federation republish),
/// hop stamps go through string-keyed SetField, routing and summary
/// bookkeeping compare event-name strings, each event is encoded once for
/// its subscribers, and the archive takes owned Record frames converted
/// into one flat chunk per frame.
double TimedLegacyPipelinePass(const std::vector<ulm::Record>& events) {
  auto ar = MakePipelineArchive();
  std::map<std::string, std::uint64_t> summary;
  ulm::Record last_event;  // gateway last-event caches (GetLastEvent)
  std::map<std::string, ulm::Record> last_by_event;
  std::vector<std::string> want;
  for (int s = 0; s < kFlatSubs; ++s) {
    want.push_back(s % 2 ? events[0].event_name() : "other.event");
  }
  std::vector<ulm::Record> frame;
  frame.reserve(kFlatFrame);
  std::uint64_t sink = 0;
  const double t0 = NowSeconds();
  for (int i = 0; i < kFlatEvents; ++i) {
    const auto& rec = events[static_cast<std::size_t>(i) % events.size()];
    ulm::Record hop1 = rec;                    // manager queue hand-off
    hop1.SetField("HOP.MGR", "1");
    ulm::Record hop2 = hop1;                   // gateway fan-out copy
    hop2.SetField("HOP.GW", "1");
    summary[hop2.event_name()]++;              // string-keyed summary
    last_event = hop2;                         // gateway caches: two full
    last_by_event[hop2.event_name()] = hop2;   // Record copies per publish
    std::string binary;                        // encoded once, on demand
    for (const auto& w : want) {               // per-subscriber routing
      if (hop2.event_name() != w) continue;
      if (binary.empty()) binary = ulm::reference::EncodeBinary(hop2);
      sink += binary.size();
    }
    ulm::Record hop3 = hop2;                   // republisher hand-off
    hop3.SetField("HOP.FED", "1");
    frame.push_back(std::move(hop3));
    if (frame.size() == kFlatFrame) {
      ar.IngestBatch(FrameToBatch(frame));
      frame.clear();
    }
  }
  if (!frame.empty()) ar.IngestBatch(FrameToBatch(frame));
  const double elapsed = NowSeconds() - t0;
  if (sink == 0 || ar.size() != static_cast<std::size_t>(kFlatEvents)) {
    std::fprintf(stderr, "legacy pipeline lost records\n");
    std::exit(1);
  }
  return elapsed;
}

/// The same trip on the flat core. The sensor edge builds flat records
/// natively with pre-interned symbols (what the migrated SensorManager
/// does), so the corpus is flat before the timed region — symmetric with
/// the legacy pass, which starts from its native Record corpus. Each
/// event then pays the manager hand-off copy, symbol stamps, symbol-keyed
/// summary/routing, encode-once off the view, and a FlatBatch splice into
/// the archive.
double TimedFlatPipelinePass(const std::vector<ulm::Record>& events) {
  auto ar = MakePipelineArchive();
  std::map<ulm::Symbol, std::uint64_t> summary;
  ulm::FlatRecord last_event;  // gateway last-event caches (GetLastEvent)
  std::map<ulm::Symbol, ulm::FlatRecord> last_by_event;
  const ulm::Symbol hop_mgr = ulm::InternSymbol("HOP.MGR");
  const ulm::Symbol hop_gw = ulm::InternSymbol("HOP.GW");
  const ulm::Symbol hop_fed = ulm::InternSymbol("HOP.FED");
  std::vector<ulm::Symbol> want;
  for (int s = 0; s < kFlatSubs; ++s) {
    want.push_back(s % 2 ? ulm::InternSymbol(events[0].event_name())
                         : ulm::InternSymbol("other.event"));
  }
  std::vector<ulm::FlatRecord> corpus = FlatCorpus(events);  // native output
  ulm::FlatRecord scratch;
  ulm::FlatBatch batch;
  std::uint64_t sink = 0;
  const double t0 = NowSeconds();
  for (int i = 0; i < kFlatEvents; ++i) {
    scratch = corpus[static_cast<std::size_t>(i) % corpus.size()];
    scratch.SetField(hop_mgr, "1");
    scratch.SetField(hop_gw, "1");             // view rides the gateway hop
    const ulm::RecordView view = scratch.View();
    summary[view.event_sym()]++;               // symbol-keyed summary
    last_event = scratch;                      // gateway caches: two flat
    last_by_event[view.event_sym()] = scratch;  // buffer copies per publish
    ulm::EncodedRecord enc(view);
    for (ulm::Symbol w : want) {               // per-subscriber routing
      if (view.event_sym() == w) sink += enc.Binary().size();
    }
    scratch.SetField(hop_fed, "1");            // republisher stamp, in place
    (void)batch.Append(scratch.View());
    if (batch.size() == kFlatFrame) {
      ar.IngestBatch(std::move(batch));
      batch = {};
    }
  }
  if (!batch.empty()) ar.IngestBatch(std::move(batch));
  const double elapsed = NowSeconds() - t0;
  if (sink == 0 || ar.size() != static_cast<std::size_t>(kFlatEvents)) {
    std::fprintf(stderr, "flat pipeline lost records\n");
    std::exit(1);
  }
  return elapsed;
}

struct FlatRow {
  double legacy_rate;
  double flat_rate;
  double speedup;  // median of paired ratios
};

FlatRow MeasureFlatPipeline(const std::vector<ulm::Record>& events) {
  (void)TimedLegacyPipelinePass(events);  // warm both paths
  (void)TimedFlatPipelinePass(events);
  double legacy = 1e30, flat = 1e30;
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    const double l = TimedLegacyPipelinePass(events);
    const double f = TimedFlatPipelinePass(events);
    legacy = std::min(legacy, l);
    flat = std::min(flat, f);
    ratios.push_back(l / f);
  }
  std::sort(ratios.begin(), ratios.end());
  return {kFlatEvents / legacy, kFlatEvents / flat, ratios[ratios.size() / 2]};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const auto events = BenchEvents();

  std::printf("event pipeline throughput — encode-once fan-out and batched "
              "wire delivery\n\n");

  // Part A: subscriber sweep.
  std::printf("fan-out (%d publishes, binary subscribers, median of %d "
              "paired ratios)\n", kFanoutPublishes, kRepeats);
  std::printf("%-12s | %18s | %18s | %8s\n", "subscribers",
              "per-sub encode/s", "encode-once/s", "speedup");
  std::vector<FanoutRow> fanout;
  for (int nsubs : {1, 8, 64}) {
    fanout.push_back(MeasureFanout(events, nsubs));
    const auto& r = fanout.back();
    std::printf("%-12d | %18.0f | %18.0f | %7.2fx\n", r.subscribers,
                r.baseline_rate, r.encode_once_rate, r.speedup);
  }

  // Part B: batch × burst sweep. Unbatched (batch 0) first, as the frame
  // baseline for the send-reduction column.
  std::printf("\nwire delivery (%d records to one remote consumer, best of "
              "4)\n", kWireEvents);
  std::printf("%-8s | %6s | %8s | %12s | %10s\n", "batch", "burst", "frames",
              "records/s", "sends cut");
  std::vector<WireRow> wire;
  for (int burst : {32, 1024}) {
    for (std::size_t batch : {std::size_t{0}, std::size_t{4}, std::size_t{16},
                              std::size_t{64}}) {
      wire.push_back(MeasureWire(events, batch, burst));
    }
  }
  auto unbatched_frames = [&](int burst) -> double {
    for (const auto& r : wire) {
      if (r.batch == 0 && r.burst == burst) return static_cast<double>(r.frames);
    }
    return 0;
  };
  for (const auto& r : wire) {
    const double cut = unbatched_frames(r.burst) / static_cast<double>(r.frames);
    std::printf("%-8s | %6d | %8llu | %12.0f | %9.1fx\n",
                r.batch == 0 ? "none" : std::to_string(r.batch).c_str(),
                r.burst, static_cast<unsigned long long>(r.frames),
                r.records_per_s, cut);
  }

  // Part C: flat record hot path (ISSUE 7).
  std::printf("\nflat pipeline (%d events, %d subscribers, 3 hops + archive, "
              "median of %d paired ratios)\n",
              kFlatEvents, kFlatSubs, kRepeats);
  const FlatRow flat = MeasureFlatPipeline(events);
  std::printf("string-keyed Record: %12.0f events/s\n", flat.legacy_rate);
  std::printf("flat RecordView:     %12.0f events/s  (%.2fx)\n",
              flat.flat_rate, flat.speedup);

  // Acceptance metrics.
  const double speedup64 = fanout.back().speedup;
  double reduction16 = 0;
  for (const auto& r : wire) {
    if (r.batch == 16 && r.burst == 1024) {
      reduction16 = unbatched_frames(r.burst) / static_cast<double>(r.frames);
    }
  }
  std::printf("\nencode-once speedup at 64 subscribers: %.2fx (floor %.1fx)\n",
              speedup64, kMinSpeedup64);
  std::printf("send reduction at batch 16: %.1fx (floor %.1fx)\n",
              reduction16, kMinSendReduction16);
  std::printf("flat pipeline speedup: %.2fx (floor %.1fx)\n", flat.speedup,
              kMinFlatSpeedup);

  // Machine-readable results for scripts/check_bench.sh.
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"bench_pipeline_throughput\",\n");
  std::fprintf(json, "  \"workload\": \"vmstat records; fan-out %d publishes "
               "x {1,8,64} binary subscribers; wire %d records x batch "
               "{none,4,16,64} x burst {32,1024} over in-proc transport\",\n",
               kFanoutPublishes, kWireEvents);
  std::fprintf(json, "  \"method\": \"fan-out speedup = median of %d paired "
               "baseline/encode-once ratios; wire rows = best of 4 passes; "
               "frames counted at the consumer\",\n", kRepeats);
  std::fprintf(json, "  \"results\": {\n");
  std::fprintf(json, "    \"fanout\": [\n");
  for (std::size_t i = 0; i < fanout.size(); ++i) {
    const auto& r = fanout[i];
    std::fprintf(json, "      {\"subscribers\": %d, \"baseline_per_s\": %.0f, "
                 "\"encode_once_per_s\": %.0f, \"speedup\": %.2f}%s\n",
                 r.subscribers, r.baseline_rate, r.encode_once_rate, r.speedup,
                 i + 1 < fanout.size() ? "," : "");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json, "    \"wire\": [\n");
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto& r = wire[i];
    std::fprintf(json, "      {\"batch\": %llu, \"burst\": %d, \"frames\": "
                 "%llu, \"records_per_s\": %.0f}%s\n",
                 static_cast<unsigned long long>(r.batch), r.burst,
                 static_cast<unsigned long long>(r.frames), r.records_per_s,
                 i + 1 < wire.size() ? "," : "");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json, "    \"encode_once_speedup_64subs\": %.2f,\n", speedup64);
  std::fprintf(json, "    \"encode_once_speedup_floor\": %.1f,\n",
               kMinSpeedup64);
  std::fprintf(json, "    \"send_reduction_batch16\": %.1f,\n", reduction16);
  std::fprintf(json, "    \"send_reduction_floor\": %.1f,\n",
               kMinSendReduction16);
  std::fprintf(json, "    \"flat_pipeline\": {\"legacy_per_s\": %.0f, "
               "\"flat_per_s\": %.0f},\n", flat.legacy_rate, flat.flat_rate);
  std::fprintf(json, "    \"flat_speedup\": %.2f,\n", flat.speedup);
  std::fprintf(json, "    \"flat_speedup_floor\": %.1f\n", kMinFlatSpeedup);
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (speedup64 < kMinSpeedup64 || reduction16 < kMinSendReduction16) {
    std::printf("FAIL: pipeline acceptance bars not met\n");
    return 1;
  }
  if (flat.speedup < kMinFlatSpeedup) {
    std::printf("FAIL: flat pipeline speedup %.2fx below floor %.1fx\n",
                flat.speedup, kMinFlatSpeedup);
    return 1;
  }
  std::printf("PASS: encode-once, batching, and the flat hot path meet "
              "their floors\n");
  return 0;
}
