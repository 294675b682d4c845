#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "history.hpp"
#include "pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr TimePoint kEpoch = 1'000'000'000LL * kSecond;  // 2001-09-09

/// Records per archive segment. Small enough that a seal (and its SEG2
/// compression) lands about every 70 waves, so sealing is a steady share
/// of the saturation figures rather than a rare event.
constexpr std::size_t kSegmentRecords = 2048;

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A shared machine runs this code at two speeds about 1.3-1.6x apart,
/// each for seconds to minutes at a time, and mostly at the slower one. A
/// figure that sits between the two (a pooled median, a mean, the best
/// block) flips from run to run with the share of fast stretches, so every
/// reported figure sits in the usual, slower mode: latency p90 over the
/// pooled samples, and per-block rates at this quantile, i.e. the rate
/// nine in ten blocks reach.
constexpr double kRateQuantile = 0.1;

// ------------------------------------------------------------------ sizes

struct Sizes {
  int setups = 3;
  PipelineOptions pipe;
  int warmup_waves = 0;
  std::uint64_t sat_events = 0;
  int blocks = 30;         // rounds of saturation, open-loop, query blocks
  int open_waves = 0;      // per block
  std::int64_t period_ns = 0;
  std::size_t queries = 0; // per block
  int hist_hosts = 0;      // query_mixed history
  int hist_ticks = 0;
};

/// Fixed work per workload. `seconds` scales the saturation events only.
/// Latency percentiles are taken over every block's samples pooled (at
/// least 1500 of each); rates are the rate nine in ten blocks reach (see
/// kRateQuantile). Each open-loop period offers a quarter to a half of the
/// workload's closed-loop saturation rate, so a stall's backlog drains
/// within a few waves.
Sizes SizesFor(const std::string& workload, const Args& args) {
  Sizes s;
  const double scale = args.seconds / 10.0;
  s.pipe.seed = args.seed;
  s.pipe.hosts = 1000;
  s.pipe.groups = 250;  // 4 hosts a wave, one wave every 4 ms of sim time
  if (args.tiny) {
    s.setups = 1;
    s.pipe.hosts = 64;
    s.pipe.groups = 4;
    s.pipe.gateways = workload == "federation_deep" ? 16 : 4;
    s.warmup_waves = 8;
    s.sat_events = 2000;
    s.blocks = 2;
    s.open_waves = 20;
    s.period_ns = 2'000'000;
    s.queries = 20;
    s.hist_hosts = 8;
    s.hist_ticks = 512;
  } else if (workload == "ingest_wire") {
    s.pipe.gateways = 4;
    s.warmup_waves = 5000;
    s.sat_events = static_cast<std::uint64_t>(600'000 * scale);
    s.open_waves = 160;
    s.period_ns = 2'000'000;
    s.queries = 50;
  } else if (workload == "federation_deep") {
    s.pipe.gateways = 16;
    s.warmup_waves = 1500;
    s.sat_events = static_cast<std::uint64_t>(120'000 * scale);
    s.open_waves = 110;
    s.period_ns = 4'000'000;
    s.queries = 50;
  } else {  // query_mixed
    s.pipe.hosts = 256;
    s.pipe.groups = 64;
    s.pipe.gateways = 2;
    s.pipe.consumers = 1;
    s.warmup_waves = 1280;
    s.sat_events = static_cast<std::uint64_t>(300'000 * scale);
    s.open_waves = 240;
    s.period_ns = 2'500'000;
    s.queries = 240;
    s.hist_hosts = 32;
    s.hist_ticks = 32768;
  }
  s.pipe.federation = workload == "federation_deep";
  s.pipe.count_wire = args.trace;
  return s;
}

// -------------------------------------------------------------------- rig

struct Rig {
  std::unique_ptr<archive::EventArchive> archive;
  std::unique_ptr<History> history;
  std::unique_ptr<Pipeline> pipe;  // declared last: destroyed first
};

Result<std::unique_ptr<Rig>> BuildRig(const Sizes& sizes, std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  archive::SegmentConfig config;
  config.max_records = kSegmentRecords;
  config.compress_sealed = true;
  rig->archive = std::make_unique<archive::EventArchive>("bench", 1, config);
  PipelineOptions pipe = sizes.pipe;
  pipe.start = kEpoch;
  if (sizes.hist_ticks > 0) {
    rig->history = std::make_unique<History>(seed, sizes.hist_hosts,
                                             sizes.hist_ticks, kEpoch);
    rig->history->Preload(*rig->archive);
    pipe.start = rig->history->end() + kSecond;
  }
  rig->pipe = std::make_unique<Pipeline>(pipe, *rig->archive);
  JAMM_RETURN_IF_ERROR(rig->pipe->Build());
  for (int w = 0; w < sizes.warmup_waves; ++w) rig->pipe->Wave();
  return rig;
}

// ----------------------------------------------------------------- phases

struct Saturation {
  std::uint64_t events = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;   // driver thread
  std::vector<double> rate;   // per block: events visible per second
  std::vector<double> cpu_us; // per block: process CPU us per event

  void Merge(const Saturation& block) {
    events += block.events;
    wall_s += block.wall_s;
    cpu_s += block.cpu_s;
    allocs += block.allocs;
    rate.insert(rate.end(), block.rate.begin(), block.rate.end());
    cpu_us.insert(cpu_us.end(), block.cpu_us.begin(), block.cpu_us.end());
  }
};

/// One closed-loop block: the next wave starts only once the previous one
/// is fully visible in the archive; runs waves until `target` events.
Saturation Saturate(Pipeline& pipe, std::uint64_t target) {
  Saturation s;
  const std::uint64_t allocs0 = ThreadAllocs();
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  while (s.events < target) s.events += pipe.Wave();
  s.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  s.cpu_s = ProcessCpuSeconds() - cpu0;
  s.allocs = ThreadAllocs() - allocs0;
  s.rate.push_back(Ratio(s.events, s.wall_s));
  s.cpu_us.push_back(Ratio(s.cpu_s * 1e6, s.events));
  return s;
}

struct OpenLoop {
  std::vector<double> visible_ms;
  std::vector<double> late_ms;
  std::uint64_t events = 0;

  void Merge(const OpenLoop& block) {
    visible_ms.insert(visible_ms.end(), block.visible_ms.begin(),
                      block.visible_ms.end());
    late_ms.insert(late_ms.end(), block.late_ms.begin(), block.late_ms.end());
    events += block.events;
  }
};

/// Open loop at a fixed wave rate. Each wave is timed from when it was
/// due, so a stall delays — and is charged to — every wave behind it.
/// `idle` runs while the next wave is not yet due.
OpenLoop RunOpenLoop(Pipeline& pipe, int waves, std::int64_t period_ns,
                     const std::function<void()>& idle) {
  OpenLoop out;
  out.visible_ms.reserve(static_cast<std::size_t>(waves));
  const std::int64_t first = NowNs() + period_ns;
  for (int k = 0; k < waves; ++k) {
    const std::int64_t due = first + k * period_ns;
    while (NowNs() < due) idle();
    const std::int64_t start = NowNs();
    out.events += pipe.Wave();
    const std::int64_t visible = NowNs();
    out.late_ms.push_back(static_cast<double>(start - due) / 1e6);
    out.visible_ms.push_back(static_cast<double>(visible - due) / 1e6);
  }
  return out;
}

struct QueryRun {
  std::vector<double> ms;
  std::map<std::string, std::vector<double>> ms_by_kind;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t checked = 0;
  std::uint64_t with_stats = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t segments_total = 0;
  std::uint64_t segments_pruned = 0;
  double wall_s = 0;
  std::vector<double> block_rate;

  /// Fold one block in; its query rate is kept per block.
  void Merge(const QueryRun& block) {
    ms.insert(ms.end(), block.ms.begin(), block.ms.end());
    for (const auto& [kind, v] : block.ms_by_kind) {
      ms_by_kind[kind].insert(ms_by_kind[kind].end(), v.begin(), v.end());
    }
    failed += block.failed;
    mismatched += block.mismatched;
    checked += block.checked;
    with_stats += block.with_stats;
    bytes_scanned += block.bytes_scanned;
    segments_total += block.segments_total;
    segments_pruned += block.segments_pruned;
    wall_s += block.wall_s;
    block_rate.push_back(Ratio(block.ms.size(), block.wall_s));
  }

  void Add(const char* kind, const QueryOutcome& q, bool checked_query) {
    ms.push_back(q.ms);
    ms_by_kind[kind].push_back(q.ms);
    if (!q.ok) ++failed;
    if (q.mismatch) ++mismatched;
    if (checked_query) ++checked;
    if (q.has_stats) {
      ++with_stats;
      bytes_scanned += q.stats.bytes_scanned;
      segments_total += q.stats.segments_total;
      segments_pruned += q.stats.segments_pruned;
    }
  }
};

/// Runs `client_body` on a second thread (the query client). This thread
/// runs `driver` (if any), then serves the archive's RpcServer until the
/// client is done.
QueryRun RunWithClient(Pipeline& pipe,
                       const std::function<void(QueryRun&)>& client_body,
                       const std::function<void()>& driver) {
  QueryRun run;
  std::atomic<bool> done{false};
  std::thread client([&] {
    const std::int64_t t0 = NowNs();
    client_body(run);
    run.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    done.store(true, std::memory_order_release);
  });
  if (driver) driver();
  while (!done.load(std::memory_order_acquire)) pipe.PollRpc();
  client.join();
  return run;
}

// -------------------------------------------------------- read-back checks

/// Multiset equality of two string lists.
bool SameMultiset(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// One read-back query for a shadowed host over [ts, t1), checked
/// against what the shadow sensors emitted.
void ReadbackQuery(archive::ArchiveClient& client, const std::string& host,
                   TimePoint ts, TimePoint t1, const std::vector<RefEvent>& want,
                   int kind, QueryRun& run) {
  static const char* const kKinds[] = {"host", "lifeline", "point"};
  static const SpanName kSpans[] = {SpanName::kQueryHost,
                                    SpanName::kQueryLifeline,
                                    SpanName::kQueryPoint};
  QueryOutcome q;
  std::vector<std::string> expected;
  std::vector<std::string> got;
  archive::AnalysisSpec spec;
  spec.host = host;
  std::int64_t start = 0;
  {
    ScopedSpan span(kSpans[kind]);
    start = NowNs();
    if (kind == 0) {
      auto records = client.QueryHost(host, ts, t1);
      q.ms = static_cast<double>(NowNs() - start) / 1e6;
      q.ok = records.ok();
      if (q.ok) {
        for (const auto& r : *records) {
          got.push_back(std::to_string(r.timestamp()) + " " + r.event_name() +
                        " " + r.GetField("VAL").value_or(""));
        }
      }
      for (const auto& e : want) {
        expected.push_back(std::to_string(e.ts) + " " + e.event + " " + e.val);
      }
    } else if (kind == 1) {
      auto lifelines = client.QueryLifelines(spec, ts, t1);
      q.ms = static_cast<double>(NowNs() - start) / 1e6;
      q.ok = lifelines.ok();
      if (q.ok) {
        q.has_stats = true;
        q.stats = client.last_query_stats();
        for (const auto& l : *lifelines) {
          std::string line = std::to_string(l.hops.size());
          for (const auto& hop : l.hops) {
            line += " " + std::to_string(hop.ts) + " " + hop.event + " " +
                    hop.host;
          }
          got.push_back(line);
        }
      }
      for (const auto& e : want) {
        expected.push_back("1 " + std::to_string(e.ts) + " " + e.event + " " +
                           host);
      }
    } else {
      spec.value_field = "VAL";
      auto points = client.QueryPoints(spec, ts, t1);
      q.ms = static_cast<double>(NowNs() - start) / 1e6;
      q.ok = points.ok();
      if (q.ok) {
        q.has_stats = true;
        q.stats = client.last_query_stats();
        char buf[64];
        for (const auto& p : *points) {
          std::snprintf(buf, sizeof(buf), "%lld %.17g",
                        static_cast<long long>(p.ts), p.value);
          got.push_back(buf);
        }
      }
      char buf[64];
      for (const auto& e : want) {
        std::snprintf(buf, sizeof(buf), "%lld %.17g",
                      static_cast<long long>(e.ts),
                      std::strtod(e.val.c_str(), nullptr));
        expected.push_back(buf);
      }
    }
  }
  q.mismatch = q.ok && !SameMultiset(expected, got);
  run.Add(kKinds[kind], q, true);
}

/// Read-back window: this many sim seconds (polls) of one shadowed host,
/// so a query decodes several sealed segments and the server's work, not
/// the client's and server's wake-ups, is most of its time.
constexpr Duration kReadbackWindow = 4 * kSecond;

/// Read-back phase: a seeded closed loop of host / lifeline / point
/// queries, each over the last kReadbackWindow of one shadowed host up to
/// one of its polls — the sensor events' final hop, queried back out of
/// the archive.
QueryRun RunReadback(Pipeline& pipe, std::size_t n, std::uint64_t seed) {
  struct Target {
    const Pipeline::Shadow* shadow;
    TimePoint ts;
  };
  std::vector<Target> targets;
  for (const auto& shadow : pipe.shadows()) {
    for (const auto& [ts, events] : Pipeline::ShadowEvents(*shadow)) {
      if (!events.empty()) targets.push_back({shadow.get(), ts});
    }
  }
  auto dialer = pipe.MakeDialer(pipe.rpc_address(), "archive");
  const std::string object = pipe.archive_object();
  const Duration step = pipe.wave_step();
  return RunWithClient(
      pipe,
      [&](QueryRun& run) {
        archive::ArchiveClient client(dialer, object);
        Rng rng(seed ^ 0x7EADull);
        std::vector<RefEvent> want;
        for (std::size_t i = 0; i < n && !targets.empty(); ++i) {
          const auto& t = targets[static_cast<std::size_t>(
              rng.Uniform(0, static_cast<std::int64_t>(targets.size()) - 1))];
          const TimePoint t1 = t.ts + step;
          const TimePoint t0 = t1 - kReadbackWindow;
          const auto& events = Pipeline::ShadowEvents(*t.shadow);
          want.clear();
          for (auto it = events.lower_bound(t0); it != events.end() &&
                                                 it->first < t1;
               ++it) {
            want.insert(want.end(), it->second.begin(), it->second.end());
          }
          ReadbackQuery(client, Pipeline::ShadowHost(*t.shadow), t0, t1, want,
                        static_cast<int>(i % 3), run);
        }
      },
      nullptr);
}

// ---------------------------------------------------------------- report

struct Counters {
  Pipeline::LayerStats layers;
  std::uint64_t encode_hits = 0;
  std::uint64_t encode_misses = 0;
  std::uint64_t seals = 0;

  static Counters Take(const Pipeline& pipe,
                       const archive::EventArchive& archive) {
    Counters c;
    c.layers = pipe.Stats();
    auto& m = telemetry::Metrics();
    c.encode_hits = m.counter("gateway.encode_cache.hits").Value();
    c.encode_misses = m.counter("gateway.encode_cache.misses").Value();
    c.seals = archive.seal_count();
    return c;
  }
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string TraceJson(const std::string& workload, const Pipeline& pipe,
                      const Pipeline::Ledger& ledger) {
  const auto aggs = Tracer::Get().Aggregates();
  std::string out = "{\"workload\": \"" + workload + "\", \"spans\": {";
  char buf[512];
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const auto& a = aggs[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %llu, \"total_us\": %.3f, "
                  "\"self_us\": %.3f, \"self_allocs\": %llu}",
                  i ? ", " : "", SpanNameString(static_cast<SpanName>(i)),
                  static_cast<unsigned long long>(a.count), a.total_ns / 1e3,
                  a.self_ns / 1e3, static_cast<unsigned long long>(a.self_allocs));
    out += buf;
  }
  out += "}, \"wire\": [";
  bool first = true;
  for (const auto& w : pipe.wire()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"hop\": \"%s\", \"sent_msgs\": %llu, \"sent_bytes\": "
                  "%llu, \"recv_msgs\": %llu, \"recv_bytes\": %llu}",
                  first ? "" : ", ", JsonEscape(w.hop).c_str(),
                  static_cast<unsigned long long>(w.sent_msgs.load()),
                  static_cast<unsigned long long>(w.sent_bytes.load()),
                  static_cast<unsigned long long>(w.recv_msgs.load()),
                  static_cast<unsigned long long>(w.recv_bytes.load()));
    out += buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf),
                "], \"ledger\": {\"emitted\": %llu, \"archived\": %llu, "
                "\"counted_drops\": %llu, \"exact\": %s}, \"raw_spans_fields\": "
                "[\"name\", \"thread\", \"wave\", \"parent\", \"start_us\", "
                "\"dur_us\", \"allocs\"], \"raw_spans\": [",
                static_cast<unsigned long long>(ledger.emitted),
                static_cast<unsigned long long>(ledger.archived),
                static_cast<unsigned long long>(ledger.counted_drops),
                ledger.exact ? "true" : "false");
  out += buf;
  const auto raw = Tracer::Get().RawSpans();
  const std::int64_t base = raw.empty() ? 0 : raw.front().start_ns;
  constexpr std::size_t kMaxRaw = 50000;
  for (std::size_t i = 0; i < raw.size() && i < kMaxRaw; ++i) {
    const auto& r = raw[i];
    std::snprintf(buf, sizeof(buf), "%s[\"%s\", %u, %lld, %d, %.3f, %.3f, %llu]",
                  i ? ", " : "", SpanNameString(r.name), r.thread,
                  static_cast<long long>(r.wave), r.parent,
                  (r.start_ns - base) / 1e3, (r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.allocs));
    out += buf;
  }
  out += "]}";
  return out;
}

/// Everything a run measured, turned into the reported metrics.
struct Measured {
  std::vector<double> setup_s;
  double calib_before = 0;
  double calib_after = 0;
  Saturation sat;           // the rounds' saturation blocks
  Saturation sat_untraced;  // traced run only: reference block
  OpenLoop open;
  QueryRun queries;
  Counters before;          // when tracing began
  Counters after;
  std::uint64_t seals_before = 0;
  Pipeline::Ledger ledger;
  bool pipeline_failed = false;
  double storage_bytes_per_record = 0;
};

RunResult Report(const Args& args, const Measured& m, const Pipeline& pipe) {
  RunResult r;
  const std::uint64_t queries = m.queries.ms.size();
  r.attempted = m.ledger.emitted + queries;
  r.failed = m.ledger.failed + m.queries.failed + m.queries.mismatched +
             pipe.stuck_waves();
  r.correct = r.failed == 0 && m.ledger.exact && !m.pipeline_failed &&
              r.attempted > 0;

  r.end_to_end = {
      {"setup_s", Median(m.setup_s), "s"},
      {"events_per_s", Quantile(m.sat.rate, kRateQuantile), "1/s"},
      {"visible_p90_ms", Quantile(m.open.visible_ms, 0.90), "ms"},
      {"query_p90_ms", Quantile(m.queries.ms, 0.90), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };

  const double error_rate = Ratio(r.failed, r.attempted);
  r.diagnostics = {
      {"error_rate", error_rate, "frac"},
      {"events_emitted", static_cast<double>(m.ledger.emitted), "count"},
      {"events_archived", static_cast<double>(m.ledger.archived), "count"},
      {"events_counted_drops", static_cast<double>(m.ledger.counted_drops),
       "count"},
      {"waves_mismatched", static_cast<double>(m.ledger.waves_mismatched),
       "count"},
      {"saturation_events", static_cast<double>(m.sat.events), "count"},
      {"open_loop_waves", static_cast<double>(m.open.visible_ms.size()),
       "count"},
      {"open_loop_events", static_cast<double>(m.open.events), "count"},
      {"queries", static_cast<double>(queries), "count"},
      {"queries_checked", static_cast<double>(m.queries.checked), "count"},
      {"consumer_events", static_cast<double>(m.after.layers.consumer_events),
       "count"},
      {"driver.late_p99_ms", Quantile(m.open.late_ms, 0.99), "ms"},
      // The medians flip between the machine's two speeds, beyond p90 both
      // latencies follow rare 10-50 ms stalls, and one closed-loop client's
      // query rate is its mean query time again (see README), so these are
      // reported here, not as metrics.
      {"visible_p50_ms", Median(m.open.visible_ms), "ms"},
      {"visible_p75_ms", Quantile(m.open.visible_ms, 0.75), "ms"},
      {"query_p50_ms", Median(m.queries.ms), "ms"},
      {"query_p75_ms", Quantile(m.queries.ms, 0.75), "ms"},
      {"queries_per_s", Quantile(m.queries.block_rate, kRateQuantile), "1/s"},
      {"visible_p99_ms", Quantile(m.open.visible_ms, 0.99), "ms"},
      {"query_p99_ms", Quantile(m.queries.ms, 0.99), "ms"},
      // A per-layer metric, since it moves with the machine's speed by
      // more than any end-to-end bound allows.
      {"cpu_us_per_event", Quantile(m.sat.cpu_us, 1 - kRateQuantile), "us"},
      {"calib.ns_per_op", m.calib_before, "ns"},
      {"calib.ns_per_op_after", m.calib_after, "ns"},
  };
  for (std::size_t i = 0; i < m.setup_s.size(); ++i) {
    r.diagnostics.push_back(
        {"setup_s." + std::to_string(i), m.setup_s[i], "s"});
  }
  r.samples_json = "{\"sat_rate_blocks\": " + JsonArray(m.sat.rate) +
                   ", \"sat_cpu_us_blocks\": " + JsonArray(m.sat.cpu_us) +
                   ", \"query_rate_blocks\": " + JsonArray(m.queries.block_rate) +
                   ", \"visible_ms\": " + JsonArray(m.open.visible_ms) +
                   ", \"late_ms\": " + JsonArray(m.open.late_ms) +
                   ", \"query_ms\": " + JsonArray(m.queries.ms) + "}";

  if (!args.trace) return r;

  // Per-layer metrics: traced phases only (saturation, open loop, queries).
  const auto aggs = Tracer::Get().Aggregates();
  auto agg = [&](SpanName n) -> const SpanAggregate& {
    return aggs[static_cast<std::size_t>(n)];
  };
  const double events =
      static_cast<double>(m.sat.events + m.open.events);
  const auto& b = m.before.layers;
  const auto& a = m.after.layers;
  auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double fed_allocs =
      static_cast<double>(agg(SpanName::kFedPumpT0).self_allocs +
                          agg(SpanName::kFedPumpT1).self_allocs +
                          agg(SpanName::kFedPumpRoot).self_allocs);
  std::vector<double> pump_us(agg(SpanName::kArchiverPump).durations_us.begin(),
                              agg(SpanName::kArchiverPump).durations_us.end());
  auto self_us_per_event = [&](SpanName n) {
    return Ratio(agg(n).self_ns / 1e3, events);
  };
  auto kind_p50 = [&](const char* kind) {
    auto it = m.queries.ms_by_kind.find(kind);
    return it == m.queries.ms_by_kind.end() ? 0.0 : Quantile(it->second, 0.5);
  };
  const double untraced_s = Ratio(m.sat_untraced.wall_s, m.sat_untraced.events);
  const double traced_s = Ratio(m.sat.wall_s, m.sat.events);

  r.per_layer = {
      {"manager.tick_us_per_event", self_us_per_event(SpanName::kManagerTick),
       "us"},
      {"manager.allocs_per_event",
       Ratio(agg(SpanName::kManagerTick).self_allocs, events), "count"},
      {"gateway.deliveries_per_event",
       Ratio(delta(a.gw_delivered, b.gw_delivered),
             delta(a.gw_events_in, b.gw_events_in)),
       "count"},
      {"gateway.filtered_frac",
       Ratio(delta(a.gw_filtered, b.gw_filtered),
             delta(a.gw_filtered, b.gw_filtered) +
                 delta(a.gw_delivered, b.gw_delivered)),
       "frac"},
      {"gateway.encode_hit_frac",
       Ratio(delta(m.after.encode_hits, m.before.encode_hits),
             delta(m.after.encode_hits, m.before.encode_hits) +
                 delta(m.after.encode_misses, m.before.encode_misses)),
       "frac"},
      {"service.poll_us_per_event", self_us_per_event(SpanName::kServicePoll),
       "us"},
      {"service.dropped_records", static_cast<double>(m.ledger.service_dropped),
       "count"},
      {"wire.bytes_per_event", Ratio(delta(a.wire_bytes, b.wire_bytes), events),
       "B"},
      {"wire.msgs_per_event", Ratio(delta(a.wire_msgs, b.wire_msgs), events),
       "count"},
      {"federation.pump_us_per_event.t0",
       self_us_per_event(SpanName::kFedPumpT0), "us"},
      {"federation.pump_us_per_event.t1",
       self_us_per_event(SpanName::kFedPumpT1), "us"},
      {"federation.pump_us_per_event.root",
       self_us_per_event(SpanName::kFedPumpRoot), "us"},
      {"federation.allocs_per_event", Ratio(fed_allocs, events), "count"},
      {"federation.dup_frac",
       Ratio(delta(a.fed_duplicates, b.fed_duplicates),
             delta(a.fed_records_in, b.fed_records_in)),
       "frac"},
      {"federation.stale_frac",
       Ratio(delta(a.fed_stale, b.fed_stale),
             delta(a.fed_records_in, b.fed_records_in)),
       "frac"},
      {"archiver.pump_us_per_event", self_us_per_event(SpanName::kArchiverPump),
       "us"},
      {"archiver.pump_p99_us", Quantile(pump_us, 0.99), "us"},
      {"archiver.allocs_per_event",
       Ratio(agg(SpanName::kArchiverPump).self_allocs, events), "count"},
      {"archiver.remote_dropped", static_cast<double>(m.ledger.archiver_dropped),
       "count"},
      {"archive.bytes_per_event", m.storage_bytes_per_record, "B"},
      {"archive.seals_per_mevent",
       Ratio(delta(m.after.seals, m.before.seals) * 1e6, events), "count"},
  };
  for (const char* kind :
       {"range", "events", "host", "lifeline", "loadline", "point", "agg"}) {
    r.per_layer.push_back(
        {std::string("query.") + kind + ".p50_ms", kind_p50(kind), "ms"});
  }
  r.per_layer.insert(
      r.per_layer.end(),
      {
          {"query.bytes_scanned_per_query",
           Ratio(m.queries.bytes_scanned, m.queries.with_stats), "B"},
          {"query.pruned_frac",
           Ratio(m.queries.segments_pruned, m.queries.segments_total), "frac"},
          {"rpc.poll_us_per_query",
           Ratio(agg(SpanName::kRpcPoll).self_ns / 1e3, queries), "us"},
          {"driver.late_p99_ms", Quantile(m.open.late_ms, 0.99), "ms"},
          {"cpu_us_per_event", Quantile(m.sat.cpu_us, 1 - kRateQuantile), "us"},
          {"calib.ns_per_op", m.calib_before, "ns"},
          {"calib.drift_frac", Ratio(m.calib_after, m.calib_before) - 1, "frac"},
          {"trace.overhead_frac", Ratio(traced_s, untraced_s) - 1, "frac"},
          {"trace.wave_coverage", Tracer::Get().MedianWaveCoverage(), "frac"},
          {"alloc.per_event",
           Ratio(m.sat.allocs, m.sat.events), "count"},
          {"error_rate", error_rate, "frac"},
      });
  r.trace_json = TraceJson(args.workload, pipe, m.ledger);
  return r;
}

/// Shared skeleton of every workload: set up (several times, median
/// reported), then `blocks` rounds of a saturation block followed by the
/// workload's own open-loop / query block. Interleaving spreads each
/// metric's blocks over the whole run, so a slow stretch of a shared
/// machine lands in a few blocks of every metric rather than in all blocks
/// of one.
RunResult RunWorkload(
    const Args& args,
    const std::function<void(Rig&, const Sizes&, Measured&, int)>& block) {
  const Sizes sizes = SizesFor(args.workload, args);
  Measured m;
  m.calib_before = CalibrateNsPerOp();

  std::unique_ptr<Rig> rig;
  for (int i = 0; i < sizes.setups; ++i) {
    rig.reset();
    const std::int64_t t0 = NowNs();
    auto built = BuildRig(sizes, args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    rig = std::move(*built);
    m.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Pipeline& pipe = *rig->pipe;

  const std::uint64_t block_events = sizes.sat_events / sizes.blocks;
  if (args.trace) {
    // An untraced block first: the reference for the tracing overhead.
    m.sat_untraced = Saturate(pipe, block_events);
    Tracer::Get().set_raw_wave_limit(pipe.wave() + 64);
    Tracer::Get().Reset();
    m.before = Counters::Take(pipe, *rig->archive);
    Tracer::Get().set_enabled(true);
  }
  for (int b = 0; b < sizes.blocks; ++b) {
    m.sat.Merge(Saturate(pipe, block_events));
    block(*rig, sizes, m, b);
  }
  Tracer::Get().set_enabled(false);
  m.after = Counters::Take(pipe, *rig->archive);
  m.calib_after = CalibrateNsPerOp();
  m.ledger = pipe.TakeLedger();
  m.pipeline_failed = pipe.failed();
  m.storage_bytes_per_record =
      Ratio(rig->archive->StorageBytes(), rig->archive->size());
  return Report(args, m, pipe);
}

}  // namespace

RunResult RunPipelineWorkload(const Args& args) {
  return RunWorkload(
      args, [&](Rig& rig, const Sizes& sizes, Measured& m, int b) {
        m.open.Merge(
            RunOpenLoop(*rig.pipe, sizes.open_waves, sizes.period_ns, [] {}));
        m.queries.Merge(RunReadback(*rig.pipe, sizes.queries, args.seed + b));
      });
}

RunResult RunQueryMixed(const Args& args) {
  std::vector<HistoryQuery> mix;
  return RunWorkload(
      args, [&](Rig& rig, const Sizes& sizes, Measured& m, int b) {
        Pipeline& pipe = *rig.pipe;
        const History& history = *rig.history;
        if (mix.empty()) {
          mix = MakeQueryMix(history, sizes.queries * sizes.blocks, args.seed);
        }
        auto dialer = pipe.MakeDialer(pipe.rpc_address(), "archive");
        const std::string object = pipe.archive_object();
        // The client thread runs this block's slice of the query mix while
        // the pipeline thread runs a block of trickle waves, serving the
        // RpcServer between them; the block ends when both are done.
        OpenLoop trickle;
        m.queries.Merge(RunWithClient(
            pipe,
            [&](QueryRun& run) {
              archive::ArchiveClient client(dialer, object);
              for (std::size_t i = b * sizes.queries;
                   i < (b + 1) * sizes.queries; ++i) {
                run.Add(KindName(mix[i].kind),
                        RunHistoryQuery(client, history, mix[i]), mix[i].check);
              }
            },
            [&] {
              trickle = RunOpenLoop(pipe, sizes.open_waves, sizes.period_ns,
                                    [&pipe] { pipe.PollRpc(); });
            }));
        m.open.Merge(trickle);
      });
}

}  // namespace perfbench
