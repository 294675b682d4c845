// Tests for the self-instrumentation subsystem: sharded counters under
// concurrent increment, histogram quantiles on known distributions, trace
// context round-trip through ULM records, hop reconstruction across the
// full sensor → manager → gateway → archiver pipeline, and the exporter's
// text and ULM outputs.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "consumers/archiver.hpp"
#include "manager/sensor_manager.hpp"
#include "rpc/httpsim.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/http_export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "record_helpers.hpp"

namespace jamm::telemetry {
namespace {

// ------------------------------------------------------------------ metrics

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

// More live threads than leased shards: each leased shard has exactly one
// holder, the rest share the atomic shard, every increment is counted,
// and the leases come back when their threads exit.
TEST(CounterTest, ThreadsBeyondTheLeasedShardsShareOneAndSumExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr int kThreads = 12;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<int> started{0};
  std::vector<std::size_t> shards(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      shards[static_cast<std::size_t>(t)] = ShardIndex();
      started.fetch_add(1);
      // Hold every thread alive until all have taken a shard.
      while (started.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  std::set<std::size_t> leased;
  int shared = 0;
  for (std::size_t shard : shards) {
    ASSERT_LT(shard, kShards);
    if (shard == internal::kSharedShard) {
      ++shared;
    } else {
      EXPECT_TRUE(leased.insert(shard).second) << "shard " << shard;
    }
  }
  EXPECT_GE(shared, kThreads - static_cast<int>(internal::kSharedShard));

  std::size_t later = kShards;
  std::thread([&later] { later = ShardIndex(); }).join();
  EXPECT_NE(later, internal::kSharedShard);
}

TEST(CounterTest, AddAndSameNameSameCounter) {
  MetricsRegistry registry;
  registry.counter("a").Add(5);
  registry.counter("a").Add(7);
  EXPECT_EQ(registry.counter("a").Value(), 12u);
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.level");
  g.Set(10);
  EXPECT_DOUBLE_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_DOUBLE_EQ(g.Value(), 7);
}

TEST(RegistryTest, DisabledRegistryIsNoOp) {
  MetricsRegistry registry;
  registry.set_enabled(false);
  registry.counter("c").Increment();
  registry.gauge("g").Set(5);
  registry.histogram("h").Record(100);
  EXPECT_EQ(registry.counter("c").Value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("g").Value(), 0);
  EXPECT_EQ(registry.histogram("h").Count(), 0u);
  registry.set_enabled(true);
  registry.counter("c").Increment();
  EXPECT_EQ(registry.counter("c").Value(), 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  c.Add(9);
  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(&registry.counter("c"), &c);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("test.lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<std::uint64_t>(t * 1000 + i % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.Count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.Snapshot().count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(HistogramTest, BucketOf) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
}

TEST(HistogramTest, QuantilesOnConstantDistribution) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h");
  for (int i = 0; i < 1000; ++i) hist.Record(100);
  const HistogramSnapshot s = hist.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 100);
  // Log buckets: the estimate lands inside [64, 128) and is clamped by
  // the exact max.
  EXPECT_GE(s.p50, 64);
  EXPECT_LE(s.p50, 100);
  EXPECT_LE(s.p99, 100);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h");
  for (std::uint64_t v = 1; v <= 1024; ++v) hist.Record(v);
  const HistogramSnapshot s = hist.Snapshot();
  EXPECT_EQ(s.count, 1024u);
  EXPECT_EQ(s.max, 1024u);
  // True p50 = 512; log-bucket estimate must land within a factor of 2.
  EXPECT_GE(s.p50, 256);
  EXPECT_LE(s.p50, 1024);
  // True p99 ≈ 1014; estimate within the top bucket.
  EXPECT_GE(s.p99, 512);
  EXPECT_LE(s.p99, 1024);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p99, s.p90);
  EXPECT_NEAR(s.mean, 512.5, 0.001);
}

TEST(HistogramTest, MaxIsExact) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h");
  hist.Record(3);
  hist.Record(77777);
  hist.Record(12);
  EXPECT_EQ(hist.Snapshot().max, 77777u);
}

// -------------------------------------------------------------------- trace

TEST(TraceTest, HexRoundTrip) {
  for (std::uint64_t id : {std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
                           ~std::uint64_t{0}}) {
    auto back = HexToId(IdToHex(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(HexToId("xyz").has_value());
  EXPECT_FALSE(HexToId("").has_value());
  EXPECT_FALSE(HexToId("0123456789abcdef0").has_value());  // too long
}

TEST(TraceTest, NewRootsAreUniqueAndValid) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    TraceContext ctx = TraceContext::NewRoot();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.parent_span_id, 0u);
    seen.insert(ctx.trace_id);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceTest, ChildKeepsTraceParentsSpan) {
  TraceContext root = TraceContext::NewRoot();
  TraceContext child = root.NewChild();
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(TraceTest, ContextRoundTripsThroughUlmAscii) {
  TraceContext ctx = TraceContext::NewRoot().NewChild();
  ulm::FlatRecord rec(12345, "h1", "prog", "Usage", "EVT");
  Inject(ctx, rec);
  EXPECT_EQ(Extract(rec.View()), ctx);

  auto parsed = ulm::FlatRecord::FromAscii(rec.View().ToAscii());
  ASSERT_TRUE(parsed.ok());
  auto extracted = Extract(parsed->View());
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(*extracted, ctx);
}

TEST(TraceTest, ExtractAbsentIsNullopt) {
  ulm::Record rec(1, "h", "p", "Usage", "EVT");
  EXPECT_FALSE(Extract(rec).has_value());
  EXPECT_FALSE(HasTrace(rec));
}

TEST(TraceTest, EnsureTraceMintsOnceThenSticks) {
  ulm::FlatRecord rec(1, "h", "p", "Usage", "EVT");
  TraceContext first = EnsureTrace(rec);
  EXPECT_TRUE(first.valid());
  TraceContext second = EnsureTrace(rec);
  EXPECT_EQ(first, second);
}

TEST(TraceTest, HopsComeBackInStampOrder) {
  ulm::FlatRecord rec(1, "h", "p", "Usage", "EVT");
  EnsureTrace(rec);
  StampHop(rec, "sensor", 100);
  StampHop(rec, "manager", 150);
  StampHop(rec, "gateway", 220);

  auto parsed = ulm::FlatRecord::FromAscii(rec.View().ToAscii());
  ASSERT_TRUE(parsed.ok());
  auto hops = Hops(parsed->ToRecord());
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].name, "SENSOR");
  EXPECT_EQ(hops[0].ts, 100);
  EXPECT_EQ(hops[1].name, "MANAGER");
  EXPECT_EQ(hops[1].ts, 150);
  EXPECT_EQ(hops[2].name, "GATEWAY");
  EXPECT_EQ(hops[2].ts, 220);
}

TEST(TraceTest, SpanRecordsLatency) {
  MetricsRegistry registry;
  Histogram& lat = registry.histogram("span.lat");
  {
    Span span("archiver", TraceContext::NewRoot(), &lat);
    EXPECT_TRUE(span.context().valid());
  }
  EXPECT_EQ(lat.Count(), 1u);
}

// ----------------------------------------------------------------- exporter

TEST(ExporterTest, TextDumpContainsEveryRegisteredMetric) {
  MetricsRegistry registry;
  registry.counter("gw.events").Add(42);
  registry.gauge("gw.subs").Set(3);
  registry.histogram("gw.lat").Record(7);

  SimClock clock(1000);
  TelemetryExporter exporter(registry, clock);
  const std::string text = exporter.RenderText();
  EXPECT_NE(text.find("counter gw.events 42"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge gw.subs 3"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram gw.lat count=1"), std::string::npos) << text;
  EXPECT_NE(text.find("max=7"), std::string::npos) << text;
}

TEST(ExporterTest, ServesDocumentThroughHttpSimServer) {
  MetricsRegistry registry;
  registry.counter("served.metric").Add(5);
  SimClock clock;
  TelemetryExporter exporter(registry, clock);
  rpc::HttpSimServer http;
  ServeMetrics(exporter, http);

  auto doc = http.Get("/metrics");
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->find("served.metric 5"), std::string::npos);

  // Tick refreshes the document with new values.
  registry.counter("served.metric").Add(1);
  exporter.Tick();
  doc = http.Get("/metrics");
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->find("served.metric 6"), std::string::npos);
}

TEST(ExporterTest, EmitsUlmSnapshotAtInterval) {
  MetricsRegistry registry;
  registry.counter("c1").Add(2);
  registry.histogram("h1").Record(10);

  SimClock clock(0);
  TelemetryExporter::Options options;
  options.instance = "host-a";
  options.emit_interval = kMinute;
  TelemetryExporter exporter(registry, clock, options);

  std::vector<ulm::Record> emitted;
  exporter.SetEventSink(
      [&emitted](const ulm::Record& rec) { emitted.push_back(rec); });

  exporter.Tick();  // first tick emits immediately
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].event_name(), "TELEMETRY.COUNTER");
  EXPECT_EQ(*emitted[0].GetField("METRIC"), "c1");
  EXPECT_EQ(*emitted[0].GetInt("VAL"), 2);
  EXPECT_EQ(emitted[1].event_name(), "TELEMETRY.HISTOGRAM");
  EXPECT_EQ(*emitted[1].GetInt("COUNT"), 1);
  EXPECT_EQ(emitted[0].host(), "host-a");

  exporter.Tick();  // interval not elapsed: nothing new
  EXPECT_EQ(emitted.size(), 2u);

  clock.Advance(kMinute);
  exporter.Tick();
  EXPECT_EQ(emitted.size(), 4u);
}

// ------------------------------------------------- pipeline trace (end-to-end)

constexpr char kVmstatConfig[] = R"(
[sensor]
name = vmstat
kind = vmstat
interval_ms = 1000
mode = always
)";

TEST(PipelineTraceTest, EventCarriesAtLeastThreeHopsIntoArchive) {
  SimClock clock(0);
  sysmon::SimHost machine("h1.lbl.gov", clock);
  gateway::EventGateway gw("gw.h1", clock);

  manager::SensorManager::Options options;
  options.clock = &clock;
  options.host = &machine;
  options.gateway = &gw;
  manager::SensorManager manager(std::move(options));

  archive::EventArchive archive("trace-archive");
  consumers::ArchiverAgent archiver("trace-archive", archive, "inproc:a",
                                    &clock);
  ASSERT_TRUE(archiver.SubscribeTo(gw).ok());

  auto config = Config::ParseString(kVmstatConfig);
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(manager.ApplyConfig(*config).ok());
  for (int s = 0; s < 5; ++s) {
    manager.Tick();
    clock.Advance(kSecond);
  }

  auto records = test::ToRecords(archive.QueryRange(0, clock.Now() + kSecond));
  ASSERT_FALSE(records.empty());

  std::size_t traced = 0;
  for (const auto& rec : records) {
    auto ctx = Extract(rec);
    if (!ctx) continue;
    ++traced;
    EXPECT_TRUE(ctx->valid());
    auto hops = Hops(rec);
    ASSERT_GE(hops.size(), 3u) << test::Ascii(rec);
    EXPECT_EQ(hops[0].name, "SENSOR");
    EXPECT_EQ(hops[1].name, "MANAGER");
    EXPECT_EQ(hops[2].name, "GATEWAY");
    // With the sim clock, manager/gateway hops happen in the same tick;
    // timestamps must be monotone non-decreasing along the path.
    for (std::size_t i = 1; i < hops.size(); ++i) {
      EXPECT_GE(hops[i].ts, hops[i - 1].ts);
    }
  }
  EXPECT_EQ(traced, records.size());  // every archived event is traced

  // Distinct events carry distinct trace ids.
  std::set<std::string> trace_ids;
  for (const auto& rec : records) trace_ids.insert(*rec.GetField("TRACE.ID"));
  EXPECT_EQ(trace_ids.size(), records.size());

  // The default registry picked up the instrumented hot paths.
  auto& m = Metrics();
  EXPECT_GT(m.counter("gateway.events_in").Value(), 0u);
  EXPECT_GT(m.counter("manager.events_forwarded").Value(), 0u);
  EXPECT_GT(m.counter("archiver.events_received").Value(), 0u);
  EXPECT_GT(m.counter("archive.ingested").Value(), 0u);
}

TEST(PipelineTraceTest, TracingCanBeDisabled) {
  SimClock clock(0);
  sysmon::SimHost machine("h2.lbl.gov", clock);
  gateway::EventGateway gw("gw.h2", clock);

  manager::SensorManager::Options options;
  options.clock = &clock;
  options.host = &machine;
  options.gateway = &gw;
  options.trace_events = false;
  manager::SensorManager manager(std::move(options));

  std::vector<ulm::Record> seen;
  auto keep_seen = [&seen](const ulm::EncodedRecord& enc) {
    seen.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw.SubscribeEncoded("c", {}, keep_seen).ok());

  auto config = Config::ParseString(kVmstatConfig);
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(manager.ApplyConfig(*config).ok());
  manager.Tick();
  ASSERT_FALSE(seen.empty());
  for (const auto& rec : seen) EXPECT_FALSE(HasTrace(rec));
}

}  // namespace
}  // namespace jamm::telemetry
