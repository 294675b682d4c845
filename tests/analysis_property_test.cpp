// Property tests for the archive analysis engine (ISSUE 8): every
// analysis primitive — lifeline, loadline, point, aggregate — must be
// byte-identical to a brute-force filter+sort over the raw record stream,
// across seeded random archives, segment-seal boundaries, compressed vs
// uncompressed segments, Save/Load round trips, and the rpc client path.
// The brute-force references here are deliberately naive (flat vector,
// std::stable_sort, per-group sorted-value statistics) so they share no
// code with the engine's per-segment partial scans.
//
// Also the home of the ISSUE-8 concurrency satellite (label `analysis`,
// swept under TSan by scripts/check_tsan.sh): analysis queries racing
// 4-thread flat-frame ingest and compression must never see
// a torn lifeline or a duplicated hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "transport/inproc.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"
#include "record_helpers.hpp"

namespace jamm::archive {
namespace {

using ulm::Record;

// ------------------------------------------------------------ corpus

/// Trace-shaped random records: hop chains sharing a TRACE.ID with
/// per-hop SPAN.IDs, plus traceless noise events; VAL is numeric on most
/// records, non-numeric, NaN or absent on some (exercising the has-value
/// split). Timestamps land in [0, 2s).
std::vector<Record> CorpusRecords(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Record> out;
  out.reserve(n);
  static const char* kHopEvents[] = {"REQ.SEND", "REQ.RECV", "REP.SEND",
                                     "REP.RECV"};
  std::uint64_t next_trace = 1;
  while (out.size() < n) {
    const TimePoint base = rng.Uniform(0, 1900) * kMillisecond;
    if (rng.Chance(0.7)) {
      const std::string trace = "t" + std::to_string(next_trace++);
      const int hops = static_cast<int>(rng.Uniform(2, 4));
      for (int h = 0; h < hops && out.size() < n; ++h) {
        Record rec(base + h * rng.Uniform(0, 20) * kMillisecond,
                   "host" + std::to_string(rng.Uniform(0, 3)), "prog",
                   rng.Chance(0.15) ? "Error" : "Usage", kHopEvents[h % 4]);
        rec.SetField("TRACE.ID", trace);
        rec.SetField("SPAN.ID", trace + "#" + std::to_string(h));
        if (rng.Chance(0.9)) {
          rec.SetField("VAL", rng.Uniform(-50000, 50000) * 0.001);
        } else {
          rec.SetField("VAL", rng.Chance(0.5) ? "n/a" : "nan");
        }
        out.push_back(std::move(rec));
      }
    } else {
      Record rec(base, "host" + std::to_string(rng.Uniform(0, 3)), "prog",
                 "Usage", "NOISE." + std::to_string(rng.Uniform(0, 2)));
      if (rng.Chance(0.5)) {
        rec.SetField("VAL", static_cast<std::int64_t>(rng.Uniform(0, 999)));
      }
      out.push_back(std::move(rec));
    }
  }
  return out;
}

EventArchive MakeArchive(const std::vector<Record>& records,
                         SegmentConfig config, bool compress) {
  EventArchive ar("prop", 1, config);
  for (const auto& rec : records) test::Ingest(ar, rec);
  if (compress) {
    ar.SealActive();
    EXPECT_GT(ar.CompressSealed(), 0u);
  }
  return ar;
}

// ------------------------------------------- brute-force references
//
// Shared statistics math (ascending-sorted sums, nearest-rank
// percentiles) is re-derived here from its definition, not shared with
// the engine. A value is a field that parses as a double other than NaN.

double RefNearestRank(const std::vector<double>& sorted, int pct) {
  if (sorted.empty()) return 0;
  if (pct <= 0) return sorted.front();
  std::size_t rank = (static_cast<std::size_t>(pct) * sorted.size() + 99) / 100;
  rank = std::max<std::size_t>(1, std::min(rank, sorted.size()));
  return sorted[rank - 1];
}

double RefSum(const std::vector<double>& sorted) {
  double sum = 0;
  for (double v : sorted) sum += v;
  return sum;
}

bool RefMatches(const Record& rec, const AnalysisSpec& spec, TimePoint t0,
                TimePoint t1) {
  if (rec.timestamp() < t0 || rec.timestamp() >= t1) return false;
  if (!spec.host.empty() && rec.host() != spec.host) return false;
  return spec.event_glob.empty() ||
         GlobMatch(spec.event_glob, rec.event_name());
}

std::vector<Record> RefFilter(const std::vector<Record>& raw,
                              const AnalysisSpec& spec, TimePoint t0,
                              TimePoint t1) {
  std::vector<Record> out;
  for (const auto& rec : raw) {
    if (RefMatches(rec, spec, t0, t1)) out.push_back(rec);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) {
                     return a.timestamp() < b.timestamp();
                   });
  return out;
}

std::string RefObjectId(const Record& rec, const AnalysisSpec& spec) {
  std::string id;
  bool any = false;
  for (std::size_t i = 0; i < spec.id_fields.size(); ++i) {
    if (i > 0) id += '|';
    const auto value = rec.GetField(spec.id_fields[i]);
    if (value && !value->empty()) {
      id += *value;
      any = true;
    }
  }
  return any ? id : std::string();
}

std::vector<TraceLifeline> RefLifelines(const std::vector<Record>& raw,
                                        const AnalysisSpec& spec, TimePoint t0,
                                        TimePoint t1) {
  std::map<std::string, TraceLifeline> traces;
  for (const auto& rec : RefFilter(raw, spec, t0, t1)) {
    const std::string id = RefObjectId(rec, spec);
    if (id.empty()) continue;
    TraceLifeline& trace = traces[id];
    if (trace.object_id.empty()) trace.object_id = id;
    LifelineHop hop;
    hop.ts = rec.timestamp();
    hop.event = rec.event_name();
    hop.host = rec.host();
    hop.prog = rec.prog();
    hop.span = rec.GetField("SPAN.ID").value_or("");
    trace.hops.push_back(std::move(hop));
  }
  std::vector<TraceLifeline> out;
  for (auto& [id, trace] : traces) {
    (void)id;
    out.push_back(std::move(trace));
  }
  return out;
}

std::vector<LoadBucket> RefLoadline(const std::vector<Record>& raw,
                                    const AnalysisSpec& spec, TimePoint t0,
                                    TimePoint t1) {
  const Duration width = std::max<Duration>(1, spec.bucket);
  std::map<std::int64_t, std::pair<std::uint64_t, std::vector<double>>> grid;
  for (const auto& rec : RefFilter(raw, spec, t0, t1)) {
    auto& [count, values] = grid[(rec.timestamp() - t0) / width];
    ++count;
    if (!spec.value_field.empty()) {
      auto value = rec.GetDouble(spec.value_field);
      if (value.ok() && !std::isnan(*value)) values.push_back(*value);
    }
  }
  std::vector<LoadBucket> out;
  for (auto& [idx, cell] : grid) {
    auto& [count, values] = cell;
    LoadBucket bucket;
    bucket.bucket_start = t0 + idx * width;
    bucket.count = count;
    if (!values.empty()) {
      std::sort(values.begin(), values.end());
      bucket.value_count = values.size();
      bucket.min = values.front();
      bucket.max = values.back();
      bucket.mean = RefSum(values) / static_cast<double>(values.size());
      bucket.pct = RefNearestRank(values, spec.percentile);
    }
    out.push_back(bucket);
  }
  return out;
}

std::vector<PointSample> RefPoints(const std::vector<Record>& raw,
                                   const AnalysisSpec& spec, TimePoint t0,
                                   TimePoint t1) {
  std::vector<PointSample> out;
  for (const auto& rec : RefFilter(raw, spec, t0, t1)) {
    PointSample point;
    point.ts = rec.timestamp();
    if (!spec.value_field.empty()) {
      auto value = rec.GetDouble(spec.value_field);
      if (value.ok() && !std::isnan(*value)) {
        point.has_value = true;
        point.value = *value;
      }
    }
    out.push_back(point);
  }
  return out;
}

std::vector<AggRow> RefAggregate(const std::vector<Record>& raw,
                                 const AnalysisSpec& spec, TimePoint t0,
                                 TimePoint t1) {
  std::map<std::string, std::pair<std::uint64_t, std::vector<double>>> groups;
  for (const auto& rec : RefFilter(raw, spec, t0, t1)) {
    auto& [count, values] = groups[rec.event_name()];
    ++count;
    if (!spec.value_field.empty()) {
      auto value = rec.GetDouble(spec.value_field);
      if (value.ok() && !std::isnan(*value)) values.push_back(*value);
    }
  }
  std::vector<AggRow> out;
  for (auto& [event, cell] : groups) {
    auto& [count, values] = cell;
    AggRow row;
    row.event = event;
    row.count = count;
    if (!values.empty()) {
      std::sort(values.begin(), values.end());
      row.value_count = values.size();
      row.min = values.front();
      row.max = values.back();
      row.sum = RefSum(values);
      row.mean = row.sum / static_cast<double>(values.size());
      row.p50 = RefNearestRank(values, 50);
      row.p95 = RefNearestRank(values, 95);
    }
    out.push_back(std::move(row));
  }
  return out;
}

// -------------------------------------------------- exact comparators

void ExpectLifelinesEq(const std::vector<TraceLifeline>& got,
                       const std::vector<TraceLifeline>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("lifeline " + std::to_string(i));
    EXPECT_EQ(got[i].object_id, want[i].object_id);
    ASSERT_EQ(got[i].hops.size(), want[i].hops.size());
    for (std::size_t h = 0; h < got[i].hops.size(); ++h) {
      SCOPED_TRACE("hop " + std::to_string(h));
      EXPECT_EQ(got[i].hops[h].ts, want[i].hops[h].ts);
      EXPECT_EQ(got[i].hops[h].event, want[i].hops[h].event);
      EXPECT_EQ(got[i].hops[h].host, want[i].hops[h].host);
      EXPECT_EQ(got[i].hops[h].prog, want[i].hops[h].prog);
      EXPECT_EQ(got[i].hops[h].span, want[i].hops[h].span);
    }
  }
}

void ExpectBucketsEq(const std::vector<LoadBucket>& got,
                     const std::vector<LoadBucket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("bucket " + std::to_string(i));
    EXPECT_EQ(got[i].bucket_start, want[i].bucket_start);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].value_count, want[i].value_count);
    // Exact: the engine defines statistics over ascending-sorted values,
    // so parity is bit-for-bit, not approximate.
    EXPECT_EQ(got[i].mean, want[i].mean);
    EXPECT_EQ(got[i].min, want[i].min);
    EXPECT_EQ(got[i].max, want[i].max);
    EXPECT_EQ(got[i].pct, want[i].pct);
  }
}

void ExpectPointsEq(const std::vector<PointSample>& got,
                    const std::vector<PointSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(got[i].ts, want[i].ts);
    EXPECT_EQ(got[i].has_value, want[i].has_value);
    EXPECT_EQ(got[i].value, want[i].value);
  }
}

void ExpectAggEq(const std::vector<AggRow>& got,
                 const std::vector<AggRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(got[i].event, want[i].event);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].value_count, want[i].value_count);
    EXPECT_EQ(got[i].sum, want[i].sum);
    EXPECT_EQ(got[i].mean, want[i].mean);
    EXPECT_EQ(got[i].min, want[i].min);
    EXPECT_EQ(got[i].max, want[i].max);
    EXPECT_EQ(got[i].p50, want[i].p50);
    EXPECT_EQ(got[i].p95, want[i].p95);
  }
}

std::vector<AnalysisSpec> SweepSpecs() {
  std::vector<AnalysisSpec> specs;
  specs.push_back({});  // everything, default ids
  AnalysisSpec req;
  req.event_glob = "REQ.*";
  req.value_field = "VAL";
  specs.push_back(req);
  AnalysisSpec host;
  host.host = "host1";
  host.value_field = "VAL";
  host.bucket = 37 * kMillisecond;
  host.percentile = 50;
  specs.push_back(host);
  AnalysisSpec noise;
  noise.event_glob = "NOISE.*";
  noise.value_field = "VAL";
  noise.bucket = 100 * kMillisecond;
  specs.push_back(noise);
  AnalysisSpec missing;
  missing.value_field = "NO.SUCH.FIELD";
  missing.host = "host2";
  specs.push_back(missing);
  return specs;
}

const std::vector<std::pair<TimePoint, TimePoint>> kRanges = {
    {0, 2 * kSecond},                        // everything
    {200 * kMillisecond, 700 * kMillisecond},  // partial
    {5 * kSecond, 6 * kSecond},              // empty
};

// --------------------------------------------------------- parity wall

TEST(AnalysisPropertyTest, ParityWithBruteForceAcrossShapes) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const auto raw = CorpusRecords(seed, 900);
    for (std::size_t max_records : {32u, 257u}) {
      for (bool compress : {false, true}) {
        SegmentConfig config;
        config.stripes = 1;  // single-stripe: arrival order == raw order
        config.max_records = max_records;
        EventArchive ar = MakeArchive(raw, config, compress);
        const AnalysisEngine engine(ar);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " max_records=" + std::to_string(max_records) +
                     " compress=" + std::to_string(compress));
        for (const auto& spec : SweepSpecs()) {
          SCOPED_TRACE("spec='" + EncodeAnalysisSpec(spec) + "'");
          for (const auto& [t0, t1] : kRanges) {
            SCOPED_TRACE("range=[" + std::to_string(t0) + "," +
                         std::to_string(t1) + ")");
            ExpectLifelinesEq(engine.Lifelines(spec, t0, t1),
                              RefLifelines(raw, spec, t0, t1));
            ExpectBucketsEq(engine.Loadline(spec, t0, t1),
                            RefLoadline(raw, spec, t0, t1));
            ExpectPointsEq(engine.Points(spec, t0, t1),
                           RefPoints(raw, spec, t0, t1));
            ExpectAggEq(engine.Aggregate(spec, t0, t1),
                        RefAggregate(raw, spec, t0, t1));
          }
        }
      }
    }
  }
}

TEST(AnalysisPropertyTest, NanValuesDoNotDependOnArrivalOrder) {
  // "VAL=nan" parses as a double, but NaN has no place in the sorted order
  // the statistics are defined over. The engine treats it as no value, so
  // the same records give the same rows in any arrival order.
  std::vector<Record> records;
  for (int i = 0; i < 21; ++i) {
    Record rec(kSecond, "host0", "prog", "Usage", "LOAD");
    if (i % 4 == 1) {
      rec.SetField("VAL", "nan");
    } else {
      rec.SetField("VAL", static_cast<std::int64_t>(i));
    }
    records.push_back(std::move(rec));
  }
  std::vector<Record> reversed(records.rbegin(), records.rend());
  SegmentConfig config;
  config.stripes = 1;
  EventArchive forward_ar = MakeArchive(records, config, false);
  EventArchive reverse_ar = MakeArchive(reversed, config, false);
  const AnalysisEngine forward(forward_ar);
  const AnalysisEngine reverse(reverse_ar);
  AnalysisSpec spec;
  spec.value_field = "VAL";
  const TimePoint t0 = 0, t1 = 2 * kSecond;

  const auto rows = forward.Aggregate(spec, t0, t1);
  ExpectAggEq(rows, reverse.Aggregate(spec, t0, t1));
  ExpectBucketsEq(forward.Loadline(spec, t0, t1),
                  reverse.Loadline(spec, t0, t1));
  ExpectAggEq(rows, RefAggregate(records, spec, t0, t1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, 21u);
  EXPECT_EQ(rows[0].value_count, 16u);
  EXPECT_EQ(rows[0].max, 20.0);
  for (const auto& point : forward.Points(spec, t0, t1)) {
    EXPECT_TRUE(!point.has_value || !std::isnan(point.value));
  }
}

TEST(AnalysisPropertyTest, CompressedSaveLoadRoundTripParity) {
  const auto raw = CorpusRecords(44, 600);
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 64;
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    EventArchive ar = MakeArchive(raw, config, compress);
    const std::string bytes = ar.SaveToBytes();

    auto loaded = EventArchive::LoadFromBytes("prop", bytes);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->load_stats().ok());
    // Byte-stable in BOTH resting states: compressed blocks persist their
    // blob verbatim and the loader retains it verbatim.
    EXPECT_EQ(loaded->SaveToBytes(), bytes);

    const AnalysisEngine before(ar);
    const AnalysisEngine after(*loaded);
    AnalysisSpec spec;
    spec.value_field = "VAL";
    for (const auto& [t0, t1] : kRanges) {
      ExpectLifelinesEq(after.Lifelines(spec, t0, t1),
                        before.Lifelines(spec, t0, t1));
      ExpectBucketsEq(after.Loadline(spec, t0, t1),
                      before.Loadline(spec, t0, t1));
      ExpectPointsEq(after.Points(spec, t0, t1), before.Points(spec, t0, t1));
      ExpectAggEq(after.Aggregate(spec, t0, t1),
                  before.Aggregate(spec, t0, t1));
    }
  }
}

TEST(AnalysisPropertyTest, CompressionInvisibleToRecordQueries) {
  const auto raw = CorpusRecords(55, 500);
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 50;
  EventArchive plain = MakeArchive(raw, config, false);
  EventArchive packed = MakeArchive(raw, config, true);
  // Compression must save real space...
  EXPECT_LT(packed.StorageBytes(), plain.StorageBytes());
  // ...while every record query answers identically.
  const auto a = plain.QueryRange(0, 2 * kSecond);
  const auto b = packed.QueryRange(0, 2 * kSecond);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.View(i).ToAscii(), b.View(i).ToAscii());
  }
  const auto ae = plain.QueryEvents("REQ.*", 0, kSecond);
  const auto be = packed.QueryEvents("REQ.*", 0, kSecond);
  ASSERT_EQ(ae.size(), be.size());
  for (std::size_t i = 0; i < ae.size(); ++i) {
    EXPECT_EQ(ae.View(i).ToAscii(), be.View(i).ToAscii());
  }
}

// ---------------------------------------------------- value ordering

TEST(AnalysisPropertyTest, SortValuesMatchesStdSort) {
  // Sizes on both sides of the comparison-sort cutoff, and values that
  // share high key bytes (the digits the radix sort skips).
  Rng rng(77);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             1.0,
                             -1.0};
  for (std::size_t n : {0, 1, 2, 31, 32, 200, 255, 256, 257, 300, 1000,
                        4096}) {
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("n " + std::to_string(n) + " shape " +
                   std::to_string(shape));
      std::vector<double> values;
      for (std::size_t i = 0; i < n; ++i) {
        switch (shape) {
          case 0:  // wide range, both signs, specials mixed in
            values.push_back(rng.Chance(0.1)
                                 ? specials[rng.Uniform(0, 10)]
                                 : rng.UniformReal(-1e6, 1e6));
            break;
          case 1:  // few distinct values: many duplicates
            values.push_back(static_cast<double>(rng.Uniform(-3, 3)));
            break;
          case 2:  // one narrow positive band: shared high bytes
            values.push_back(1000.0 + rng.Uniform(0, 255) * 0x1p-40);
            break;
          default:  // already descending
            values.push_back(-static_cast<double>(i) * 0.5);
            break;
        }
      }
      std::vector<double> want = values;
      std::sort(want.begin(), want.end());
      std::vector<double> got = values;
      SortValues(got);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (n < kSortValuesRadixMin) {
          // std::sort itself: the same bits, zeros' signs included.
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "at " << i;
          continue;
        }
        // Equal in value everywhere; -0 and +0 compare equal, so
        // std::sort may order them either way, while the radix sort
        // always puts -0 first.
        ASSERT_EQ(got[i], want[i]) << "at " << i;
        if (i > 0 && got[i] == 0 && got[i - 1] == 0) {
          EXPECT_FALSE(!std::signbit(got[i - 1]) && std::signbit(got[i]))
              << "+0 before -0 at " << i;
        }
      }
      // The same multiset of bit patterns.
      auto bits = [](const std::vector<double>& xs) {
        std::vector<std::uint64_t> out;
        for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(bits(got), bits(values));
    }
  }
}

// ----------------------------------------------------- stats accounting

TEST(AnalysisStatsTest, BytesScannedAndPruningAccounting) {
  const auto raw = CorpusRecords(66, 600);
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 64;
  for (bool compress : {false, true}) {
    SCOPED_TRACE("compress=" + std::to_string(compress));
    EventArchive ar = MakeArchive(raw, config, compress);
    const AnalysisEngine engine(ar);

    // An unfiltered full-range scan touches every segment: bytes_scanned
    // is exactly the archive's total resting footprint.
    QueryStats all;
    engine.Points({}, 0, 2 * kSecond, &all);
    EXPECT_EQ(all.segments_scanned, all.segments_total);
    EXPECT_EQ(all.segments_pruned, 0u);
    EXPECT_EQ(all.bytes_scanned, ar.StorageBytes());

    // A narrow window prunes; the identity total = scanned + pruned holds
    // and pruned segments contribute zero bytes.
    QueryStats narrow;
    engine.Points({}, 0, 100 * kMillisecond, &narrow);
    EXPECT_EQ(narrow.segments_total,
              narrow.segments_scanned + narrow.segments_pruned);
    EXPECT_GT(narrow.segments_pruned, 0u);
    EXPECT_LT(narrow.bytes_scanned, all.bytes_scanned);
  }

  // Compressed resting bytes are what a compressed scan is charged: the
  // same full scan must be cheaper on the compressed twin.
  EventArchive plain = MakeArchive(raw, config, false);
  EventArchive packed = MakeArchive(raw, config, true);
  QueryStats plain_stats, packed_stats;
  AnalysisEngine(plain).Points({}, 0, 2 * kSecond, &plain_stats);
  AnalysisEngine(packed).Points({}, 0, 2 * kSecond, &packed_stats);
  EXPECT_LT(packed_stats.bytes_scanned, plain_stats.bytes_scanned);
}

// ------------------------------------------------------------ rpc path

class AnalysisRpcTest : public ::testing::Test {
 protected:
  AnalysisRpcTest() : clock_(0), registry_(clock_) {
    SegmentConfig config;
    config.stripes = 1;
    config.max_records = 64;
    config.compress_sealed = true;
    ar_ = std::make_unique<EventArchive>("main", 1, config);
    for (const auto& rec : CorpusRecords(77, 400)) test::Ingest(*ar_, rec);
    EXPECT_TRUE(RegisterArchiveService(registry_, *ar_).ok());
    auto listener = net_.Listen("arch-rpc");
    EXPECT_TRUE(listener.ok());
    server_ = std::make_unique<rpc::RpcServer>(registry_, std::move(*listener));
    pump_ = std::thread([this] {
      while (!stop_.load()) {
        server_->PollOnce();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  ~AnalysisRpcTest() override {
    stop_.store(true);
    pump_.join();
  }

  ArchiveClient MakeClient() {
    return ArchiveClient([this] { return net_.Dial("arch-rpc"); },
                         ArchiveObjectName("main"));
  }

  SimClock clock_;
  rpc::Registry registry_;
  transport::InProcNetwork net_;
  std::unique_ptr<EventArchive> ar_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::atomic<bool> stop_{false};
  std::thread pump_;
};

TEST_F(AnalysisRpcTest, PaginatedAnalysisEqualsLocalEngine) {
  const AnalysisEngine engine(*ar_);
  ArchiveClient client = MakeClient();
  client.set_page_records(3);  // force many pages
  AnalysisSpec spec;
  spec.value_field = "VAL";

  QueryStats local;
  const auto want_lifelines = engine.Lifelines(spec, 0, 2 * kSecond, &local);
  auto lifelines = client.QueryLifelines(spec, 0, 2 * kSecond);
  ASSERT_TRUE(lifelines.ok()) << lifelines.status().ToString();
  ExpectLifelinesEq(*lifelines, want_lifelines);
  EXPECT_GT(client.pages_fetched(), 1u);
  // The server's QueryStats crossed the wire intact.
  EXPECT_EQ(client.last_query_stats().segments_total, local.segments_total);
  EXPECT_EQ(client.last_query_stats().segments_scanned,
            local.segments_scanned);
  EXPECT_EQ(client.last_query_stats().segments_pruned, local.segments_pruned);
  EXPECT_EQ(client.last_query_stats().records_returned,
            local.records_returned);
  EXPECT_EQ(client.last_query_stats().bytes_scanned, local.bytes_scanned);

  auto buckets = client.QueryLoadline(spec, 0, 2 * kSecond);
  ASSERT_TRUE(buckets.ok()) << buckets.status().ToString();
  ExpectBucketsEq(*buckets, engine.Loadline(spec, 0, 2 * kSecond));

  auto points = client.QueryPoints(spec, 0, 2 * kSecond);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ExpectPointsEq(*points, engine.Points(spec, 0, 2 * kSecond));

  auto rows = client.QueryAggregate(spec, 0, 2 * kSecond);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAggEq(*rows, engine.Aggregate(spec, 0, 2 * kSecond));
}

TEST_F(AnalysisRpcTest, EmptyResultPaginationTerminates) {
  ArchiveClient client = MakeClient();
  client.set_page_records(1);
  auto lifelines = client.QueryLifelines({}, 10 * kSecond, 11 * kSecond);
  ASSERT_TRUE(lifelines.ok()) << lifelines.status().ToString();
  EXPECT_TRUE(lifelines->empty());
  EXPECT_EQ(client.pages_fetched(), 1u);  // one page, then done — no spin
}

TEST_F(AnalysisRpcTest, MalformedSpecIsAnError) {
  ArchiveClient client = MakeClient();
  auto reply = rpc::RpcClient([this] { return net_.Dial("arch-rpc"); })
                   .Call(ArchiveObjectName("main"), kQueryMethod,
                         {"lifeline", "0", "100", "wat=?", "0", ""});
  EXPECT_FALSE(reply.ok());
}

/// A broken server whose analysis cursor never advances: the client must
/// error out (bounded calls), not spin.
class StuckAnalysisService final : public rpc::RemoteObject {
 public:
  Result<std::string> Invoke(const std::string& method,
                             const std::vector<std::string>& args) override {
    (void)method;
    (void)args;
    ++calls;
    return rpc::EncodeStrings({"0", "5", rpc::EncodeStrings({}),
                               EncodeQueryStats(QueryStats{})});
  }
  std::atomic<int> calls{0};
};

TEST(AnalysisCursorGuardTest, NonAdvancingAnalysisCursorErrors) {
  SimClock clock(0);
  rpc::Registry registry(clock);
  auto stuck = std::make_shared<StuckAnalysisService>();
  ASSERT_TRUE(registry.RegisterResident("archive.stuck", stuck).ok());
  transport::InProcNetwork net;
  auto listener = net.Listen("stuck-rpc");
  ASSERT_TRUE(listener.ok());
  rpc::RpcServer server(registry, std::move(*listener));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      server.PollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ArchiveClient client([&net] { return net.Dial("stuck-rpc"); },
                       "archive.stuck");
  auto result = client.QueryPoints({}, 0, kSecond);
  stop.store(true);
  pump.join();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("did not advance"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(stuck->calls.load(), 1);  // errored immediately, no spin
}

// ----------------------------------------------------------- concurrency

// 4 ingest threads splice whole traces as flat frames while analysis
// queries and compression race them. Frames are atomic under the stripe
// lock, so at EVERY instant each visible lifeline must be whole: exactly
// kHops hops, all spans distinct — no torn lifelines, no duplicated hops.
// Aggregates must agree: every hop event's count equal.
TEST(AnalysisConcurrencyTest, QueriesRacingIngestAndCompression) {
  constexpr int kThreads = 4;
  constexpr int kTraces = 150;
  constexpr std::size_t kHops = 4;

  SegmentConfig config;
  config.stripes = 4;
  config.max_records = 64;
  EventArchive ar("conc", 1, config);
  const AnalysisEngine engine(ar);

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&ar, w] {
      for (int i = 0; i < kTraces; ++i) {
        ulm::FlatBatch frame;
        const std::string trace =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        for (std::size_t h = 0; h < kHops; ++h) {
          ulm::FlatRecord rec(
              static_cast<TimePoint>(i) * kMillisecond +
                  static_cast<TimePoint>(h),
              "conc-host", "prog", "Error", "HOP_" + std::to_string(h));
          rec.SetField("TRACE.ID", trace);
          rec.SetField("SPAN.ID", trace + "#" + std::to_string(h));
          ASSERT_TRUE(frame.Append(rec.View()));
        }
        ar.IngestBatch(std::move(frame));
      }
    });
  }
  std::thread churner([&] {
    while (!done.load()) {
      ar.CompressSealed();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  AnalysisSpec spec;  // default: join on TRACE.ID
  for (int round = 0; round < 40; ++round) {
    const auto lifelines = engine.Lifelines(spec, 0, kHour);
    for (const auto& trace : lifelines) {
      ASSERT_EQ(trace.hops.size(), kHops)
          << "torn or duplicated lifeline " << trace.object_id;
      std::set<std::string> spans;
      for (const auto& hop : trace.hops) spans.insert(hop.span);
      ASSERT_EQ(spans.size(), kHops)
          << "duplicated hop in " << trace.object_id;
    }
    const auto rows = engine.Aggregate({}, 0, kHour);
    std::set<std::uint64_t> counts;
    for (const auto& row : rows) counts.insert(row.count);
    ASSERT_LE(counts.size(), 1u) << "hop events diverged mid-trace";
  }

  for (auto& t : writers) t.join();
  done.store(true);
  churner.join();

  // Final exactness: every trace from every writer, whole.
  const auto final_lifelines = engine.Lifelines(spec, 0, kHour);
  EXPECT_EQ(final_lifelines.size(),
            static_cast<std::size_t>(kThreads) * kTraces);
  for (const auto& trace : final_lifelines) {
    EXPECT_EQ(trace.hops.size(), kHops);
  }
  EXPECT_EQ(ar.size(), static_cast<std::size_t>(kThreads) * kTraces * kHops);
}

// ------------------------------------------------------------ spec codec

TEST(AnalysisSpecTest, CodecRoundTripsAndRejectsGarbage) {
  AnalysisSpec spec;
  spec.event_glob = "REQ.*";
  spec.host = "host1";
  spec.value_field = "VAL";
  spec.id_fields = {"TRACE.ID", "SPAN.PARENT"};
  spec.bucket = 250 * kMillisecond;
  spec.percentile = 50;
  auto parsed = ParseAnalysisSpec(EncodeAnalysisSpec(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->event_glob, spec.event_glob);
  EXPECT_EQ(parsed->host, spec.host);
  EXPECT_EQ(parsed->value_field, spec.value_field);
  EXPECT_EQ(parsed->id_fields, spec.id_fields);
  EXPECT_EQ(parsed->bucket, spec.bucket);
  EXPECT_EQ(parsed->percentile, spec.percentile);

  EXPECT_EQ(EncodeAnalysisSpec(AnalysisSpec{}), "");
  ASSERT_TRUE(ParseAnalysisSpec("").ok());

  EXPECT_FALSE(ParseAnalysisSpec("nonsense").ok());
  EXPECT_FALSE(ParseAnalysisSpec("wat=1").ok());
  EXPECT_FALSE(ParseAnalysisSpec("bucket=0").ok());
  EXPECT_FALSE(ParseAnalysisSpec("bucket=-5").ok());
  EXPECT_FALSE(ParseAnalysisSpec("pct=101").ok());
  EXPECT_FALSE(ParseAnalysisSpec("id=").ok());
  EXPECT_FALSE(ParseAnalysisSpec("=x").ok());
}

}  // namespace
}  // namespace jamm::archive
