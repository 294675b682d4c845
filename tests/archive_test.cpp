// Tests for the segmented event archive (ISSUE 5): sealing bounds, query
// pruning against the per-segment indexes, checksummed persistence with corrupt-segment skipping, concurrent
// ingest/query exactness (the `archive` label runs under TSan), the
// ArchiveQueryService/ArchiveClient rpc pair, and the seeded end-to-end
// gateway → archiver → archive → client round trip with a mid-ingest
// gateway crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "archive/segment.hpp"
#include "consumers/archiver.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "telemetry/metrics.hpp"
#include "transport/inproc.hpp"
#include "record_helpers.hpp"

namespace jamm::archive {
namespace {

using directory::Dn;

ulm::Record Event(TimePoint ts, const std::string& name, double value,
                  const std::string& host = "h1",
                  const std::string& lvl = "Usage") {
  ulm::Record rec(ts, host, "sensor", lvl, name);
  rec.SetField("VAL", value);
  return rec;
}

std::vector<std::string> Ascii(const std::vector<ulm::Record>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const auto& rec : records) out.push_back(test::Ascii(rec));
  return out;
}

std::vector<std::string> Ascii(const ulm::FlatBatch& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    out.push_back(records.View(i).ToAscii());
  }
  return out;
}

std::set<double> Vals(const std::vector<ulm::Record>& records) {
  std::set<double> out;
  for (const auto& rec : records) {
    auto val = rec.GetDouble("VAL");
    EXPECT_TRUE(val.ok());
    out.insert(*val);
  }
  // A set the same size as its source has no duplicates.
  EXPECT_EQ(out.size(), records.size());
  return out;
}

// ------------------------------------------------------------------ sealing

TEST(SegmentedArchiveTest, SealsAtRecordBound) {
  SegmentConfig config;
  config.max_records = 10;
  config.stripes = 1;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 25; ++i) {
    test::Ingest(ar, Event(i * kSecond, "E", i));
  }
  EXPECT_EQ(ar.size(), 25u);
  EXPECT_EQ(ar.seal_count(), 2u);    // two full segments sealed
  EXPECT_EQ(ar.segment_count(), 3u); // plus the active remainder
  EXPECT_EQ(ar.SealActive(), 1u);
  EXPECT_EQ(ar.seal_count(), 3u);
}

TEST(SegmentedArchiveTest, SealsAtSpanBound) {
  SegmentConfig config;
  config.max_records = 1000000;
  config.max_span = 10 * kSecond;
  config.stripes = 1;
  EventArchive ar("a", 1, config);
  for (int i = 0; i <= 30; ++i) {
    test::Ingest(ar, Event(i * kSecond, "E", i));
  }
  // Spans of 10 s force a seal roughly every 11 records.
  EXPECT_GE(ar.seal_count(), 2u);
  EXPECT_EQ(ar.size(), 31u);
  auto [min_ts, max_ts] = ar.TimeSpan();
  EXPECT_EQ(min_ts, 0);
  EXPECT_EQ(max_ts, 30 * kSecond);
}

// ------------------------------------------------------------------ pruning

class PrunedQueryTest : public ::testing::Test {
 protected:
  PrunedQueryTest() : ar_("a", 1, OneStripe()) {
    // Three sealed segments in disjoint hour-apart windows, each with its
    // own event name and host.
    for (int s = 0; s < 3; ++s) {
      for (int i = 0; i < 10; ++i) {
        test::Ingest(ar_, Event(s * kHour + i * kSecond,
                                "EVT_" + std::string(1, 'A' + s), s * 100 + i,
                                "host" + std::to_string(s)));
      }
      ar_.SealActive();
    }
  }

  static SegmentConfig OneStripe() {
    SegmentConfig config;
    config.stripes = 1;
    return config;
  }

  EventArchive ar_;
};

TEST_F(PrunedQueryTest, TimeRangePrunesNonCoveringSegments) {
  QueryStats stats;
  auto rows =
      test::ToRecords(ar_.QueryRange(kHour, kHour + 5 * kSecond, &stats));
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(stats.segments_total, 3u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_EQ(stats.records_returned, 5u);
}

TEST_F(PrunedQueryTest, EventGlobPrunesViaEventIndex) {
  QueryStats stats;
  auto rows = test::ToRecords(ar_.QueryEvents("EVT_B", 0, 10 * kHour, &stats));
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  // A glob that spans two segments scans exactly those two.
  auto both =
      test::ToRecords(ar_.QueryEvents("EVT_[AB]", 0, 10 * kHour, &stats));
  EXPECT_EQ(both.size(), 0u);  // '[' is not a glob metacharacter here
  auto star = test::ToRecords(ar_.QueryEvents("EVT_*", 0, 10 * kHour, &stats));
  EXPECT_EQ(star.size(), 30u);
  EXPECT_EQ(stats.segments_scanned, 3u);
}

TEST_F(PrunedQueryTest, HostPrunesViaHostIndex) {
  QueryStats stats;
  auto rows = test::ToRecords(ar_.QueryHost("host2", 0, 10 * kHour, &stats));
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_TRUE(ar_.QueryHost("nowhere", 0, 10 * kHour, &stats).empty());
  EXPECT_EQ(stats.segments_scanned, 0u);
}

TEST_F(PrunedQueryTest, RangeIsHalfOpenAndTimeOrdered) {
  auto rows = test::ToRecords(ar_.QueryRange(5 * kSecond, kHour + kSecond));
  // [5 s, 1 h) takes records 5..9 of segment 0, plus second 0 of segment 1.
  ASSERT_EQ(rows.size(), 6u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].timestamp(), rows[i].timestamp());
  }
  EXPECT_EQ(rows.back().timestamp(), kHour);
}

TEST_F(PrunedQueryTest, CountersSplitScannedRecordsIntoDecodedAndSkipped) {
  auto& decoded = telemetry::Metrics().counter("archive.query.records_decoded");
  auto& skipped = telemetry::Metrics().counter("archive.query.records_skipped");
  const std::uint64_t decoded0 = decoded.Value(), skipped0 = skipped.Value();
  // One covering segment of 10 records, 5 in the window.
  EXPECT_EQ(ar_.QueryRange(kHour, kHour + 5 * kSecond).size(), 5u);
  EXPECT_EQ(decoded.Value() - decoded0, 5u);
  EXPECT_EQ(skipped.Value() - skipped0, 5u);
  // Compressed, the skipped records are never copied out of the blob.
  ASSERT_EQ(ar_.CompressSealed(), 3u);
  EXPECT_EQ(ar_.QueryHost("host1", kHour + 2 * kSecond, 10 * kHour).size(),
            8u);
  EXPECT_EQ(decoded.Value() - decoded0, 13u);
  EXPECT_EQ(skipped.Value() - skipped0, 7u);

  // A compressed segment of four 64-record blocks whose host alternates
  // by block: the records of the blocks a host query skips whole count as
  // skipped, and decoded + skipped is still the scanned segment's size.
  for (int i = 0; i < 256; ++i) {
    test::Ingest(ar_, Event(3 * kHour + i * kSecond, "EVT_D", i,
                            (i / 64) % 2 ? "odd" : "even"));
  }
  ar_.SealActive();
  ASSERT_EQ(ar_.CompressSealed(), 1u);
  QueryStats stats;
  const std::uint64_t decoded1 = decoded.Value(), skipped1 = skipped.Value();
  EXPECT_EQ(ar_.QueryHost("odd", 3 * kHour, 4 * kHour, &stats).size(), 128u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(decoded.Value() - decoded1, 128u);
  EXPECT_EQ(skipped.Value() - skipped1, 128u);
  // Narrowed to ten records of one block, every other block is skipped
  // by its time range or host mask.
  EXPECT_EQ(ar_.QueryHost("odd", 3 * kHour + 70 * kSecond,
                          3 * kHour + 80 * kSecond, &stats)
                .size(),
            10u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(decoded.Value() - decoded1, 138u);
  EXPECT_EQ(skipped.Value() - skipped1, 374u);
}

// -------------------------------------------------------------- persistence

TEST(SegmentedPersistenceTest, SaveLoadSaveIsByteIdentical) {
  SegmentConfig config;
  config.stripes = 2;
  config.max_records = 16;
  EventArchive ar("a", 3, config);
  for (int i = 0; i < 100; ++i) {
    test::Ingest(ar, Event(i * kSecond, "E" + std::to_string(i % 3), i,
                           "host" + std::to_string(i % 2)));
  }
  const std::string bytes = ar.SaveToBytes();
  auto loaded = EventArchive::LoadFromBytes("a", bytes, 3, config);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->load_stats().ok());
  EXPECT_EQ(loaded->size(), ar.size());
  EXPECT_EQ(loaded->SaveToBytes(), bytes);
  EXPECT_EQ(Ascii(loaded->QueryRange(0, kHour)), Ascii(ar.QueryRange(0, kHour)));
}

TEST(SegmentedPersistenceTest, ReservedHeaderWordIsIgnoredOnLoad) {
  // Images written before the segment header's second word was reserved
  // may carry any value there (it once held a compaction tier). The header
  // CRC covers the word, so such an image is built here by writing a
  // nonzero value and re-stamping each header CRC by hand.
  auto get32 = [](const std::string& s, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[at + i]))
           << (8 * i);
    }
    return v;
  };
  auto put32 = [](std::string& s, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      s[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  auto payload_len = [](const std::string& s, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(s[at + 40 + i]))
           << (8 * i);
    }
    return v;
  };
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "SEG2" : "SEG1");
    SegmentConfig config;
    config.stripes = 1;
    config.max_records = 10;
    EventArchive ar("a", 1, config);
    for (int i = 0; i < 30; ++i) test::Ingest(ar, Event(i * kSecond, "E", i));
    ar.SealActive();
    if (compress) {
      ASSERT_EQ(ar.CompressSealed(), 3u);
    }
    const std::string current = ar.SaveToBytes();

    std::string old_image = current;
    std::size_t blocks = 0;
    for (std::size_t at = kFileHeaderBytes; at < old_image.size();
         at += kSegmentHeaderBytes + payload_len(old_image, at)) {
      ASSERT_EQ(get32(old_image, at + 4), 0u);
      put32(old_image, at + 4, 2 + static_cast<std::uint32_t>(blocks));
      put32(old_image, at + 52,
            Crc32(std::string_view(old_image).substr(at, 52)));
      ++blocks;
    }
    ASSERT_EQ(blocks, 3u);

    auto loaded = EventArchive::LoadFromBytes("a", old_image, 1, config);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->load_stats().ok());
    EXPECT_EQ(loaded->load_stats().segments_loaded, 3u);
    EXPECT_EQ(loaded->size(), 30u);
    EXPECT_EQ(Ascii(loaded->QueryRange(0, kHour)),
              Ascii(ar.QueryRange(0, kHour)));
    // A second save writes the reserved word as 0 again.
    EXPECT_EQ(loaded->SaveToBytes(), current);
  }
}

TEST(SegmentedPersistenceTest, CorruptSegmentIsSkippedNotFatal) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 10;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 30; ++i) {
    test::Ingest(ar, Event(i * kSecond, "E", i));
  }
  std::string bytes = ar.SaveToBytes();
  // The file ends inside the last segment's payload; flipping its final
  // byte corrupts that one payload and nothing else.
  bytes.back() ^= 0x01;
  auto loaded = EventArchive::LoadFromBytes("a", bytes, 1, config);
  ASSERT_TRUE(loaded.ok()) << "one bad segment must not fail the load";
  EXPECT_EQ(loaded->load_stats().segments_loaded, 2u);
  EXPECT_EQ(loaded->load_stats().segments_skipped, 1u);
  EXPECT_FALSE(loaded->load_stats().ok());
  // The two intact segments answer queries normally.
  EXPECT_EQ(loaded->QueryRange(0, kHour).size(), 20u);
}

TEST(SegmentedPersistenceTest, TruncationIsReportedNeverSilent) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 10;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 30; ++i) {
    test::Ingest(ar, Event(i * kSecond, "E", i));
  }
  const std::string bytes = ar.SaveToBytes();

  // Cut mid-payload: the last block's header promises bytes that are gone.
  auto cut = EventArchive::LoadFromBytes("a", bytes.substr(0, bytes.size() - 5));
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->load_stats().truncated);
  EXPECT_FALSE(cut->load_stats().ok());

  // A file that is only a header still reports its missing segments.
  auto header_only = EventArchive::LoadFromBytes("a", bytes.substr(0, 16));
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only->load_stats().truncated);

  // No readable header at all is an outright error.
  EXPECT_FALSE(EventArchive::LoadFromBytes("a", "garbage").ok());
  EXPECT_FALSE(EventArchive::LoadFromBytes("a", "").ok());
}

// -------------------------------------------------------------- concurrency

TEST(ArchiveConcurrencyTest, ParallelIngestLosesNothing) {
  SegmentConfig config;
  config.max_records = 256;
  config.stripes = 8;
  EventArchive ar("a", 1, config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ar, t] {
      for (int i = 0; i < kPerThread; ++i) {
        test::Ingest(ar, Event((t * kPerThread + i) * kMillisecond, "E",
                               t * 1000000 + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ar.ingested(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ar.size(), static_cast<std::size_t>(kThreads * kPerThread));
  auto rows = test::ToRecords(ar.QueryRange(0, kHour));
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(Vals(rows).size(), rows.size());  // every VAL exactly once
}

TEST(ArchiveConcurrencyTest, QueriesDuringIngestNeverDuplicate) {
  SegmentConfig config;
  config.max_records = 64;  // frequent seals while queries run
  config.stripes = 4;
  EventArchive ar("a", 1, config);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 3000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto rows = test::ToRecords(ar.QueryRange(0, kHour));
      // A query racing seals may see a prefix of the data, but never a
      // duplicate and never out of order.
      std::set<double> seen;
      TimePoint prev = 0;
      for (const auto& rec : rows) {
        auto val = rec.GetDouble("VAL");
        ASSERT_TRUE(val.ok());
        ASSERT_TRUE(seen.insert(*val).second) << "duplicate VAL " << *val;
        ASSERT_GE(rec.timestamp(), prev);
        prev = rec.timestamp();
      }
      queries.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ar, t] {
      for (int i = 0; i < kPerThread; ++i) {
        test::Ingest(ar, Event((t * kPerThread + i) * kMillisecond, "E",
                               t * 1000000 + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(ar.QueryRange(0, kHour).size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(ArchiveConcurrencyTest, QueryRacingSealsSeesEveryEarlierRecordOnce) {
  // Writers seal (and compress) every 2 records. A query's walk visits a
  // writer's active segment, then the many other stripes' locks (and any
  // busy writer's) while that writer seals the segment — so the walk keeps
  // meeting a segment it saw active in phase one in the sealed snapshot of
  // phase two. Writer w lands ts = kWriters * i + w.
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 3000;
  constexpr int kEnd = kWriters * kPerWriter;
  SegmentConfig config;
  config.max_records = 2;
  config.stripes = 256;
  config.compress_sealed = true;
  AnalysisSpec per_record;  // count-only loadline, one bucket per timestamp
  per_record.bucket = 1;
  auto check_stats = [](const QueryStats& stats) {
    EXPECT_EQ(stats.segments_total,
              stats.segments_scanned + stats.segments_pruned);
  };
  for (int round = 0; round < 4; ++round) {
    EventArchive ar("a", 1, config);
    const AnalysisEngine engine(ar);
    std::atomic<int> landed[kWriters] = {};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          const int ts = kWriters * i + w;
          test::Ingest(ar, Event(ts, "E", ts));
          landed[w].store(i + 1);
        }
      });
    }
    // Most queries cover only the newest records, so they are cheap and
    // many; the last one, after every record landed, covers them all. A
    // record may be visible just before `landed` counts it, never later.
    int queries = 0;
    auto run_queries = [&] {
      for (bool last = false; !last; ++queries) {
        int before[kWriters], after[kWriters];
        last = true;
        for (int w = 0; w < kWriters; ++w) {
          before[w] = landed[w].load();
          last = last && before[w] == kPerWriter;
        }
        const int lo =
            last ? 0
                 : std::max(0, kWriters * *std::min_element(before,
                                                            before + kWriters) -
                                   32);
        QueryStats stats;
        const auto rows = test::ToRecords(ar.QueryRange(lo, kEnd, &stats));
        check_stats(stats);
        const auto buckets = engine.Loadline(per_record, lo, kEnd, &stats);
        check_stats(stats);
        for (int w = 0; w < kWriters; ++w) after[w] = landed[w].load();
        // Past `hi` no record can have landed yet.
        const int hi = std::min(
            kEnd, kWriters * (*std::max_element(after, after + kWriters) + 1));
        std::vector<int> seen(kEnd, 0), counted(kEnd, 0);
        for (const auto& rec : rows) {
          ASSERT_LT(rec.timestamp(), hi);
          ++seen[static_cast<std::size_t>(rec.timestamp())];
        }
        for (const auto& bucket : buckets) {
          ASSERT_LT(bucket.bucket_start, hi);
          counted[static_cast<std::size_t>(bucket.bucket_start)] +=
              static_cast<int>(bucket.count);
        }
        for (int ts = lo; ts < hi; ++ts) {
          const int i = ts / kWriters, w = ts % kWriters;
          const int want_min = i < before[w] ? 1 : 0;
          const int want_max = i <= after[w] ? 1 : 0;
          ASSERT_LE(seen[ts], want_max) << "range: ts " << ts << " twice";
          ASSERT_GE(seen[ts], want_min) << "range missed ts " << ts;
          ASSERT_LE(counted[ts], want_max) << "loadline: ts " << ts << " twice";
          ASSERT_GE(counted[ts], want_min) << "loadline missed ts " << ts;
        }
      }
    };
    run_queries();  // returns early on a failed ASSERT; the joins still run
    for (auto& writer : writers) writer.join();
    EXPECT_GT(queries, 0);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------------- rpc query service

TEST(ArchiveQueryServiceTest, RejectsMalformedCalls) {
  EventArchive ar("a");
  ArchiveQueryService service(ar);
  EXPECT_FALSE(service.Invoke("no.such.method", {}).ok());
  EXPECT_FALSE(service.Invoke(kQueryMethod, {"range"}).ok());
  EXPECT_FALSE(service.Invoke(kQueryMethod, {"range", "x", "0", ""}).ok());
  EXPECT_FALSE(
      service.Invoke(kQueryMethod, {"sideways", "0", "10", ""}).ok());
  EXPECT_FALSE(
      service.Invoke(kQueryMethod, {"range", "0", "10", "", "-3"}).ok());
  EXPECT_TRUE(service.Invoke(kQueryMethod, {"range", "0", "10", ""}).ok());
}

// ----------------------------------------------- pinned analysis replies

/// A fixed record set whose analysis results carry the doubles a number
/// formatter gets wrong first: -0, ±inf, the smallest subnormal, 0.1,
/// 1e21 and a 17-digit mean, beside records with no value. Sealed and
/// compressed, so the replies come from the compressed scan.
EventArchive PinnedAnalysisArchive() {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 3;
  EventArchive ar("pinned", 1, config);
  struct Row {
    TimePoint ts;
    const char* host;
    const char* event;
    const char* val;    // nullptr: no VAL field
    const char* trace;  // nullptr: no TRACE.ID / SPAN.ID
  };
  const Row rows[] = {
      {1000, "h1", "CPU", "-0", "a"},
      {2000, "h2", "CPU", "0.1", "a"},
      {3000, "h1", "MEM", "inf", "b"},
      {4000, "h2", "NET", "-inf", nullptr},
      {5000, "h1", "CPU", "4.9406564584124654e-324", "a"},
      {6000, "h2", "MEM", "1e21", "b"},
      {7000, "h1", "DISK", nullptr, "c"},
      {8000, "h2", "CPU", "n/a", nullptr},
  };
  for (const Row& row : rows) {
    ulm::FlatRecord rec(row.ts, row.host, "prog", "Usage", row.event);
    if (row.val) rec.SetField("VAL", std::string_view(row.val));
    if (row.trace) {
      rec.SetField("TRACE.ID", std::string_view(row.trace));
      rec.SetField("SPAN.ID",
                   std::string(row.trace) + "#" + std::to_string(row.ts));
    }
    ar.Ingest(rec.View());
  }
  ar.SealActive();
  EXPECT_GT(ar.CompressSealed(), 0u);
  return ar;
}

struct PinnedReply {
  const char* kind;
  const char* predicate;
  std::string_view reply;  // the one-page reply at the default page size
};

using namespace std::string_view_literals;

const PinnedReply kPinnedReplies[] = {
    {"lifeline", "",
     "\004\000\0013\252\001\003Q\004\001a\031\005\0041000\003CPU\002"
     "h1\004prog\006a#1000\031\005\0042000\003CPU\002h2\004prog\006a"
     "#2000\031\005\0045000\003CPU\002h1\004prog\006a#50007\003\001b"
     "\031\005\0043000\003MEM\002h1\004prog\006b#3000\031\005\004600"
     "0\003MEM\002h2\004prog\006b#6000\036\002\001c\032\005\0047000"
     "\004DISK\002h1\004prog\006c#7000\015\005\0013\0013\0010\0016"
     "\003327"sv},
    {"loadline", "field=VAL bucket=2000",
     "\004\000\0015\272\001\005\022\007\0010\0011\0011\0010\002-0"
     "\002-0\002-0*\007\0042000\0012\0012\003inf\0230.10000000000000"
     "001\003inf\003infD\007\0044000\0012\0012\004-inf\004-inf\0274."
     "9406564584124654e-324\0274.9406564584124654e-324\042\007\00460"
     "00\0012\0011\0051e+21\0051e+21\0051e+21\0051e+21\022\007\00480"
     "00\0011\0010\0010\0010\0010\0010\015\005\0013\0013\0010\0018"
     "\003327"sv},
    {"point", "field=VAL",
     "\004\000\0018\213\001\010\013\003\0041000\0011\002-0\034\003"
     "\0042000\0011\0230.10000000000000001\014\003\0043000\0011\003i"
     "nf\015\003\0044000\0011\004-inf \003\0045000\0011\0274.9406564"
     "584124654e-324\016\003\0046000\0011\0051e+21\012\003\0047000"
     "\0010\0010\012\003\0048000\0010\0010\015\005\0013\0013\0010"
     "\0018\003327"sv},
    {"agg", "field=VAL",
     "\004\000\0014\334\001\004u\011\003CPU\0014\0013\0230.100000000"
     "00000001\0240.033333333333333333\002-0\0230.10000000000000001"
     "\0274.9406564584124654e-324\0230.10000000000000001\026\011\004"
     "DISK\0011\0010\0010\0010\0010\0010\0010\0010%\011\003MEM\0012"
     "\0012\003inf\003inf\0051e+21\003inf\0051e+21\003inf'\011\003NE"
     "T\0011\0011\004-inf\004-inf\004-inf\004-inf\004-inf\004-inf"
     "\015\005\0013\0013\0010\0018\003327"sv},
};

TEST(ArchiveQueryServiceTest, AnalysisReplyBytesArePinned) {
  EventArchive ar = PinnedAnalysisArchive();
  ArchiveQueryService service(ar);
  auto invoke = [&](const PinnedReply& pin, std::size_t offset,
                    const std::string& limit) {
    auto reply = service.Invoke(kQueryMethod,
                                {pin.kind, "0", "10000", pin.predicate,
                                 std::to_string(offset), limit});
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? *reply : std::string();
  };
  for (const PinnedReply& pin : kPinnedReplies) {
    SCOPED_TRACE(pin.kind);
    const std::string whole = invoke(pin, 0, "");
    EXPECT_EQ(whole, std::string(pin.reply));
    auto parts = rpc::DecodeStrings(whole);
    ASSERT_TRUE(parts.ok());
    ASSERT_EQ(parts->size(), 4u);
    EXPECT_EQ((*parts)[0], "");  // one page holds everything
    auto elements = rpc::DecodeStrings((*parts)[2]);
    ASSERT_TRUE(elements.ok());
    const std::string total = std::to_string(elements->size());
    EXPECT_EQ((*parts)[1], total);

    // Smaller pages are exact slices of the one-page reply: the same
    // element bytes, total and stats, and `next` at the slice's end.
    for (std::size_t page : {1, 3}) {
      SCOPED_TRACE("page " + std::to_string(page));
      std::vector<std::string> tiled;
      std::size_t offset = 0;
      while (true) {
        const std::size_t end = std::min(elements->size(), offset + page);
        const std::string next =
            end < elements->size() ? std::to_string(end) : std::string();
        const std::vector<std::string> slice(elements->begin() + offset,
                                             elements->begin() + end);
        EXPECT_EQ(invoke(pin, offset, std::to_string(page)),
                  rpc::EncodeStrings({next, total, rpc::EncodeStrings(slice),
                                      (*parts)[3]}));
        tiled.insert(tiled.end(), slice.begin(), slice.end());
        if (next.empty()) break;
        offset = end;
      }
      EXPECT_EQ(tiled, *elements);
    }
  }
}

// Zeros of both signs in one group. SMALL (6 values) is ordered by
// std::sort itself, so its bytes are what std::sort's order gives; LARGE
// (300 values, past kSortValuesRadixMin) is ordered by the radix sort,
// which puts every -0 before every +0: its minimum prints "-0" and its
// median, the 150th of 100 "-0", 100 "0" and 100 "1", prints "0". Sorted
// by std::sort alone, this input gives the same bytes.
TEST(ArchiveQueryServiceTest, AggregateOverZerosOfBothSignsIsPinned) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 64;
  EventArchive ar("zeros", 1, config);
  TimePoint ts = 0;
  for (const char* val : {"0", "-0", "2", "-0", "0", "-1"}) {
    ulm::FlatRecord rec(++ts, "h1", "prog", "Usage", "SMALL");
    rec.SetField("VAL", std::string_view(val));
    ar.Ingest(rec.View());
  }
  for (int i = 0; i < 300; ++i) {
    ulm::FlatRecord rec(++ts, "h1", "prog", "Usage", "LARGE");
    rec.SetField("VAL", std::string_view(i % 3 == 0   ? "0"
                                         : i % 3 == 1 ? "-0"
                                                      : "1"));
    ar.Ingest(rec.View());
  }
  ar.SealActive();
  EXPECT_GT(ar.CompressSealed(), 0u);
  ArchiveQueryService service(ar);
  auto reply =
      service.Invoke(kQueryMethod, {"agg", "0", "10000", "field=VAL"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto parts = rpc::DecodeStrings(*reply);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  EXPECT_EQ((*parts)[2],
            std::string_view(
                "\x2" "0\t\x5LARGE\x3" "300\x3" "300\x3" "100\x13"
                "0.33333333333333331\x2-0\x1" "1\x1" "0\x1" "1+\t\x5SMALL"
                "\x1" "6\x1" "6\x1" "1\x13" "0.16666666666666666\x2-1\x1"
                "2\x2-0\x1" "2"));
}

class ArchiveRpcTest : public ::testing::Test {
 protected:
  ArchiveRpcTest() : clock_(0), registry_(clock_), ar_("main", 1, Config()) {
    for (int i = 0; i < 100; ++i) {
      test::Ingest(ar_, Event(i * kSecond, "EVT_" + std::to_string(i % 4), i,
                              "host" + std::to_string(i % 2)));
    }
    EXPECT_TRUE(RegisterArchiveService(registry_, ar_).ok());
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

  ~ArchiveRpcTest() override {
    stop_.store(true);
    pump_.join();
  }

  static SegmentConfig Config() {
    SegmentConfig config;
    config.stripes = 1;
    config.max_records = 16;
    return config;
  }

  ArchiveClient MakeClient() {
    return ArchiveClient([this] { return net_.Dial("arch-rpc"); },
                         ArchiveObjectName("main"));
  }

  SimClock clock_;
  rpc::Registry registry_;
  transport::InProcNetwork net_;
  EventArchive ar_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::atomic<bool> stop_{false};
  std::thread pump_;
};

TEST_F(ArchiveRpcTest, PaginatedQueryEqualsLocalQuery) {
  ArchiveClient client = MakeClient();
  client.set_page_records(7);  // forces many pages for 100 records
  auto remote = client.QueryRange(0, kHour);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(Ascii(*remote), Ascii(ar_.QueryRange(0, kHour)));
  EXPECT_GT(client.pages_fetched(), 10u);

  auto events = client.QueryEvents("EVT_2", 0, kHour);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(Ascii(*events), Ascii(ar_.QueryEvents("EVT_2", 0, kHour)));

  auto host = client.QueryHost("host1", 10 * kSecond, 50 * kSecond);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(Ascii(*host),
            Ascii(ar_.QueryHost("host1", 10 * kSecond, 50 * kSecond)));
}

TEST_F(ArchiveRpcTest, StatsReflectTheArchive) {
  ArchiveClient client = MakeClient();
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->name, "main");
  EXPECT_EQ(stats->size, ar_.size());
  EXPECT_EQ(stats->segments, ar_.segment_count());
  EXPECT_EQ(stats->ingested, ar_.ingested());
  EXPECT_EQ(stats->span_min, 0);
  EXPECT_EQ(stats->span_max, 99 * kSecond);
  EXPECT_NE(stats->contents.find("EVT_0(25)"), std::string::npos);
}

// ------------------------------------------------- end-to-end (integration)

// Seeded round trip: gateway feeds a batched ArchiverAgent; the gateway
// crashes mid-ingest and is revived; afterwards an ArchiveClient reads the
// archive back over rpc. Exact accounting: every delivered event is
// archived exactly once, crash or not.
TEST(ArchiveIntegrationTest, GatewayCrashToClientQueryExactAccounting) {
  SimClock clock;
  transport::InProcNetwork net;

  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  SegmentConfig config;
  config.max_records = 8;  // several seals across the run
  config.stripes = 2;
  EventArchive archive("e2e", 1, config);
  consumers::ArchiverAgent archiver("e2e", archive, "inproc:arch-rpc");
  ASSERT_TRUE(archiver
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {}, /*batch_records=*/4)
                  .ok());
  service->PollOnce();

  std::set<double> delivered;
  auto publish = [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      test::Publish(*gw, Event(i * kSecond, "E" + std::to_string(i % 3), i));
      delivered.insert(i);
    }
  };
  publish(0, 40);
  EXPECT_EQ(archiver.PumpRemote(), 40u);

  // Crash the gateway mid-ingest...
  service.reset();
  gw.reset();
  EXPECT_EQ(archiver.PumpRemote(), 0u);

  // ...revive it; the embedded client re-dials and replays its batched
  // subscription, and the feed resumes.
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_EQ(archiver.PumpRemote(), 0u);  // reconnect + resubscribe
  service->PollOnce();
  publish(40, 75);
  // 35 records = 8 full frames + 3 pending; age-flush the partial batch.
  std::size_t pumped = archiver.PumpRemote();
  clock.Advance(kSecond);
  service->PollOnce();
  pumped += archiver.PumpRemote();
  EXPECT_EQ(pumped, 35u);
  EXPECT_EQ(archiver.remote_dropped(), 0u);
  EXPECT_GT(archive.seal_count(), 0u);

  // Serve the archive over rpc and read it back with the client.
  rpc::Registry registry(clock);
  ASSERT_TRUE(RegisterArchiveService(registry, archive).ok());
  auto rpc_listener = net.Listen("arch-rpc");
  ASSERT_TRUE(rpc_listener.ok());
  rpc::RpcServer rpc_server(registry, std::move(*rpc_listener));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      rpc_server.PollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ArchiveClient client([&net] { return net.Dial("arch-rpc"); },
                       ArchiveObjectName("e2e"));
  client.set_page_records(9);
  auto remote = client.QueryRange(0, kHour);
  stop.store(true);
  pump.join();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // Exactly the delivered set: nothing lost across the crash, nothing
  // archived twice after the resubscribe.
  EXPECT_EQ(Vals(*remote), delivered);
}

// One PumpRemote archives its whole drain, however large: nothing is
// skipped and nothing is counted as dropped.
TEST(ArchiveIntegrationTest, OneDrainArchivesEveryRecord) {
  SimClock clock;
  transport::InProcNetwork net;
  gateway::EventGateway gw("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(gw, std::move(*listener));
  EventArchive archive("whole", 1, SegmentConfig{});
  consumers::ArchiverAgent archiver("whole", archive);
  ASSERT_TRUE(archiver
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {}, /*batch_records=*/16)
                  .ok());
  service.PollOnce();  // accept + subscribe

  constexpr int kSent = 1500;
  for (int i = 0; i < kSent; ++i) {
    test::Publish(gw, Event(i * kSecond, "E", i));
  }
  clock.Advance(kSecond);
  service.PollOnce();  // age-flush the partial batch

  EXPECT_EQ(archiver.PumpRemote(), static_cast<std::size_t>(kSent));
  EXPECT_EQ(archiver.remote_dropped(), 0u);
  EXPECT_EQ(archive.size(), static_cast<std::size_t>(kSent));
  EXPECT_EQ(archive.TimeSpan(),
            std::make_pair(TimePoint{0}, TimePoint{(kSent - 1) * kSecond}));
  EXPECT_EQ(archiver.PumpRemote(), 0u);
}

// ----------------------------------------------- directory entry refresh

TEST(ArchiverDirectoryTest, EntryRefreshesOnSeal) {
  SimClock clock(0);
  gateway::EventGateway gw("gw", clock);
  Dn suffix = *Dn::Parse("ou=sensors, o=jamm");
  auto server = std::make_shared<directory::DirectoryServer>(suffix, "ldap://p");
  directory::DirectoryPool pool;
  pool.AddServer(server);

  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 5;
  EventArchive archive("arch", 1, config);
  consumers::ArchiverAgent agent("arch", archive, "inproc:arch");
  ASSERT_TRUE(agent.SubscribeTo(gw).ok());
  ASSERT_TRUE(agent.PublishTo(pool, suffix).ok());

  const Dn dn = directory::schema::ArchiveDn(suffix, "arch");
  auto entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "0");
  EXPECT_FALSE(entry->Has(directory::schema::kAttrSpanMin));

  // Four events: no seal yet, so the published entry stays as-is.
  for (int i = 0; i < 4; ++i) test::Publish(gw, Event(i * kSecond, "E", i));
  entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "0");

  // The fifth event seals the segment, and the agent refreshes the entry
  // with the new segment count, contents, and time span on its own.
  test::Publish(gw, Event(4 * kSecond, "E", 4));
  ASSERT_EQ(archive.seal_count(), 1u);
  entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "1");
  EXPECT_TRUE(entry->Has(directory::schema::kAttrSpanMin));
  EXPECT_TRUE(entry->Has(directory::schema::kAttrSpanMax));
  EXPECT_NE(entry->Get(directory::schema::kAttrContents).find("E(5)"),
            std::string::npos);
}

}  // namespace
}  // namespace jamm::archive
