// Tests for the offline nlv views (archive/nlv.hpp): record logs analyzed
// through the archive's AnalysisEngine (lifeline grouping, composite ids,
// point filtering), and the post-processing over its output — segment
// latency, rate buckets, clustering, gap correlation, and the text
// renderer.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "archive/nlv.hpp"
#include "common/rng.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"

namespace jamm::archive {
namespace {

ulm::Record MakeEvent(TimePoint ts, const std::string& event,
                      const std::string& host = "h1") {
  return ulm::Record(ts, host, "test", "Usage", event);
}

/// Synthetic client-server path per frame: request → arrive → done.
ulm::FlatBatch Batch(const std::vector<ulm::Record>& records) {
  ulm::FlatBatch batch;
  for (const auto& rec : records) EXPECT_TRUE(batch.Append(rec));
  return batch;
}

std::vector<ulm::Record> FramePipeline(int nframes, Duration step) {
  std::vector<ulm::Record> log;
  for (int f = 0; f < nframes; ++f) {
    const TimePoint base = f * step;
    auto add = [&](Duration offset, const std::string& name) {
      auto rec = MakeEvent(base + offset, name);
      rec.SetField("FRAME.ID", static_cast<std::int64_t>(f));
      log.push_back(rec);
    };
    add(0, "REQUEST");
    add(10 * kMillisecond, "ARRIVE");
    add(25 * kMillisecond, "DONE");
  }
  return log;
}

std::vector<PointSample> At(const std::vector<TimePoint>& times) {
  std::vector<PointSample> out;
  for (TimePoint ts : times) {
    PointSample p;
    p.ts = ts;
    out.push_back(p);
  }
  return out;
}

PointSample Valued(TimePoint ts, double value) {
  PointSample p;
  p.ts = ts;
  p.has_value = true;
  p.value = value;
  return p;
}

// ---------------------------------------------------------- engine views

TEST(NlvTest, LifelinesGroupById) {
  const OfflineLog log(Batch(FramePipeline(5, kSecond)));
  auto lifelines = log.Lifelines({"FRAME.ID"});
  ASSERT_EQ(lifelines.size(), 5u);
  for (const auto& line : lifelines) {
    ASSERT_EQ(line.hops.size(), 3u);
    EXPECT_EQ(line.hops[0].event, "REQUEST");
    EXPECT_EQ(line.hops[2].event, "DONE");
    EXPECT_EQ(line.hops.back().ts - line.hops.front().ts,
              25 * kMillisecond);
  }
}

TEST(NlvTest, LifelineIgnoresRecordsWithoutId) {
  auto records = FramePipeline(2, kSecond);
  records.push_back(MakeEvent(99, "NOISE"));
  const OfflineLog log(Batch(records));
  EXPECT_EQ(log.Lifelines({"FRAME.ID"}).size(), 2u);
}

TEST(NlvTest, CompositeIdFields) {
  std::vector<ulm::Record> records;
  auto rec = MakeEvent(1, "E", "hostA");
  rec.SetField("SET", "s1");
  rec.SetField("BLOCK", "7");
  records.push_back(rec);
  rec = MakeEvent(2, "E", "hostA");
  rec.SetField("SET", "s1");
  rec.SetField("BLOCK", "8");
  records.push_back(rec);
  // One id field missing still forms a lifeline; only a record missing
  // every id field joins none.
  rec = MakeEvent(3, "E", "hostA");
  rec.SetField("SET", "s2");
  records.push_back(rec);
  records.push_back(MakeEvent(4, "E", "hostA"));
  const OfflineLog log(Batch(records));
  auto lifelines = log.Lifelines({"SET", "BLOCK"});
  ASSERT_EQ(lifelines.size(), 3u);
  EXPECT_EQ(lifelines[0].object_id, "s1|7");
  EXPECT_EQ(lifelines[1].object_id, "s1|8");
  EXPECT_EQ(lifelines[2].object_id, "s2|");
}

TEST(NlvTest, PointsFilterByName) {
  std::vector<ulm::Record> records = {MakeEvent(1, "TCPD_RETRANSMITS"),
                                      MakeEvent(2, "OTHER"),
                                      MakeEvent(3, "TCPD_RETRANSMITS")};
  const OfflineLog log(Batch(records));
  auto points = log.Points("TCPD_RETRANSMITS");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].ts, 1);
  EXPECT_EQ(points[1].ts, 3);
  EXPECT_FALSE(points[0].has_value);
}

TEST(NlvTest, PointsCarryParsedValues) {
  std::vector<ulm::Record> records;
  for (int i = 0; i < 4; ++i) {
    auto rec = MakeEvent(i * kSecond, "VMSTAT_SYS_TIME");
    rec.SetField("VAL", i == 2 ? std::string("n/a") : std::to_string(i));
    records.push_back(rec);
  }
  const OfflineLog log(Batch(records));
  auto series = log.Points("VMSTAT_SYS_TIME", "VAL");
  ASSERT_EQ(series.size(), 4u);
  EXPECT_TRUE(series[3].has_value);
  EXPECT_DOUBLE_EQ(series[3].value, 3.0);
  EXPECT_FALSE(series[2].has_value);
}

// ------------------------------------------------------ post-processing

TEST(NlvTest, SegmentLatencyStats) {
  const OfflineLog log(Batch(FramePipeline(100, 100 * kMillisecond)));
  auto lifelines = log.Lifelines({"FRAME.ID"});
  auto stats = SegmentLatency(lifelines, "REQUEST", "ARRIVE");
  EXPECT_EQ(stats.count, 100u);
  EXPECT_NEAR(stats.mean_s, 0.010, 1e-9);
  EXPECT_NEAR(stats.min_s, 0.010, 1e-9);
  EXPECT_NEAR(stats.max_s, 0.010, 1e-9);
  auto e2e = SegmentLatency(lifelines, "REQUEST", "DONE");
  EXPECT_NEAR(e2e.mean_s, 0.025, 1e-9);
  auto missing = SegmentLatency(lifelines, "REQUEST", "NOPE");
  EXPECT_EQ(missing.count, 0u);
}

TEST(NlvTest, SegmentLatencyPercentilesAreNearestRank) {
  // Latencies 1..20 s: nearest-rank p50 is the 10th value, p95 the 19th
  // (an interpolating percentile would give 10.5 and 19.05).
  std::vector<TraceLifeline> lines;
  for (int i = 1; i <= 20; ++i) {
    TraceLifeline line;
    line.object_id = std::to_string(i);
    LifelineHop from, to;
    from.event = "A";
    to.event = "B";
    to.ts = i * kSecond;
    line.hops = {from, to};
    lines.push_back(line);
  }
  auto stats = SegmentLatency(lines, "A", "B");
  EXPECT_EQ(stats.count, 20u);
  EXPECT_DOUBLE_EQ(stats.p50_s, 10.0);
  EXPECT_DOUBLE_EQ(stats.p95_s, 19.0);
  EXPECT_DOUBLE_EQ(stats.mean_s, 10.5);
}

TEST(NlvTest, RatePerSecondBuckets) {
  std::vector<TimePoint> times;
  for (int i = 0; i < 12; ++i) times.push_back(i * 250 * kMillisecond);
  auto rate = RatePerSecond(At(times), 0, 3 * kSecond, kSecond);
  ASSERT_EQ(rate.size(), 3u);
  EXPECT_NEAR(rate[0].value, 4.0, 1e-9);
  EXPECT_NEAR(rate[1].value, 4.0, 1e-9);
  EXPECT_EQ(rate[0].ts, kSecond / 2);
  // Empty buckets are emitted as zero rates.
  auto sparse = RatePerSecond(At({0}), 0, 3 * kSecond, kSecond);
  ASSERT_EQ(sparse.size(), 3u);
  EXPECT_TRUE(sparse[2].has_value);
  EXPECT_EQ(sparse[2].value, 0.0);
}

TEST(NlvTest, FindClustersTwoModes) {
  // Figure 3's shape: read() sizes clustered around two distinct values.
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Normal(8192, 50));
  for (int i = 0; i < 500; ++i) values.push_back(rng.Normal(49000, 80));
  auto centers = FindClusters1D(values, 2);
  ASSERT_EQ(centers.size(), 2u);
  EXPECT_NEAR(centers[0], 8192, 200);
  EXPECT_NEAR(centers[1], 49000, 300);
  EXPECT_GT(ClusterTightness(values, centers, 500), 0.99);
}

TEST(NlvTest, FindClustersDegenerateInputs) {
  EXPECT_TRUE(FindClusters1D({}, 2).empty());
  auto one = FindClusters1D({5.0}, 3);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 5.0);
}

TEST(NlvTest, FindGapsAndCorrelation) {
  std::vector<TimePoint> frames;
  for (int i = 0; i < 10; ++i) frames.push_back(i * kSecond);
  for (int i = 0; i < 10; ++i) frames.push_back(15 * kSecond + i * kSecond);
  auto gaps = FindGaps(At(frames), 2 * kSecond);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].start, 9 * kSecond);
  EXPECT_EQ(gaps[0].end, 15 * kSecond);
  auto retransmits = At({10 * kSecond, 12 * kSecond, 40 * kSecond});
  EXPECT_EQ(CountPointsInGaps(retransmits, gaps, 0), 2u);
}

// ------------------------------------------------------------- renderer

TEST(NlvTest, RendersAllPrimitives) {
  NlvRenderer nlv(0, 10 * kSecond, 50);
  nlv.AddPointRow("TCPD_RETRANSMITS", At({1 * kSecond, 2 * kSecond}), 'X');
  std::vector<PointSample> load;
  for (int i = 0; i < 10; ++i) {
    load.push_back(Valued(i * kSecond, static_cast<double>(i)));
  }
  nlv.AddLoadlineRow("VMSTAT_SYS_TIME", load);
  const OfflineLog log(Batch(FramePipeline(3, 3 * kSecond)));
  nlv.AddLifelines({"REQUEST", "ARRIVE", "DONE"}, log.Lifelines({"FRAME.ID"}));
  const std::string out = nlv.Render();
  EXPECT_NE(out.find("TCPD_RETRANSMITS"), std::string::npos);
  EXPECT_NE(out.find("X"), std::string::npos);
  EXPECT_NE(out.find("VMSTAT_SYS_TIME"), std::string::npos);
  EXPECT_NE(out.find("REQUEST"), std::string::npos);
  // Lifeline row order is bottom-up: DONE above ARRIVE above REQUEST.
  EXPECT_LT(out.find("DONE"), out.find("REQUEST"));
  EXPECT_NE(out.find("0s"), std::string::npos);
  EXPECT_NE(out.find("10.00s"), std::string::npos);
}

TEST(NlvTest, PointsOutsideRangeIgnored) {
  NlvRenderer nlv(10 * kSecond, 20 * kSecond, 20);
  nlv.AddPointRow("P", At({0, 25 * kSecond}), 'X');
  const std::string out = nlv.Render();
  EXPECT_EQ(out.find('X'), std::string::npos);
}

TEST(NlvTest, LoadlineCellsStayOnTheRampWithNonFiniteSamples) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int kWidth = 20;
  NlvRenderer nlv(0, 10 * kSecond, kWidth);
  nlv.AddLoadlineRow(
      "L", {Valued(0, 1.0), Valued(kSecond, kInf), Valued(2 * kSecond, -kInf),
            Valued(3 * kSecond, std::numeric_limits<double>::quiet_NaN()),
            Valued(4 * kSecond, 2.0), Valued(5 * kSecond, -1e308),
            Valued(6 * kSecond, 1e308)});
  const std::string out = nlv.Render();
  const std::string row = out.substr(0, out.find('\n'));
  ASSERT_EQ(row.size(), 1 + 2 + kWidth + 1u);  // "L |" + cells + "|"
  const std::string cells = row.substr(3, kWidth);
  for (char cell : cells) {
    EXPECT_NE(std::string(" .:-=+*#%@").find(cell), std::string::npos)
        << "cell '" << cell << "' is not a ramp character";
  }
  // The finite samples are drawn; the non-finite ones leave blanks.
  EXPECT_NE(cells[0], ' ');
  EXPECT_EQ(cells[2], ' ');
  EXPECT_EQ(cells[4], ' ');
  EXPECT_EQ(cells[6], ' ');
  EXPECT_NE(cells[12], ' ');
}

}  // namespace
}  // namespace jamm::archive
