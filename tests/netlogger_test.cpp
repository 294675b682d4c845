// Tests for the NetLogger toolkit: client API buffering/flushing and all
// sink types, and the merge/sort tools. The nlv views are tested in
// nlv_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "netlogger/logger.hpp"
#include "netlogger/merge.hpp"
#include "netlogger/sinks.hpp"

namespace jamm::netlogger {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

ulm::FlatRecord MakeEvent(TimePoint ts, const std::string& event,
                          const std::string& host = "h1") {
  return ulm::FlatRecord(ts, host, "test", "Usage", event);
}

ulm::FlatBatch Log(std::initializer_list<ulm::FlatRecord> records) {
  ulm::FlatBatch log;
  for (const auto& rec : records) EXPECT_TRUE(log.Append(rec.View()));
  return log;
}

std::vector<std::string> Ascii(const ulm::FlatBatch& log) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    out.push_back(log.View(i).ToAscii());
  }
  return out;
}

// ------------------------------------------------------------------ logger

TEST(NetLoggerTest, PaperApiShape) {
  // Mirrors the paper's Java snippet: construct, open, write, close.
  SimClock clock;
  clock.Set(TimePoint{954415400957943});  // ~2000-03-30
  NetLogger log("testprog", clock, "dpss1.lbl.gov");
  log.OpenMemory();
  ASSERT_TRUE(log.Write("WriteIt", {{"SEND.SZ", "49332"}}).ok());
  ASSERT_TRUE(log.Flush().ok());
  auto records = log.TakeBuffered();
  ASSERT_EQ(records.size(), 1u);
  const ulm::RecordView rec = records.View(0);
  EXPECT_EQ(rec.prog(), "testprog");
  EXPECT_EQ(rec.host(), "dpss1.lbl.gov");
  EXPECT_EQ(rec.event_name(), "WriteIt");
  EXPECT_EQ(*rec.GetInt(ulm::InternSymbol("SEND.SZ")), 49332);
}

TEST(NetLoggerTest, TimestampsComeFromClock) {
  SimClock clock(1000);
  NetLogger log("p", clock, "h");
  log.OpenMemory();
  (void)log.Write("A");
  clock.Advance(5 * kSecond);
  (void)log.Write("B");
  (void)log.Flush();
  auto records = log.TakeBuffered();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.View(1).timestamp() - records.View(0).timestamp(),
            5 * kSecond);
}

TEST(NetLoggerTest, AutoFlushWhenBufferFull) {
  SimClock clock;
  NetLogger log("p", clock, "h", /*buffer_capacity=*/4);
  auto memory = std::make_shared<MemorySink>();
  log.OpenSink(memory);
  for (int i = 0; i < 3; ++i) (void)log.Write("E");
  EXPECT_TRUE(memory->records().empty());  // below capacity: still buffered
  (void)log.Write("E");
  EXPECT_EQ(memory->records().size(), 4u);  // hit capacity: auto-flushed
}

TEST(NetLoggerTest, BuffersWithoutDestination) {
  SimClock clock;
  NetLogger log("p", clock, "h", 2);
  EXPECT_TRUE(log.Write("A").ok());
  EXPECT_TRUE(log.Write("B").ok());  // triggers flush with no sink: kept
  EXPECT_TRUE(log.Write("C").ok());
  EXPECT_EQ(log.TakeBuffered().size(), 3u);
}

TEST(NetLoggerTest, FileSinkWritesParseableLog) {
  const std::string path = TempPath("jamm_netlogger_test.log");
  SimClock clock(42 * kSecond);
  {
    NetLogger log("p", clock, "h");
    ASSERT_TRUE(log.OpenFile(path).ok());
    (void)log.Write("A", {{"K", "1"}});
    (void)log.Write("B");
    ASSERT_TRUE(log.Close().ok());
  }
  auto records = LoadLogFile(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(records->View(0).event_name(), "A");
  std::remove(path.c_str());
}

TEST(NetLoggerTest, SyslogSimRecordsByFacility) {
  SyslogSimSink::Reset();
  SimClock clock;
  NetLogger log("p", clock, "h");
  log.OpenSyslog("daemon");
  (void)log.Write("ServerDied");
  (void)log.Flush();
  auto records = SyslogSimSink::Read("daemon");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.View(0).event_name(), "ServerDied");
  EXPECT_TRUE(SyslogSimSink::Read("other").empty());
  SyslogSimSink::Reset();
}

TEST(NetLoggerTest, CallbackAndTeeSinks) {
  int called = 0;
  auto tee = std::make_shared<TeeSink>();
  auto memory = std::make_shared<MemorySink>();
  tee->Add(memory);
  tee->Add(std::make_shared<CallbackSink>(
      [&called](const ulm::RecordView&) { ++called; }));
  SimClock clock;
  NetLogger log("p", clock, "h", 1);  // flush every record
  log.OpenSink(tee);
  (void)log.Write("A");
  (void)log.Write("B");
  EXPECT_EQ(called, 2);
  EXPECT_EQ(memory->records().size(), 2u);
}

TEST(NetLoggerTest, WriteWithLevelAndVectorFields) {
  SimClock clock;
  NetLogger log("p", clock, "h");
  log.OpenMemory();
  (void)log.Write("Crash", ulm::level::kError, {{"PID", "123"}});
  (void)log.Flush();
  auto records = log.TakeBuffered();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.View(0).lvl(), "Error");
  EXPECT_EQ(*records.View(0).GetInt(ulm::InternSymbol("PID")), 123);
}

// ------------------------------------------------------------------ merge

TEST(MergeTest, SortByTimeStable) {
  ulm::FlatBatch log = Log({MakeEvent(30, "C"), MakeEvent(10, "A1"),
                            MakeEvent(10, "A2"), MakeEvent(20, "B")});
  EXPECT_FALSE(IsSortedByTime(log));
  log.SortByTime();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.View(0).event_name(), "A1");
  EXPECT_EQ(log.View(1).event_name(), "A2");  // stable tie
  EXPECT_EQ(log.View(3).event_name(), "C");
  EXPECT_TRUE(IsSortedByTime(log));
}

TEST(MergeTest, MergeLogsHandlesUnsorted) {
  auto merged = MergeLogs({Log({MakeEvent(9, "z"), MakeEvent(1, "a")}),
                           Log({MakeEvent(5, "m")})});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_TRUE(IsSortedByTime(merged));
  EXPECT_EQ(merged.View(1).event_name(), "m");
}

TEST(MergeTest, MergeLogsPropertySweep) {
  // Any mix of unsorted logs merges into one time-ordered log holding
  // every record once, ties in input order.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ulm::FlatBatch> logs(
        static_cast<std::size_t>(rng.Uniform(1, 6)));
    std::size_t total = 0;
    int seq = 0;
    for (auto& log : logs) {
      const int n = static_cast<int>(rng.Uniform(0, 40));
      for (int i = 0; i < n; ++i) {
        ulm::FlatRecord rec = MakeEvent(rng.Uniform(0, 100), "e");
        rec.SetField("SEQ", std::int64_t{seq++});
        ASSERT_TRUE(log.Append(rec.View()));
      }
      total += log.size();
    }
    auto merged = MergeLogs(logs);
    ASSERT_EQ(merged.size(), total);
    EXPECT_TRUE(IsSortedByTime(merged));
    const ulm::Symbol seq_key = ulm::InternSymbol("SEQ");
    for (std::size_t i = 1; i < merged.size(); ++i) {
      if (merged.View(i).timestamp() == merged.View(i - 1).timestamp()) {
        EXPECT_LT(*merged.View(i - 1).GetInt(seq_key),
                  *merged.View(i).GetInt(seq_key));
      }
    }
  }
}

TEST(MergeTest, WriteThenLoadRoundTrips) {
  const std::string path = TempPath("jamm_merge_test.log");
  const ulm::FlatBatch log = Log({MakeEvent(1, "A"), MakeEvent(2, "B")});
  ASSERT_TRUE(WriteLogFile(path, log).ok());
  auto loaded = LoadLogFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Ascii(*loaded), Ascii(log));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jamm::netlogger
