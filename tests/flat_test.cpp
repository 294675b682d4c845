// Tests for the flat ULM core (ISSUE 7): the process-wide symbol table,
// FlatRecord/RecordView/FlatBatch, and the flat codecs' byte-identity
// with the reference Record codecs (ulm_reference.hpp). The concurrency
// cases (parallel interning, interleaved Intern/Name readers) run under
// TSan via scripts/check_tsan.sh.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/time_util.hpp"
#include "ulm/encoded.hpp"
#include "ulm/flat.hpp"
#include "ulm/intern.hpp"
#include "ulm/record.hpp"
#include "ulm_reference.hpp"

namespace jamm::ulm {
namespace {

Record SampleRecord() {
  auto ts = ParseUlmDate("20000330112320.957943");
  Record rec(*ts, "dpss1.lbl.gov", "testProg", std::string(level::kUsage),
             "WriteData");
  rec.SetField("SEND.SZ", std::int64_t{49332});
  return rec;
}

// ---------------------------------------------------------------- interning

TEST(InternTest, EmptyStringIsSymbolZero) {
  EXPECT_EQ(InternSymbol(""), kEmptySymbol);
  EXPECT_EQ(SymbolName(kEmptySymbol), "");
}

TEST(InternTest, SameStringSameSymbol) {
  const Symbol a = InternSymbol("flat_test.same.string");
  const Symbol b = InternSymbol("flat_test.same.string");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, InternSymbol("flat_test.other.string"));
  EXPECT_EQ(SymbolName(a), "flat_test.same.string");
}

TEST(InternTest, FindDoesNotGrowTheTable) {
  const std::size_t before = Symbols().size();
  EXPECT_FALSE(FindSymbol("flat_test.never.interned.glob*").has_value());
  EXPECT_EQ(Symbols().size(), before);
  const Symbol sym = InternSymbol("flat_test.find.after.intern");
  auto found = FindSymbol("flat_test.find.after.intern");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, sym);
}

TEST(InternTest, NamesAreStableAcrossGrowth) {
  // Name() string_views must survive arbitrary later interning (the
  // two-level block array never moves published entries).
  const Symbol sym = InternSymbol("flat_test.stable.name");
  const std::string_view name = SymbolName(sym);
  for (int i = 0; i < 10000; ++i) {
    InternSymbol("flat_test.growth." + std::to_string(i));
  }
  EXPECT_EQ(name, "flat_test.stable.name");
  EXPECT_EQ(SymbolName(sym).data(), name.data());
}

TEST(InternTest, ConcurrentInternAndLookup) {
  // Writers intern overlapping key sets while readers resolve names; under
  // TSan this pins the release/acquire pairing on the table's count.
  constexpr int kThreads = 8;
  constexpr int kKeys = 512;
  std::vector<std::vector<Symbol>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &per_thread] {
      auto& mine = per_thread[static_cast<std::size_t>(t)];
      mine.reserve(kKeys);
      for (int k = 0; k < kKeys; ++k) {
        // Every thread interns the same keys (contended inserts)...
        const Symbol sym =
            InternSymbol("flat_test.concurrent." + std::to_string(k));
        mine.push_back(sym);
        // ...and immediately reads back a name published by any thread.
        EXPECT_EQ(SymbolName(sym),
                  "flat_test.concurrent." + std::to_string(k));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<std::size_t>(t)], per_thread[0]);
  }
}

// --------------------------------------------------------------- FlatRecord

TEST(FlatRecordTest, BuildsAndReadsBack) {
  FlatRecord rec(123456, "host.a", "prog", "Usage", "CPU.LOAD");
  rec.SetField("VAL", 0.75);
  rec.SetField("N", std::int64_t{42});
  const RecordView view = rec.View();
  EXPECT_EQ(view.timestamp(), 123456);
  EXPECT_EQ(view.host(), "host.a");
  EXPECT_EQ(view.event_name(), "CPU.LOAD");
  EXPECT_EQ(view.field_count(), 2u);
  EXPECT_NEAR(*view.GetDouble(InternSymbol("VAL")), 0.75, 1e-9);
  EXPECT_EQ(*view.GetInt(InternSymbol("N")), 42);
  EXPECT_FALSE(view.GetField("flat_test.absent.key").has_value());
}

TEST(FlatRecordTest, SetFieldRoutesRequiredNamesAndOverwrites) {
  FlatRecord rec(0, "h", "p", "Usage", "E");
  rec.SetField("HOST", "other.lbl.gov");
  EXPECT_EQ(rec.host(), "other.lbl.gov");
  EXPECT_EQ(rec.field_count(), 0u);  // routed, not appended
  rec.SetField("K", "long-initial-value");
  rec.SetField("K", "short");  // overwrites in place
  EXPECT_EQ(rec.field_count(), 1u);
  EXPECT_EQ(*rec.View().GetField("K"), "short");
}

TEST(FlatRecordTest, CoreFieldLookupIsUniformWhenEmpty) {
  // Same S3 contract as Record::GetField: HOST/PROG/LVL/NL.EVNT answer
  // present-and-empty.
  FlatRecord rec(0, "", "", "", "");
  const RecordView view = rec.View();
  for (auto key : {field::kHost, field::kProg, field::kLevel, field::kEvent}) {
    auto got = view.GetField(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, "") << key;
  }
}

TEST(FlatRecordTest, ClearKeepsCapacityAndAssignRecordReuses) {
  FlatRecord rec;
  rec.AssignRecord(SampleRecord());
  EXPECT_EQ(rec.ToRecord(), SampleRecord());
  Record other(1, "h2", "p2", "Error", "Other");
  other.SetField("X", "y");
  rec.AssignRecord(other);
  EXPECT_EQ(rec.ToRecord(), other);
  rec.Clear();
  EXPECT_EQ(rec.field_count(), 0u);
  EXPECT_EQ(rec.host(), "");
}

TEST(FlatRecordTest, FromAsciiMatchesReferenceParser) {
  const std::string line = reference::ToAscii(SampleRecord());
  auto flat = FlatRecord::FromAscii(line);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->ToRecord(), SampleRecord());
  // Same grammar: what the reference parser rejects, the flat parser
  // rejects.
  EXPECT_FALSE(FlatRecord::FromAscii("HOST=h PROG=p LVL=Usage").ok());
  EXPECT_FALSE(FlatRecord::FromAscii("=v").ok());
}

TEST(FlatRecordTest, FromAsciiKeepsRepeatedUserKeysAndLastRequiredName) {
  const std::string line =
      "DATE=20000101000000.0 HOST=a PROG=p LVL=Usage K=1 HOST=b K=\"2 3\"";
  auto flat = FlatRecord::FromAscii(line);
  auto want = reference::FromAscii(line);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(flat->host(), "b");
  EXPECT_EQ(flat->field_count(), 2u);
  EXPECT_EQ(flat->ToRecord(), *want);
  EXPECT_EQ(flat->View().ToAscii(),
            "DATE=20000101000000.000000 HOST=b PROG=p LVL=Usage K=1 "
            "K=\"2 3\"");
}

TEST(FlatRecordTest, AssignAsciiReusesTheRecord) {
  FlatRecord rec;
  ASSERT_TRUE(rec.AssignAscii(reference::ToAscii(SampleRecord())).ok());
  EXPECT_EQ(rec.ToRecord(), SampleRecord());
  EXPECT_FALSE(rec.AssignAscii("DATE=bad HOST=h PROG=p LVL=Usage").ok());
  ASSERT_TRUE(
      rec.AssignAscii("DATE=20000101000000.0 HOST=h PROG=p LVL=x").ok());
  EXPECT_EQ(rec.host(), "h");
  EXPECT_EQ(rec.field_count(), 0u);  // nothing left over from earlier parses
}

// ------------------------------------------------------- transcoder parity

TEST(FlatTranscoderTest, AsciiBinaryXmlAreByteIdentical) {
  Record legacy = SampleRecord();
  legacy.SetField("MSG", "server exited with status 1");  // forces quoting
  legacy.SetField("EMPTY", "");
  const FlatRecord flat = FlatRecord::FromRecord(legacy);
  const RecordView view = flat.View();
  EXPECT_EQ(view.ToAscii(), reference::ToAscii(legacy));
  EXPECT_EQ(EncodeBinary(view), reference::EncodeBinary(legacy));
  EXPECT_EQ(view.ToXml(), reference::ToXml(legacy));
}

TEST(FlatTranscoderTest, EmptyEventNameOmittedLikeReference) {
  Record legacy(77, "h", "p", "Usage", "");
  legacy.SetField("K", "v");
  const FlatRecord flat = FlatRecord::FromRecord(legacy);
  EXPECT_EQ(flat.View().ToAscii(), reference::ToAscii(legacy));
  EXPECT_EQ(EncodeBinary(flat.View()), reference::EncodeBinary(legacy));
  EXPECT_EQ(flat.View().ToXml(), reference::ToXml(legacy));
}

// ------------------------------------------------------------- EncodedRecord

TEST(FlatTranscoderTest, ViewBackedEncodedRecordMatchesReference) {
  Record legacy = SampleRecord();
  const FlatRecord flat = FlatRecord::FromRecord(legacy);
  const EncodedRecord enc(flat.View());
  EXPECT_EQ(enc.Ascii(), reference::ToAscii(legacy));
  EXPECT_EQ(enc.Binary(), reference::EncodeBinary(legacy));
  EXPECT_EQ(enc.Xml(), reference::ToXml(legacy));
  EXPECT_EQ(enc.view().ToRecord(), legacy);
  EXPECT_EQ(enc.encodes(), 3u);
  EXPECT_EQ(enc.accesses(), 3u);
}

// ---------------------------------------------------------------- FlatBatch

TEST(FlatBatchTest, AppendsAndViews) {
  FlatBatch batch;
  for (int i = 0; i < 10; ++i) {
    Record rec = SampleRecord();
    rec.set_timestamp(rec.timestamp() + i);
    rec.SetField("SEQ", static_cast<std::int64_t>(i));
    ASSERT_TRUE(batch.Append(rec));
  }
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const RecordView view = batch.View(static_cast<std::size_t>(i));
    EXPECT_EQ(*view.GetInt(InternSymbol("SEQ")), i);
    EXPECT_EQ(view.host(), "dpss1.lbl.gov");
  }
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(FlatBatchTest, DecodeBinaryStreamMatchesReferenceDecoder) {
  std::string data;
  Rng rng(7);
  std::vector<Record> sent;
  for (int i = 0; i < 50; ++i) {
    Record rec(rng.Uniform(0, 4102444800ll * kSecond),
               "host" + std::to_string(rng.Uniform(0, 5)), "prog", "Usage",
               i % 4 ? "EVNT" + std::to_string(i % 3) : "");
    rec.SetField("I", static_cast<std::int64_t>(i));
    if (i % 2) rec.SetField("MSG", "has some spaces " + std::to_string(i));
    reference::EncodeBinary(rec, data);
    sent.push_back(std::move(rec));
  }
  FlatBatch batch;
  ASSERT_TRUE(batch.DecodeBinaryStreamInto(data).ok());
  ASSERT_EQ(batch.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(batch.View(i).ToRecord(), sent[i]);
  }
}

TEST(FlatBatchTest, CorruptStreamKeepsDecodedPrefix) {
  std::string data;
  reference::EncodeBinary(SampleRecord(), data);
  reference::EncodeBinary(SampleRecord(), data);
  data += "garbage that is not a record";
  FlatBatch batch;
  EXPECT_FALSE(batch.DecodeBinaryStreamInto(data).ok());
  EXPECT_EQ(batch.size(), 2u);  // records before the bad frame survive
}

TEST(FlatBatchTest, SortByTimeIsStableAndKeepsArenasInOrder) {
  FlatBatch batch;
  const std::vector<std::pair<TimePoint, std::string>> in = {
      {30, "C"}, {10, "A1"}, {20, "B"}, {10, "A2"}, {30, "D"}};
  for (const auto& [ts, name] : in) {
    FlatRecord rec(ts, "h", "p", "Usage", name);
    rec.SetField("NAME", name);
    ASSERT_TRUE(batch.Append(rec.View()));
  }
  batch.SortByTime();
  const std::vector<std::string> want = {"A1", "A2", "B", "C", "D"};
  ASSERT_EQ(batch.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(batch.View(i).event_name(), want[i]);
    EXPECT_EQ(*batch.View(i).GetField("NAME"), want[i]);
  }
  // Truncate after a sort drops exactly the tail records.
  batch.Truncate(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.value_bytes(), 4u);  // "A1" + "A2"
  EXPECT_EQ(*batch.View(1).GetField("NAME"), "A2");
}

}  // namespace
}  // namespace jamm::ulm
