// Tests for the ULM record format: ASCII parse/serialize round-trips
// (including the paper's literal example), quoting, binary codec, XML
// emission, and randomized property sweeps. The codecs under test are the
// flat ones (ulm/flat.hpp); the Record field API is tested directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "common/time_util.hpp"
#include "netlogger/merge.hpp"
#include "ulm/flat.hpp"
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

// The flat codecs under test, spelled over Record so the assertions can
// compare whole records.
std::string Ascii(const Record& rec) {
  return FlatRecord::FromRecord(rec).View().ToAscii();
}

Result<Record> ParseAscii(std::string_view line) {
  auto flat = FlatRecord::FromAscii(line);
  if (!flat.ok()) return flat.status();
  return flat->ToRecord();
}

std::string Binary(const Record& rec) {
  return EncodeBinary(FlatRecord::FromRecord(rec).View());
}

Result<std::vector<Record>> DecodeStream(std::string_view data) {
  FlatBatch batch;
  JAMM_RETURN_IF_ERROR(batch.DecodeBinaryStreamInto(data));
  std::vector<Record> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(batch.View(i).ToRecord());
  }
  return out;
}

std::string Xml(const Record& rec) {
  return FlatRecord::FromRecord(rec).View().ToXml();
}

// ------------------------------------------------------------------ ASCII

TEST(UlmAsciiTest, SerializesPaperExample) {
  // Paper §4.2 sample event, verbatim.
  EXPECT_EQ(Ascii(SampleRecord()),
            "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg "
            "LVL=Usage NL.EVNT=WriteData SEND.SZ=49332");
}

TEST(UlmAsciiTest, ParsesPaperExample) {
  auto rec = ParseAscii(
      "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg "
      "LVL=Usage NL.EVNT=WriteData SEND.SZ=49332");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->host(), "dpss1.lbl.gov");
  EXPECT_EQ(rec->prog(), "testProg");
  EXPECT_EQ(rec->lvl(), "Usage");
  EXPECT_EQ(rec->event_name(), "WriteData");
  EXPECT_EQ(*rec->GetInt("SEND.SZ"), 49332);
  EXPECT_EQ(FormatUlmDate(rec->timestamp()), "20000330112320.957943");
}

TEST(UlmAsciiTest, RoundTripsExactly) {
  Record rec = SampleRecord();
  auto parsed = ParseAscii(Ascii(rec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rec);
}

TEST(UlmAsciiTest, FieldOrderPreserved) {
  Record rec = SampleRecord();
  rec.SetField("B", "2");
  rec.SetField("A", "1");
  auto parsed = ParseAscii(Ascii(rec));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->fields().size(), 3u);
  EXPECT_EQ(parsed->fields()[0].first, "SEND.SZ");
  EXPECT_EQ(parsed->fields()[1].first, "B");
  EXPECT_EQ(parsed->fields()[2].first, "A");
}

TEST(UlmAsciiTest, QuotesValuesWithSpaces) {
  Record rec = SampleRecord();
  rec.SetField("MSG", "server exited with status 1");
  const std::string line = Ascii(rec);
  EXPECT_NE(line.find("MSG=\"server exited with status 1\""),
            std::string::npos);
  auto parsed = ParseAscii(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("MSG"), "server exited with status 1");
}

TEST(UlmAsciiTest, EscapesQuotesBackslashesNewlines) {
  Record rec = SampleRecord();
  rec.SetField("MSG", "a \"quoted\" \\ multi\nline");
  auto parsed = ParseAscii(Ascii(rec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("MSG"), "a \"quoted\" \\ multi\nline");
}

TEST(UlmAsciiTest, EmptyValueQuoted) {
  Record rec = SampleRecord();
  rec.SetField("EMPTY", "");
  auto parsed = ParseAscii(Ascii(rec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("EMPTY"), "");
}

TEST(UlmAsciiTest, MissingRequiredFieldRejected) {
  EXPECT_FALSE(ParseAscii("HOST=h PROG=p LVL=Usage").ok());     // no DATE
  EXPECT_FALSE(
      ParseAscii("DATE=20000101000000.0 PROG=p LVL=Usage").ok());  // no HOST
  EXPECT_FALSE(
      ParseAscii("DATE=20000101000000.0 HOST=h LVL=Usage").ok());  // no PROG
  EXPECT_FALSE(
      ParseAscii("DATE=20000101000000.0 HOST=h PROG=p").ok());     // no LVL
}

TEST(UlmAsciiTest, MalformedPairsRejected) {
  EXPECT_FALSE(ParseAscii("DATE").ok());
  EXPECT_FALSE(ParseAscii("DATE=20000101000000.0 HOST=h PROG=p "
                                 "LVL=Usage MSG=\"unterminated")
                   .ok());
  EXPECT_FALSE(ParseAscii("=v").ok());
}

TEST(UlmAsciiTest, SetFieldOverwrites) {
  Record rec = SampleRecord();
  rec.SetField("SEND.SZ", std::int64_t{100});
  EXPECT_EQ(*rec.GetInt("SEND.SZ"), 100);
  EXPECT_EQ(rec.fields().size(), 1u);
}

TEST(UlmAsciiTest, SetFieldRoutesRequiredNames) {
  Record rec = SampleRecord();
  rec.SetField("HOST", "other.lbl.gov");
  EXPECT_EQ(rec.host(), "other.lbl.gov");
  EXPECT_TRUE(rec.fields().empty() || rec.fields()[0].first != "HOST");
  rec.SetField("NL.EVNT", "ReadData");
  EXPECT_EQ(rec.event_name(), "ReadData");
}

TEST(UlmAsciiTest, GetDoubleAndMissingField) {
  Record rec = SampleRecord();
  rec.SetField("LOAD", 0.75);
  EXPECT_NEAR(*rec.GetDouble("LOAD"), 0.75, 1e-9);
  EXPECT_FALSE(rec.GetInt("ABSENT").ok());
  EXPECT_FALSE(rec.GetField("ABSENT").has_value());
  EXPECT_TRUE(rec.HasField("LOAD"));
}

TEST(UlmAsciiTest, HugeDoubleValuesSerializeInFull) {
  // Regression (ISSUE 7 S1): SetField(double) formatted into a fixed
  // 32-byte buffer, so any %.6f rendering of 32+ characters (magnitudes
  // from ~1e26 up) was silently truncated — the stored value was a
  // chopped prefix of the real number.
  Record rec = SampleRecord();
  rec.SetField("BIG", 1e300);
  rec.SetField("NEG", -1e300);
  rec.SetField("MAX", std::numeric_limits<double>::max());
  // %.6f of ±1e300 is 301 integer digits plus ".000000".
  ASSERT_TRUE(rec.GetField("BIG").has_value());
  EXPECT_EQ(rec.GetField("BIG")->size(), 308u);
  EXPECT_EQ(rec.GetField("NEG")->size(), 309u);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("BIG"), 1e300);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("NEG"), -1e300);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("MAX"), std::numeric_limits<double>::max());
  auto parsed = ParseAscii(Ascii(rec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rec);
}

TEST(UlmAsciiTest, ValidateRejectsTabAndNewlineInFieldNames) {
  // Regression (ISSUE 7 S2): Validate rejected space/'='/'"' in field
  // names but let '\t' and '\n' through, even though the ASCII tokenizer
  // treats them as delimiters (keys are never quoted) — a "valid" record
  // serialized into a line that parsed back differently or not at all.
  for (const char* key : {"BAD\tKEY", "BAD\nKEY", "TRAIL\t", "\nLEAD"}) {
    Record rec = SampleRecord();
    rec.SetField(key, "v");
    EXPECT_FALSE(rec.Validate().ok()) << "key accepted: " << key;
  }
}

TEST(UlmAsciiTest, TabDelimitsKeysExactlyLikeSpace) {
  // Companion to the S2 fix: the key scan now stops at '\t' as the value
  // scan always did, so a tab-truncated key is a parse error instead of
  // silently becoming a field name Validate would reject.
  EXPECT_FALSE(ParseAscii("DATE=20000101000000.0 HOST=h PROG=p "
                                 "LVL=Usage A\tB=v")
                   .ok());
  // Tabs between pairs are ordinary separators.
  auto rec = ParseAscii(
      "DATE=20000101000000.0\tHOST=h\tPROG=p\tLVL=Usage\tK=v");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec->GetField("K"), "v");
}

TEST(UlmAsciiTest, CoreFieldLookupIsUniformWhenEmpty) {
  // Regression (ISSUE 7 S3): GetField("NL.EVNT") returned nullopt when
  // the event name was empty, while HOST/PROG/LVL answered
  // present-and-empty — generic field-driven code saw the core fields
  // behave inconsistently.
  Record rec(0, "", "", "", "");
  for (auto key : {field::kHost, field::kProg, field::kLevel, field::kEvent}) {
    auto got = rec.GetField(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, "") << key;
  }
}

TEST(UlmAsciiTest, ValidateCatchesBadRecords) {
  Record rec = SampleRecord();
  EXPECT_TRUE(rec.Validate().ok());
  Record no_host = rec;
  no_host.set_host("");
  EXPECT_FALSE(no_host.Validate().ok());
  Record neg = rec;
  neg.set_timestamp(-1);
  EXPECT_FALSE(neg.Validate().ok());
}

TEST(UlmAsciiTest, ParseLogSkipsBlanksCollectsError) {
  FlatBatch records;
  const Status error = ParseLog(
      "DATE=20000101000000.0 HOST=h PROG=p LVL=Usage NL.EVNT=A\n"
      "\n"
      "garbage line\n"
      "DATE=20000101000001.0 HOST=h PROG=p LVL=Usage NL.EVNT=B\n",
      records);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_FALSE(error.ok());
}

TEST(UlmAsciiTest, ParseLogMatchesTheReference) {
  // Same records and same first error as the reference whole-log parser,
  // over a log mixing good lines, blank lines and several bad ones.
  const std::string log =
      "DATE=20000101000000.0 HOST=h PROG=p LVL=Usage NL.EVNT=A K=\"x y\"\n"
      " \t \n"
      "HOST=h PROG=p LVL=Usage\n"
      "DATE=20000101000001.0 HOST=h PROG=p LVL=Usage K=1 K=2\n"
      "DATE=20000101000002.0 HOST=h PROG=p LVL=Usage MSG=\"open\n"
      "\tDATE=20000101000003.0 HOST=h2 PROG=p LVL=Error NL.EVNT=B\r\n";
  Status want_error;
  const auto want = reference::ParseLog(log, &want_error);
  FlatBatch got;
  const Status error = ParseLog(log, got);
  EXPECT_EQ(error.ToString(), want_error.ToString());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.View(i).ToAscii(), reference::ToAscii(want[i]));
  }
}

// ----------------------------------------------------------------- binary

TEST(UlmBinaryTest, RoundTripsSample) {
  Record rec = SampleRecord();
  auto decoded = DecodeStream(Binary(rec));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ(decoded->front(), rec);
}

TEST(UlmBinaryTest, StreamsConcatenate) {
  std::string data;
  for (int i = 0; i < 10; ++i) {
    Record rec = SampleRecord();
    rec.set_timestamp(rec.timestamp() + i);
    rec.SetField("SEQ", static_cast<std::int64_t>(i));
    data += Binary(rec);
  }
  auto decoded = DecodeStream(data);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*(*decoded)[i].GetInt("SEQ"), i);
  }
}

TEST(UlmBinaryTest, RejectsCorruption) {
  std::string data = Binary(SampleRecord());
  std::string bad_magic = data;
  bad_magic[0] = 'Z';
  EXPECT_FALSE(DecodeStream(bad_magic).ok());

  std::string bad_version = data;
  bad_version[2] = 99;
  EXPECT_FALSE(DecodeStream(bad_version).ok());

  std::string truncated = data.substr(0, data.size() / 2);
  EXPECT_FALSE(DecodeStream(truncated).ok());

  // An empty stream holds no records; it is not an error.
  auto empty = DecodeStream("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// ISSUE 3 satellite: the length check used to be `i + len > data.size()`,
// which wraps when a hostile varint length is near SIZE_MAX — the sum
// passes the bound, substr clamps, and `i += len` rewinds the offset into
// already-consumed input (an infinite loop on a stream decode). These
// tests pin the overflow-safe comparison.

// Varint encoder mirroring the codec's wire format, for crafting hostile
// lengths the real encoder would never emit.
void PutHostileVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Valid record header (magic, version, zero timestamp, nfields = 4)
// ready for malicious field bytes.
std::string HostileRecordHeader() {
  std::string data;
  data.push_back('\x4C');  // magic lo ("L")
  data.push_back('\x55');  // magic hi ("U")
  data.push_back('\x01');  // version
  data.append(8, '\0');    // timestamp
  data.push_back('\x04');  // nfields = 4
  return data;
}

TEST(UlmBinaryTest, HostileVarintLengthNearSizeMaxRejected) {
  std::string data = HostileRecordHeader();
  PutHostileVarint(data, ~std::uint64_t{0});  // key length 2^64 - 1
  data += "HOST";                             // residue, far short of len
  auto decoded = DecodeStream(data);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(UlmBinaryTest, WrappingLengthCannotRewindStreamDecode) {
  // A valid record followed by a field whose length is exactly
  // 2^64 - (offset after the varint): with the wrapping comparison the
  // offset would land back on byte 0 and the stream decode would decode
  // the leading record forever.
  std::string data = Binary(SampleRecord());
  data += HostileRecordHeader();
  // The wrap-to-zero length is 10 varint bytes long; aim past them.
  const std::uint64_t len =
      ~static_cast<std::uint64_t>(data.size() + 10) + 1;  // -(i) mod 2^64
  PutHostileVarint(data, len);
  data += "residue bytes";
  auto decoded = DecodeStream(data);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(UlmBinaryTest, HugeCallerOffsetRejected) {
  // The caller-offset decoder is the reference's; the fuzz corpora rely
  // on it rejecting a wrapping offset rather than reading past the end.
  std::string data = Binary(SampleRecord());
  std::size_t offset = ~std::size_t{0} - 4;  // would wrap `offset + 11`
  EXPECT_FALSE(reference::DecodeBinary(data, &offset).ok());
}

TEST(UlmBinaryTest, BinarySmallerThanAsciiForNumericHeavyRecords) {
  Record rec = SampleRecord();
  for (int i = 0; i < 20; ++i) {
    rec.SetField("F" + std::to_string(i), static_cast<std::int64_t>(i * 1000));
  }
  EXPECT_LT(Binary(rec).size(), Ascii(rec).size());
}

TEST(UlmBinaryTest, PropertyRandomRecordsRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    Record rec(rng.Uniform(0, 4102444800ll * kSecond),
               "host" + std::to_string(rng.Uniform(0, 99)), "prog",
               std::string(level::kUsage),
               trial % 3 ? "Event" + std::to_string(trial) : "");
    const int nfields = static_cast<int>(rng.Uniform(0, 8));
    for (int f = 0; f < nfields; ++f) {
      std::string value;
      const int len = static_cast<int>(rng.Uniform(0, 20));
      for (int c = 0; c < len; ++c) {
        value += static_cast<char>(rng.Uniform(32, 126));
      }
      rec.SetField("F" + std::to_string(f), std::string_view(value));
    }
    // Binary round-trip, byte-identical to the reference encoder.
    std::string data = Binary(rec);
    EXPECT_EQ(data, reference::EncodeBinary(rec));
    auto bin = DecodeStream(data);
    ASSERT_TRUE(bin.ok());
    ASSERT_EQ(bin->size(), 1u);
    EXPECT_EQ(bin->front(), rec);
    // ASCII round-trip, byte-identical to the reference writer.
    EXPECT_EQ(Ascii(rec), reference::ToAscii(rec));
    auto asc = ParseAscii(Ascii(rec));
    ASSERT_TRUE(asc.ok()) << Ascii(rec);
    EXPECT_EQ(*asc, rec);
    EXPECT_EQ(Xml(rec), reference::ToXml(rec));
  }
}

// -------------------------------------------------------------------- XML

TEST(UlmXmlTest, EmitsEventElement) {
  const std::string xml = Xml(SampleRecord());
  EXPECT_NE(xml.find("<event date=\"20000330112320.957943\""),
            std::string::npos);
  EXPECT_NE(xml.find("host=\"dpss1.lbl.gov\""), std::string::npos);
  EXPECT_NE(xml.find("name=\"WriteData\""), std::string::npos);
  EXPECT_NE(xml.find("<field name=\"SEND.SZ\">49332</field>"),
            std::string::npos);
}

TEST(UlmXmlTest, SelfClosesWithoutFields) {
  Record rec(0, "h", "p", "Usage", "E");
  EXPECT_NE(Xml(rec).find("/>"), std::string::npos);
}

TEST(UlmXmlTest, EscapesSpecials) {
  Record rec(0, "h", "p", "Usage", "E");
  rec.SetField("MSG", "a<b&c>\"d'");
  const std::string xml = Xml(rec);
  EXPECT_NE(xml.find("a&lt;b&amp;c&gt;&quot;d&apos;"), std::string::npos);
  EXPECT_EQ(xml.find("a<b"), std::string::npos);
}

// ------------------------------------------------------------ golden bytes
//
// The exact ASCII, binary and XML bytes of a fixed record set, written as
// literals so any change to a codec's output shows up here as a diff —
// not only as a disagreement between two codecs that drifted together.
// The set covers the quoting rules (a value with '"', a backslash, a
// newline, a tab and the empty value), XML escapes, an empty NL.EVNT (left
// out of ASCII and XML, sent as an empty string in binary), a double
// >= 1e26 formatted through SetField(double), and field-less records.

std::vector<FlatRecord> GoldenRecords() {
  std::vector<FlatRecord> out;
  FlatRecord a(*ParseUlmDate("20000330112320.957943"), "dpss1.lbl.gov",
               "testProg", "Usage", "WriteData");
  a.SetField("SEND.SZ", std::int64_t{49332});
  out.push_back(a);
  FlatRecord b(*ParseUlmDate("20000330112321.000001"), "dpss1.lbl.gov",
               "testProg", "Error", "ServerMsg");
  b.SetField("MSG", "say \"hi\" \\ then\nnext line");
  b.SetField("XML", "a<b&c>'d'");
  b.SetField("EMPTY", "");
  out.push_back(b);
  FlatRecord c(*ParseUlmDate("20000330112322.5"), "node-7.grid", "vmstat",
               "Usage", "");
  c.SetField("CPU.LOAD", 0.25);
  c.SetField("TAB", "x\ty");
  out.push_back(c);
  FlatRecord d(*ParseUlmDate("20000330112323.000000"), "big.host", "calc",
               "Usage", "Huge");
  d.SetField("BIG", 1e26);
  d.SetField("NEG", -3.5e30);
  out.push_back(d);
  out.emplace_back(0, "h", "p", "Debug", "Bare");
  out.emplace_back(*ParseUlmDate("20000330112324.000042"), "h", "p", "Usage",
                   "");
  return out;
}

struct GoldenBytes {
  const char* ascii;
  const char* binary_hex;
  const char* xml;
};

const GoldenBytes kGolden[] = {
    {"DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Us"
     "age NL.EVNT=WriteData SEND.SZ=49332",
     "4c5501f737f126096403000504484f53540d64707373312e6c626c2e676f7604"
     "50524f47087465737450726f67034c564c055573616765074e4c2e45564e5409"
     "5772697465446174610753454e442e535a053439333332",
     "<event date=\"20000330112320.957943\" host=\"dpss1.lbl.gov\" prog="
     "\"testProg\" lvl=\"Usage\" name=\"WriteData\"><field name=\"SEND.S"
     "Z\">49332</field></event>"},
    {"DATE=20000330112321.000001 HOST=dpss1.lbl.gov PROG=testProg LVL=Er"
     "ror NL.EVNT=ServerMsg MSG=\"say \\\"hi\\\" \\\\ then\\nnext line\""
     " XML=a<b&c>'d' EMPTY=\"\"",
     "4c550141dcf126096403000704484f53540d64707373312e6c626c2e676f7604"
     "50524f47087465737450726f67034c564c054572726f72074e4c2e45564e5409"
     "5365727665724d7367034d5347197361792022686922205c207468656e0a6e65"
     "7874206c696e6503584d4c09613c6226633e27642705454d50545900",
     "<event date=\"20000330112321.000001\" host=\"dpss1.lbl.gov\" prog="
     "\"testProg\" lvl=\"Error\" name=\"ServerMsg\"><field name=\"MSG\">"
     "say &quot;hi&quot; \\ then\nnext line</field><field name=\"XML\">a"
     "&lt;b&amp;c&gt;&apos;d&apos;</field><field name=\"EMPTY\"></field>"
     "</event>"},
    {"DATE=20000330112322.500000 HOST=node-7.grid PROG=vmstat LVL=Usage "
     "CPU.LOAD=0.250000 TAB=\"x\ty\"",
     "4c5501a0bf0827096403000604484f53540b6e6f64652d372e67726964045052"
     "4f4706766d73746174034c564c055573616765074e4c2e45564e540008435055"
     "2e4c4f414408302e3235303030300354414203780979",
     "<event date=\"20000330112322.500000\" host=\"node-7.grid\" prog=\""
     "vmstat\" lvl=\"Usage\"><field name=\"CPU.LOAD\">0.250000</field><f"
     "ield name=\"TAB\">x\ty</field></event>"},
    {"DATE=20000330112323.000000 HOST=big.host PROG=calc LVL=Usage NL.EV"
     "NT=Huge BIG=100000000000000004764729344.000000 NEG=-35000000000000"
     "00210333675290624.000000",
     "4c5501c0601027096403000604484f5354086269672e686f73740450524f4704"
     "63616c63034c564c055573616765074e4c2e45564e5404487567650342494722"
     "3130303030303030303030303030303030343736343732393334342e30303030"
     "3030034e4547272d333530303030303030303030303030303231303333333637"
     "353239303632342e303030303030",
     "<event date=\"20000330112323.000000\" host=\"big.host\" prog=\"cal"
     "c\" lvl=\"Usage\" name=\"Huge\"><field name=\"BIG\">10000000000000"
     "0004764729344.000000</field><field name=\"NEG\">-35000000000000002"
     "10333675290624.000000</field></event>"},
    {"DATE=19700101000000.000000 HOST=h PROG=p LVL=Debug NL.EVNT=Bare",
     "4c550100000000000000000404484f535401680450524f470170034c564c0544"
     "65627567074e4c2e45564e540442617265",
     "<event date=\"19700101000000.000000\" host=\"h\" prog=\"p\" lvl=\""
     "Debug\" name=\"Bare\"/>"},
    {"DATE=20000330112324.000042 HOST=h PROG=p LVL=Usage",
     "4c55012aa31f27096403000404484f535401680450524f470170034c564c0555"
     "73616765074e4c2e45564e5400",
     "<event date=\"20000330112324.000042\" host=\"h\" prog=\"p\" lvl=\""
     "Usage\"/>"},
};

std::string Unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string GoldenLog() {
  std::string log;
  for (const auto& g : kGolden) {
    log += g.ascii;
    log += '\n';
  }
  return log;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(UlmGoldenTest, EncodersEmitTheGoldenBytes) {
  const auto records = GoldenRecords();
  ASSERT_EQ(records.size(), std::size(kGolden));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RecordView v = records[i].View();
    EXPECT_EQ(v.ToAscii(), kGolden[i].ascii) << "record " << i;
    EXPECT_EQ(EncodeBinary(v), Unhex(kGolden[i].binary_hex)) << "record " << i;
    EXPECT_EQ(v.ToXml(), kGolden[i].xml) << "record " << i;
  }
}

TEST(UlmGoldenTest, DecodersReadTheGoldenBytesBack) {
  std::string stream;
  for (const auto& g : kGolden) {
    auto parsed = FlatRecord::FromAscii(g.ascii);
    ASSERT_TRUE(parsed.ok()) << g.ascii;
    EXPECT_EQ(parsed->View().ToAscii(), g.ascii);
    EXPECT_EQ(EncodeBinary(parsed->View()), Unhex(g.binary_hex));
    stream += Unhex(g.binary_hex);
  }
  FlatBatch batch;
  ASSERT_TRUE(batch.DecodeBinaryStreamInto(stream).ok());
  ASSERT_EQ(batch.size(), std::size(kGolden));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.View(i).ToAscii(), kGolden[i].ascii);
    EXPECT_EQ(batch.View(i).ToXml(), kGolden[i].xml);
  }
}

TEST(UlmGoldenTest, LogFilesRoundTripByteForByte) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string in = (dir / "jamm_golden_in.log").string();
  const std::string out = (dir / "jamm_golden_out.log").string();
  WriteFile(in, GoldenLog());
  auto loaded = netlogger::LoadLogFile(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), std::size(kGolden));
  ASSERT_TRUE(netlogger::WriteLogFile(out, *loaded).ok());
  EXPECT_EQ(ReadFile(out), GoldenLog());
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(UlmGoldenTest, LogLoadReportsTheFirstError) {
  // Blank and whitespace-only lines are skipped; the first malformed line
  // is the error reported, not the later bad DATE.
  const std::string path =
      (std::filesystem::temp_directory_path() / "jamm_golden_bad.log")
          .string();
  WriteFile(path, std::string(kGolden[0].ascii) +
                      "\n\n   \nHOST=h garbage\n"
                      "DATE=x HOST=h PROG=p LVL=Usage\n" +
                      kGolden[1].ascii + "\n");
  auto loaded = netlogger::LoadLogFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().ToString(),
            "PARSE_ERROR: expected '=' after field name near offset 7");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jamm::ulm
