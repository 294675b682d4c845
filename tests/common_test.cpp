// Unit + property tests for jamm_common: status, clocks, time formatting,
// RNG distributions, queue semantics (including the zero-timeout poll as the
// in-proc listener sees it), string utilities, config parsing.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/id.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/time_util.hpp"
#include "transport/inproc.hpp"

namespace jamm {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("sensor cpu-0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "sensor cpu-0");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: sensor cpu-0");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Timeout("slow");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----------------------------------------------------------------- Clock

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Advance(5 * kSecond);
  EXPECT_EQ(clock.Now(), 1000 + 5 * kSecond);
  clock.Set(42);
  EXPECT_EQ(clock.Now(), 42);
}

TEST(ClockTest, SystemClockMonotonicEnough) {
  SystemClock& clock = SystemClock::Instance();
  TimePoint a = clock.Now();
  TimePoint b = clock.Now();
  EXPECT_GE(b, a);
  // Sanity: we are past 2020 and before 2100.
  EXPECT_GT(a, 1577836800ll * kSecond);
  EXPECT_LT(a, 4102444800ll * kSecond);
}

TEST(ClockTest, DurationConversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(FromSeconds(2.5), 2500 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

// ------------------------------------------------------------- time_util

TEST(TimeUtilTest, FormatsPaperExample) {
  // Paper §4.2: DATE=20000330112320.957943
  auto t = ParseUlmDate("20000330112320.957943");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatUlmDate(*t), "20000330112320.957943");
}

TEST(TimeUtilTest, EpochIsZero) {
  auto t = ParseUlmDate("19700101000000.000000");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0);
  EXPECT_EQ(FormatUlmDate(0), "19700101000000.000000");
}

TEST(TimeUtilTest, ShortFractionPads) {
  auto t = ParseUlmDate("20000101000000.5");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t % kSecond, 500000);
}

TEST(TimeUtilTest, MissingFractionIsZero) {
  auto t = ParseUlmDate("20000101000000");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t % kSecond, 0);
}

TEST(TimeUtilTest, RejectsMalformed) {
  EXPECT_FALSE(ParseUlmDate("").ok());
  EXPECT_FALSE(ParseUlmDate("2000").ok());
  EXPECT_FALSE(ParseUlmDate("20001330112320").ok());     // month 13
  EXPECT_FALSE(ParseUlmDate("20000330112320,5").ok());   // bad separator
  EXPECT_FALSE(ParseUlmDate("20000330112320.1234567").ok());  // 7 digits
  EXPECT_FALSE(ParseUlmDate("20000330112320.").ok());    // empty fraction
  EXPECT_FALSE(ParseUlmDate("2000033011232x").ok());     // non-digit
}

TEST(TimeUtilTest, RoundTripPropertySweep) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    // Uniform over 1970..2100.
    TimePoint t = rng.Uniform(0, 4102444800ll * kSecond);
    auto parsed = ParseUlmDate(FormatUlmDate(t));
    ASSERT_TRUE(parsed.ok()) << FormatUlmDate(t);
    EXPECT_EQ(*parsed, t);
  }
}

TEST(TimeUtilTest, IsoFormat) {
  auto t = ParseUlmDate("20000330112320.957943");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatIsoDate(*t), "2000-03-30 11:23:20.957943");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(42);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(42);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

// ----------------------------------------------------------------- Queue

TEST(QueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(QueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(QueueTest, CloseDrainsThenEmpty) {
  BoundedQueue<int> q(4);
  q.TryPush(1);
  q.TryPush(2);
  q.Close();
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, PopForTimesOut) {
  BoundedQueue<int> q(4);
  auto v = q.PopFor(10 * kMillisecond);
  EXPECT_FALSE(v.has_value());
}

// A zero timeout is a poll (message.hpp): it must not sleep out the
// kernel's timer slack, which cost ~57 µs per call when PopFor(0) still
// entered the condition-variable wait. 20,000 polls took ~1.1 s then;
// 100 ms leaves room for sanitizer builds.
constexpr int kZeroTimeoutPolls = 20000;
constexpr auto kZeroTimeoutBudget = std::chrono::milliseconds(100);

TEST(QueueTest, PopForZeroDoesNotWait) {
  BoundedQueue<int> q(4);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kZeroTimeoutPolls; ++i) {
    ASSERT_FALSE(q.PopFor(0).has_value());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, kZeroTimeoutBudget);
  ASSERT_TRUE(q.TryPush(7));
  EXPECT_EQ(q.PopFor(0), 7);
}

TEST(QueueTest, IdleInProcAcceptZeroDoesNotWait) {
  transport::InProcNetwork net;
  auto listener = net.Listen("idle");
  ASSERT_TRUE(listener.ok());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kZeroTimeoutPolls; ++i) {
    ASSERT_EQ((*listener)->Accept(0).status().code(), StatusCode::kTimeout);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, kZeroTimeoutBudget);
}

TEST(QueueTest, CrossThreadHandoff) {
  BoundedQueue<int> q(8);
  constexpr int kCount = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) q.Push(i);
    q.Close();
  });
  int expected = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

// --------------------------------------------------------------- strings

// ParseDouble's allocation-free path for plain decimals must give exactly
// strtod's value, and every text must keep strtod's verdict.
void ExpectParseDoubleMatchesStrtod(const std::string& text) {
  SCOPED_TRACE("'" + text + "'");
  const std::string trimmed = Trim(text);
  char* end = nullptr;
  const double want = std::strtod(trimmed.c_str(), &end);
  const bool want_ok =
      !trimmed.empty() && end == trimmed.c_str() + trimmed.size();
  const auto got = ParseDouble(text);
  ASSERT_EQ(got.ok(), want_ok);
  if (!want_ok) return;
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(*got));
  } else {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(StringsTest, ParseDoubleMatchesStrtod) {
  for (const char* text :
       {"+5", ".5", "5.", "0x1p3", "nan", "-nan", "inf", "-inf", "1e400",
        "-1e400", "1e-400", "-0", "0", "-0.0", " 7 ", "\t-2.5\n", "", " ",
        "-", ".", "-.", "1.2.3", "1e", "--1", "1-", "0.1", "0.3",
        "123456789012345", "1234567890123456", "0.0000000000000000000001",
        "0.00000000000000000000001", "999999999999999.9",
        "4.9406564584124654e-324", "00000000000000000000000000012.5",
        "9007199254740993", "1,5", "5f"}) {
    ExpectParseDoubleMatchesStrtod(text);
  }
  // Seeded corpus: 1-20 digits with an optional sign, point and exponent.
  Rng rng(2024);
  for (int n = 0; n < 200000; ++n) {
    std::string text;
    if (rng.Chance(0.1)) text += ' ';
    if (rng.Chance(0.3)) text += rng.Chance(0.8) ? '-' : '+';
    const int digits = static_cast<int>(rng.Uniform(1, 20));
    const int point = rng.Chance(0.6) ? static_cast<int>(rng.Uniform(0, digits))
                                      : -1;
    for (int d = 0; d < digits; ++d) {
      if (d == point) text += '.';
      // Leading zeros and long zero runs now and then.
      text += rng.Chance(0.2) ? '0' : static_cast<char>('0' + rng.Uniform(0, 9));
    }
    if (point == digits) text += '.';
    if (rng.Chance(0.15)) {
      text += rng.Chance(0.5) ? 'e' : 'E';
      if (rng.Chance(0.4)) text += '-';
      text += std::to_string(rng.Uniform(0, 330));
    }
    if (rng.Chance(0.1)) text += ' ';
    ExpectParseDoubleMatchesStrtod(text);
  }
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitWhitespaceDropsRuns) {
  auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitNLimitsFields) {
  auto parts = SplitN("k=v=w", '=', 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "k");
  EXPECT_EQ(parts[1], "v=w");
}

TEST(StringsTest, TrimAndJoin) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StartsWith("sensor.cpu", "sensor."));
  EXPECT_FALSE(StartsWith("cpu", "sensor."));
  EXPECT_TRUE(EndsWith("foo.log", ".log"));
  EXPECT_TRUE(EqualsIgnoreCase("LDAP", "ldap"));
  EXPECT_FALSE(EqualsIgnoreCase("LDAP", "ldaps"));
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("4x2").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_FALSE(ParseDouble("3.5z").ok());
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("cpu.*", "cpu.load"));
  EXPECT_FALSE(GlobMatch("cpu.*", "mem.free"));
  EXPECT_TRUE(GlobMatch("dpss?.lbl.gov", "dpss1.lbl.gov"));
  EXPECT_FALSE(GlobMatch("dpss?.lbl.gov", "dpss12.lbl.gov"));
  EXPECT_TRUE(GlobMatch("*retrans*", "tcp_retransmits"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
}

// ---------------------------------------------------------------- Config

TEST(ConfigTest, ParsesSectionsAndTypes) {
  auto config = Config::ParseString(R"(
# sensor manager config
[sensor]
name = vmstat
interval_ms = 1000
enabled = true
threshold = 0.5

[sensor]
name = netstat
ports = 21, 80, 8080
)");
  ASSERT_TRUE(config.ok());
  auto sensors = config->SectionsNamed("sensor");
  ASSERT_EQ(sensors.size(), 2u);
  EXPECT_EQ(sensors[0]->GetString("name"), "vmstat");
  EXPECT_EQ(sensors[0]->GetInt("interval_ms"), 1000);
  EXPECT_TRUE(sensors[0]->GetBool("enabled"));
  EXPECT_DOUBLE_EQ(sensors[0]->GetDouble("threshold"), 0.5);
  auto ports = sensors[1]->GetList("ports");
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0], "21");
  EXPECT_EQ(ports[2], "8080");
}

TEST(ConfigTest, GlobalSectionBeforeHeaders) {
  auto config = Config::ParseString("refresh_s = 120\n[a]\nk = v\n");
  ASSERT_TRUE(config.ok());
  const ConfigSection* global = config->FindSection("");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->GetInt("refresh_s"), 120);
}

TEST(ConfigTest, DefaultsWhenMissing) {
  auto config = Config::ParseString("[s]\nk = v\n");
  ASSERT_TRUE(config.ok());
  const ConfigSection* s = config->FindSection("s");
  EXPECT_EQ(s->GetString("absent", "dflt"), "dflt");
  EXPECT_EQ(s->GetInt("absent", 9), 9);
  EXPECT_TRUE(s->GetBool("absent", true));
  EXPECT_FALSE(config->FindSection("nope"));
}

TEST(ConfigTest, RejectsMalformed) {
  EXPECT_FALSE(Config::ParseString("[unclosed\nk=v").ok());
  EXPECT_FALSE(Config::ParseString("[s]\nno_equals_here").ok());
  EXPECT_FALSE(Config::ParseString("[s]\n= value").ok());
}

TEST(ConfigTest, RoundTripsThroughToString) {
  auto config = Config::ParseString("[s]\na = 1\nb = two\n");
  ASSERT_TRUE(config.ok());
  auto again = Config::ParseString(config->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->FindSection("s")->GetString("b"), "two");
}

TEST(ConfigTest, LoadFileMissing) {
  EXPECT_FALSE(Config::LoadFile("/nonexistent/path.conf").ok());
}

// -------------------------------------------------------------------- Id

TEST(IdTest, MonotonicAndPrefixed) {
  auto a = NextId();
  auto b = NextId();
  EXPECT_GT(b, a);
  auto id = MakeId("sub");
  EXPECT_TRUE(StartsWith(id, "sub-"));
}

}  // namespace
}  // namespace jamm
