// Fuzz-style corpus tests for the text parsers that read strings off the
// wire: the arch.query analysis predicate (ParseAnalysisSpec), the
// gw.subscribe filter and overflow policy (gateway::FilterSpec::Parse,
// ParseOverflowPolicy), and the directory's search filters and DNs
// (directory::Filter::Parse, Dn::Parse). Mutations of valid inputs plus
// raw garbage must parse or return an error — never crash, hang or throw —
// and whatever a parser accepts must print back to text it accepts again
// with the same meaning (every accepted AnalysisSpec survives an
// EncodeAnalysisSpec round trip).
//
// Deterministic Rng instead of a coverage-guided fuzzer, as in
// ulm_fuzz_test and archive_fuzz_test: a seeded corpus pins the same
// invariants reproducibly.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "archive/analysis.hpp"
#include "common/rng.hpp"
#include "directory/dn.hpp"
#include "directory/filter.hpp"
#include "gateway/filter.hpp"
#include "gateway/service.hpp"

namespace jamm {
namespace {

constexpr int kRounds = 20000;

/// Bytes that matter to at least one grammar, then anything at all.
char RandomByte(Rng& rng) {
  static constexpr std::string_view kSyntax = "=,|:()&!*<> .-+0123456789eE";
  if (rng.Chance(0.6)) {
    return kSyntax[static_cast<std::size_t>(
        rng.Uniform(0, static_cast<std::int64_t>(kSyntax.size()) - 1))];
  }
  return static_cast<char>(rng.Uniform(0, 255));
}

/// One to four byte-level edits of a seed (replace, insert, delete,
/// duplicate a slice, splice in part of another seed), or pure garbage.
std::string Mutant(Rng& rng, const std::vector<std::string>& seeds) {
  if (rng.Chance(0.1)) {
    std::string garbage;
    const int len = static_cast<int>(rng.Uniform(0, 64));
    for (int i = 0; i < len; ++i) garbage += RandomByte(rng);
    return garbage;
  }
  auto pick = [&]() -> const std::string& {
    return seeds[static_cast<std::size_t>(
        rng.Uniform(0, static_cast<std::int64_t>(seeds.size()) - 1))];
  };
  std::string s = pick();
  const int edits = static_cast<int>(rng.Uniform(1, 4));
  for (int e = 0; e < edits; ++e) {
    auto at = [&](std::size_t extra) {
      return static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(s.size() + extra) - 1));
    };
    switch (rng.Uniform(0, 4)) {
      case 0:
        if (!s.empty()) s[at(0)] = RandomByte(rng);
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at(1)),
                 RandomByte(rng));
        break;
      case 2:
        if (!s.empty()) s.erase(at(0), 1);
        break;
      case 3:
        if (!s.empty()) {
          const std::size_t from = at(0);
          s.insert(at(1), s.substr(from, static_cast<std::size_t>(
                                             rng.Uniform(1, 8))));
        }
        break;
      default: {
        const std::string& other = pick();
        const std::size_t from = static_cast<std::size_t>(
            rng.Uniform(0, static_cast<std::int64_t>(other.size())));
        s.insert(at(1), other.substr(from));
        break;
      }
    }
  }
  return s;
}

TEST(ParserFuzzTest, AnalysisSpecAcceptsOrErrorsAndRoundTrips) {
  const std::vector<std::string> seeds = {
      "",
      "event=REQ.* host=host1",
      "field=VAL bucket=250000 pct=50",
      "id=TRACE.ID,SPAN.PARENT event=HOP_*",
      "event=a host=b field=c id=d,e bucket=1 pct=0",
      "pct=100 bucket=9223372036854775807",
  };
  Rng rng(0xA11A5);
  std::size_t accepted = 0, rejected = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string input = Mutant(rng, seeds);
    const auto spec = archive::ParseAnalysisSpec(input);
    if (!spec.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string encoded = archive::EncodeAnalysisSpec(*spec);
    const auto again = archive::ParseAnalysisSpec(encoded);
    ASSERT_TRUE(again.ok()) << "input '" << input << "' encoded as '"
                            << encoded << "'";
    EXPECT_EQ(again->event_glob, spec->event_glob);
    EXPECT_EQ(again->host, spec->host);
    EXPECT_EQ(again->value_field, spec->value_field);
    EXPECT_EQ(again->id_fields, spec->id_fields);
    EXPECT_EQ(again->bucket, spec->bucket);
    EXPECT_EQ(again->percentile, spec->percentile);
    EXPECT_EQ(archive::EncodeAnalysisSpec(*again), encoded);
  }
  // The corpus reaches both verdicts often.
  EXPECT_GT(accepted, kRounds / 10u);
  EXPECT_GT(rejected, kRounds / 10u);
}

TEST(ParserFuzzTest, SubscribeFilterAndOverflowPolicyAcceptOrError) {
  const std::vector<std::string> seeds = {
      "all",
      "on-change|NETSTAT_RETRANS|VAL",
      "threshold:50|VMSTAT_SYS_TIME",
      "delta:20|VMSTAT_*|LOAD",
      "threshold:-1.5e3||X",
      "threshold:1234567.25|CPU",
      "delta:0.1",
  };
  Rng rng(0x5B5C);
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string input = Mutant(rng, seeds);
    const auto spec = gateway::FilterSpec::Parse(input);
    if (!spec.ok()) continue;
    ++accepted;
    const auto again = gateway::FilterSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok()) << "input '" << input << "' printed as '"
                            << spec->ToString() << "'";
    EXPECT_EQ(again->mode, spec->mode);
    EXPECT_EQ(again->event_glob, spec->event_glob);
    EXPECT_EQ(again->value_field, spec->value_field);
    // The printed line is what a client sends the gateway, so the numbers
    // must come back exactly.
    for (const auto& [got, want] :
         {std::pair{again->threshold, spec->threshold},
          std::pair{again->delta_percent, spec->delta_percent}}) {
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << input;
      } else {
        EXPECT_EQ(got, want) << input;
      }
    }
  }
  EXPECT_GT(accepted, kRounds / 10u);

  const std::vector<std::string> policies = {"drop-oldest", "drop-newest",
                                             "disconnect"};
  std::size_t policies_accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string input = Mutant(rng, policies);
    const auto policy = gateway::ParseOverflowPolicy(input);
    if (!policy.ok()) continue;
    ++policies_accepted;
    EXPECT_EQ(gateway::OverflowPolicyName(*policy), input);
  }
  EXPECT_GT(policies_accepted, 0u);
}

TEST(ParserFuzzTest, DirectoryFilterAndDnAcceptOrErrorAndReprint) {
  const std::vector<std::string> filters = {
      "(objectclass=jammSensor)",
      "(&(objectclass=jammSensor)(host=dpss*))",
      "(|(status=running)(!(freq>=1000)))",
      "(&(a=*)(b<=5)(|(c=x)(d=y*z)))",
  };
  Rng rng(0xD1F1);
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string input = Mutant(rng, filters);
    const auto filter = directory::Filter::Parse(input);
    if (!filter.ok()) continue;
    ++accepted;
    const std::string printed = filter->ToString();
    const auto again = directory::Filter::Parse(printed);
    ASSERT_TRUE(again.ok()) << "input '" << input << "' printed as '"
                            << printed << "'";
    EXPECT_EQ(again->ToString(), printed);
  }
  EXPECT_GT(accepted, kRounds / 10u);

  const std::vector<std::string> dns = {
      "ou=sensors, o=jamm",
      "sensor=vmstat, host=dpss1.lbl.gov, ou=sensors, o=jamm",
      "cn=summary-net.rtt.s, host=h, site=anl, ou=sensors, o=jamm",
  };
  std::size_t dns_accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string input = Mutant(rng, dns);
    const auto dn = directory::Dn::Parse(input);
    if (!dn.ok()) continue;
    ++dns_accepted;
    const std::string printed = dn->ToString();
    const auto again = directory::Dn::Parse(printed);
    ASSERT_TRUE(again.ok()) << "input '" << input << "' printed as '"
                            << printed << "'";
    EXPECT_EQ(again->ToString(), printed);
  }
  EXPECT_GT(dns_accepted, kRounds / 10u);
}

TEST(ParserFuzzTest, DeeplyNestedFilterIsAnErrorNotAStackOverflow) {
  // A search filter is client text: nesting deep enough to exhaust the
  // stack of a recursive parser must come back as an error.
  for (const std::string_view op : {"!", "&", "|"}) {
    std::string deep;
    constexpr int kDepth = 200000;
    for (int i = 0; i < kDepth; ++i) {
      deep += '(';
      deep += op;
    }
    deep += "(a=1)";
    deep.append(kDepth, ')');
    EXPECT_FALSE(directory::Filter::Parse(deep).ok()) << op;
  }
  // Nesting an operator would plausibly write still parses.
  EXPECT_TRUE(
      directory::Filter::Parse("(&(|(!(&(a=1)(b=2)))(c=3))(!(d=*)))").ok());
}

}  // namespace
}  // namespace jamm
