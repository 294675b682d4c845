// Federation tests (ISSUE 6): republisher merge/dedup/ordering, the
// depth-3 pushdown acceptance path, local-eval fallback equivalence,
// summary merge, group lifecycle, directory topology discovery, and the
// overview monitor at the top of a tree.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "common/config.hpp"
#include "consumers/archiver.hpp"
#include "consumers/overview_monitor.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "federation/republisher.hpp"
#include "federation/topology.hpp"
#include "common/rng.hpp"
#include "gateway/filter.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "manager/sensor_manager.hpp"
#include "security/akenti.hpp"
#include "security/certificate.hpp"
#include "security/token.hpp"
#include "sysmon/simhost.hpp"
#include "telemetry/trace.hpp"
#include "transport/inproc.hpp"
#include "ulm/record.hpp"
#include "record_helpers.hpp"

namespace jamm::federation {
namespace {

ulm::Record ValueEvent(TimePoint ts, const std::string& event, double value,
                       const std::string& host = "h1",
                       const std::string& prog = "sensor") {
  ulm::Record rec(ts, host, prog, "Usage", event);
  rec.SetField("VAL", value);
  return rec;
}

gateway::FilterSpec CpuGlobSpec() {
  auto spec = gateway::FilterSpec::Parse("all|CPU*");
  EXPECT_TRUE(spec.ok());
  return *spec;
}

/// A downstream child dialed on `net` by its own name.
RepublisherGateway::DownstreamSpec Child(transport::InProcNetwork& net,
                                         const std::string& name,
                                         bool supports_pushdown = true) {
  RepublisherGateway::DownstreamSpec spec;
  spec.name = name;
  spec.dialer = [&net, name] { return net.Dial(name); };
  spec.supports_pushdown = supports_pushdown;
  return spec;
}

// -------------------------------------------------------------- deduper

StreamDeduper::Verdict Admit(StreamDeduper& dedup, const ulm::Record& rec) {
  return dedup.Admit(ulm::FlatRecord::FromRecord(rec).View());
}

TEST(StreamDeduperTest, AdmitsDuplicatesAndStaleExactly) {
  StreamDeduper dedup;
  const ulm::Record a = ValueEvent(5 * kSecond, "CPU", 10);
  EXPECT_EQ(Admit(dedup, a), StreamDeduper::Verdict::kAdmit);
  // Exact duplicate at the same timestamp: dropped.
  EXPECT_EQ(Admit(dedup, a), StreamDeduper::Verdict::kDuplicate);
  // Same timestamp, different payload: legal, admitted.
  EXPECT_EQ(Admit(dedup, ValueEvent(5 * kSecond, "CPU", 11)),
            StreamDeduper::Verdict::kAdmit);
  // Time travel within the source: stale.
  EXPECT_EQ(Admit(dedup, ValueEvent(3 * kSecond, "CPU", 9)),
            StreamDeduper::Verdict::kStale);
  // Progress re-arms the source.
  EXPECT_EQ(Admit(dedup, ValueEvent(6 * kSecond, "CPU", 12)),
            StreamDeduper::Verdict::kAdmit);
  // Other sources are independent.
  EXPECT_EQ(Admit(dedup, ValueEvent(1 * kSecond, "CPU", 1, "h2")),
            StreamDeduper::Verdict::kAdmit);
  EXPECT_EQ(dedup.source_count(), 2u);
}

// Regression: the source key used to join host, prog and event with an
// unescaped '|', so host "a|b"/prog "c" and host "a"/prog "b|c" shared one
// source state and the second source's older record was dropped as stale.
TEST(StreamDeduperTest, PipesInNamesDoNotMergeSources) {
  StreamDeduper dedup;
  EXPECT_EQ(Admit(dedup, ValueEvent(20 * kSecond, "CPU", 1, "a|b", "c")),
            StreamDeduper::Verdict::kAdmit);
  EXPECT_EQ(Admit(dedup, ValueEvent(10 * kSecond, "CPU", 2, "a", "b|c")),
            StreamDeduper::Verdict::kAdmit);
  EXPECT_EQ(dedup.source_count(), 2u);
}

/// The deduper's specification, rendered literally: per (host, prog,
/// event) source, a record below the newest timestamp is stale, and one at
/// the newest timestamp is a duplicate iff the same ULM ASCII line was
/// already admitted at that timestamp.
class AsciiReferenceDeduper {
 public:
  StreamDeduper::Verdict Admit(const ulm::RecordView& view) {
    State& state = sources_[{std::string(view.host()),
                             std::string(view.prog()),
                             std::string(view.event_name())}];
    if (state.has_last && view.timestamp() < state.last_ts) {
      return StreamDeduper::Verdict::kStale;
    }
    const std::string ascii = view.ToAscii();
    if (!state.has_last || view.timestamp() != state.last_ts) {
      state = State{true, view.timestamp(), {}};
    }
    return state.lines.insert(ascii).second
               ? StreamDeduper::Verdict::kAdmit
               : StreamDeduper::Verdict::kDuplicate;
  }

 private:
  struct State {
    bool has_last = false;
    TimePoint last_ts = 0;
    std::set<std::string> lines;
  };
  std::map<std::array<std::string, 3>, State> sources_;
};

/// Rebuild a record from (key, value) pairs, keeping everything else.
ulm::FlatRecord WithFields(
    const ulm::RecordView& base,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  ulm::FlatRecord out(base.timestamp(), base.host(), base.prog(), base.lvl(),
                      base.event_name());
  for (const auto& [key, value] : fields) {
    out.AddFieldUnchecked(ulm::InternSymbol(key), value);
  }
  return out;
}

// Property: the structural hash gives the verdict the ASCII comparison
// gives, on a seeded stream rich in near-duplicates — same-timestamp
// records that differ in exactly one value byte, in lvl, in one field
// key, in field order, or by one extra empty field — plus exact repeats
// and time travel. Values draw on the characters ULM quotes and escapes.
TEST(StreamDeduperTest, StructuralHashMatchesAsciiReference) {
  enum Kind { kFresh, kRepeat, kByte, kLvl, kKey, kOrder, kEmpty, kKinds };
  const std::string alphabet = "ab= \"\\\n";
  const char* kKeys[] = {"VAL", "ID", "X.Y", "Z"};
  const char* kLvls[] = {"Usage", "Warning", "Error"};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    StreamDeduper dedup;
    AsciiReferenceDeduper reference;
    std::vector<ulm::FlatRecord> recent;
    int kinds[kKinds] = {};
    int verdicts[3] = {};
    TimePoint clock = 100;
    auto pick = [&](const auto& options) {
      return options[rng.Uniform(0, std::size(options) - 1)];
    };
    auto random_value = [&] {
      std::string v;
      for (int n = static_cast<int>(rng.Uniform(1, 5)); n > 0; --n) {
        v += alphabet[rng.Uniform(0, alphabet.size() - 1)];
      }
      return v;
    };
    for (int step = 0; step < 4000; ++step) {
      const Kind kind = recent.empty()
                            ? kFresh
                            : static_cast<Kind>(rng.Uniform(0, kKinds - 1));
      ++kinds[kind];
      ulm::FlatRecord rec;
      if (kind == kFresh) {
        // Mostly forward, sometimes one tick back in time.
        if (rng.Chance(0.3)) ++clock;
        const TimePoint ts = rng.Chance(0.1) ? clock - 1 : clock;
        rec = ulm::FlatRecord(ts, pick(std::array{"h1", "h2"}), "p",
                              pick(kLvls), pick(std::array{"E1", "E2"}));
        // Two or three distinct keys, so order and key swaps apply.
        const int n = static_cast<int>(rng.Uniform(2, 3));
        for (int k = 0; k < n; ++k) rec.SetField(kKeys[k], random_value());
      } else {
        // Mostly the newest record, whose timestamp is still current.
        const ulm::RecordView base =
            rng.Chance(0.6) ? recent.back().View()
                            : recent[rng.Uniform(0, recent.size() - 1)].View();
        std::vector<std::pair<std::string, std::string>> fields;
        for (std::uint32_t f = 0; f < base.field_count(); ++f) {
          fields.emplace_back(base.field_name(f), base.field_value(f));
        }
        const std::size_t f = rng.Uniform(0, fields.size() - 1);
        switch (kind) {
          case kByte: {
            std::string& v = fields[f].second;
            if (v.empty()) {
              v = "a";  // an empty value's one-byte neighbour
              break;
            }
            char& c = v[rng.Uniform(0, v.size() - 1)];
            c = c == 'a' ? 'b' : 'a';
            break;
          }
          case kKey:
            fields[f].first = "K" + std::to_string(rng.Uniform(0, 1));
            break;
          case kOrder:
            std::swap(fields[0], fields[1]);
            break;
          case kEmpty:
            fields.emplace_back("EMPTY", "");
            break;
          default:
            break;
        }
        rec = WithFields(base, fields);
        if (kind == kLvl) {
          rec.set_lvl(base.lvl() == kLvls[0] ? kLvls[1] : kLvls[0]);
        }
      }
      const StreamDeduper::Verdict want = reference.Admit(rec.View());
      ASSERT_EQ(dedup.Admit(rec.View()), want)
          << "seed " << seed << " step " << step << ": "
          << rec.View().ToAscii();
      ++verdicts[static_cast<int>(want)];
      recent.push_back(std::move(rec));
      if (recent.size() > 4) recent.erase(recent.begin());
    }
    for (int k = 0; k < kKinds; ++k) EXPECT_GT(kinds[k], 0) << "kind " << k;
    for (int v = 0; v < 3; ++v) EXPECT_GT(verdicts[v], 100) << "verdict " << v;
  }
}

// ------------------------------------------- depth-3 pushdown acceptance

// Acceptance (ISSUE 6): a depth-3 tree (host gateway → site republisher →
// region republisher) delivers a leaf-published event to a root
// subscriber with pushdown enabled — and with lazy base streams the leaf
// gateway carries exactly ONE outgoing stream no matter how many root
// subscribers share the spec.
TEST(FederationTest, DepthThreeDeliversLeafEventToRootViaPushdown) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);
  auto leaf_listener = net.Listen("leaf");
  ASSERT_TRUE(leaf_listener.ok());
  gateway::GatewayService leaf_service(leaf, std::move(*leaf_listener));

  RepublisherGateway::Options lazy;
  lazy.lazy_base_stream = true;

  RepublisherGateway site("site", clock, lazy);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf")).ok());
  auto site_listener = net.Listen("site");
  ASSERT_TRUE(site_listener.ok());
  gateway::GatewayService site_service(site, std::move(*site_listener));

  RepublisherGateway region("region", clock, lazy);
  ASSERT_TRUE(region.AddDownstream(Child(net, "site")).ok());

  std::vector<std::string> delivered_a, delivered_b;
  auto sub_a = region.SubscribeEncoded(
      "root-a", CpuGlobSpec(),
      [&](const ulm::EncodedRecord& enc) { delivered_a.push_back(enc.Ascii()); });
  ASSERT_TRUE(sub_a.ok()) << sub_a.status().ToString();
  auto sub_b = region.SubscribeEncoded(
      "root-b", CpuGlobSpec(),
      [&](const ulm::EncodedRecord& enc) { delivered_b.push_back(enc.Ascii()); });
  ASSERT_TRUE(sub_b.ok());
  // Identical specs share one pushdown group.
  EXPECT_EQ(region.pushdown_group_count(), 1u);

  auto tick = [&] {
    leaf_service.PollOnce();
    site.Pump();
    site_service.PollOnce();
    region.Pump();
    clock.Advance(60 * kMillisecond);
  };
  for (int i = 0; i < 4; ++i) tick();  // let subscriptions propagate down

  // The pushdown spec reached the leaf: one stream out of the leaf
  // gateway, regardless of two root subscribers — and no base feeds,
  // because nothing local needs them.
  EXPECT_EQ(leaf.subscription_count(), 1u);
  EXPECT_EQ(site.pushdown_group_count(), 1u);

  test::Publish(leaf, ValueEvent(clock.Now(), "CPU", 42, "host-1"));
  test::Publish(leaf,
                ValueEvent(clock.Now(), "MEM", 7, "host-1"));  // filtered out
  for (int i = 0; i < 6; ++i) tick();

  ASSERT_EQ(delivered_a.size(), 1u);
  ASSERT_EQ(delivered_b.size(), 1u);
  EXPECT_EQ(delivered_a[0], delivered_b[0]);
  EXPECT_NE(delivered_a[0].find("NL.EVNT=CPU"), std::string::npos);
  EXPECT_NE(delivered_a[0].find("HOST=host-1"), std::string::npos);
  // Still one stream out of the leaf after traffic.
  EXPECT_EQ(leaf.subscription_count(), 1u);

  const auto site_stats = site.stats();
  EXPECT_EQ(site_stats.pushdown_records, 1u);
  EXPECT_EQ(site_stats.records_in, site_stats.republished +
                                       site_stats.pushdown_records +
                                       site_stats.duplicates_dropped +
                                       site_stats.stale_dropped);
}

// ------------------------------------- child auth fallback (ISSUE 10)

// A harvested capability token ages out before a new child feed presents
// it: the child refuses the token, and the republisher must fall back to
// its cert bundle instead of replaying the dead token forever (REVIEW
// regression — the feed would otherwise stay anonymous and denied).
TEST(FederationTest, ExpiredChildTokenFallsBackToCertBundle) {
  SimClock clock(kSecond);
  transport::InProcNetwork net;
  Rng rng(7);
  security::CertificateAuthority ca("/O=Grid/CN=CA", rng);
  security::PolicyEngine policy;
  policy.AddUseCondition(
      "leaf", {{security::action::kSubscribe, security::action::kQuery},
               "/O=Grid/CN=site", "", ""});
  security::Authorizer authorizer(policy, {ca.ca_certificate()}, clock);
  Rng authority_rng(8);
  authorizer.EnableTokens(security::TokenAuthority("leaf", authority_rng));

  gateway::EventGateway leaf("leaf", clock);
  leaf.SetAccessChecker(authorizer.GatewayChecker("leaf"));
  auto listener = net.Listen("leaf");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(leaf, std::move(*listener));
  service.SetAuthenticator(
      authorizer.GatewayAuthenticator("leaf", /*token_ttl=*/10 * kSecond));

  security::KeyPair site_keys = security::GenerateKeyPair(rng);
  security::Certificate site_cert =
      ca.IssueIdentity("/O=Grid/CN=site", site_keys.public_key, 0, kHour);

  RepublisherGateway site("site", clock);
  RepublisherGateway::DownstreamSpec spec;
  spec.name = "leaf";
  spec.dialer = [&net] { return net.Dial("leaf"); };
  spec.auth_payload =
      security::MakeCertAuthPayload(site_cert, site_keys.private_key);
  ASSERT_TRUE(site.AddDownstream(std::move(spec)).ok());

  // Base feed comes up under the cert bundle; the minted token is
  // harvested on the next pump.
  site.Pump();         // dial + pipelined auth/subscribe
  service.PollOnce();  // leaf verifies the bundle, mints, accepts
  site.Pump();         // adopts gw.ok replies: token harvested
  clock.Advance(30 * kSecond);  // the harvested token is long dead now

  // A pushdown subscription spawns a NEW child feed, which presents the
  // dead cached token: the leaf refuses it and denies the anonymous
  // subscribe that follows.
  std::vector<std::string> got;
  auto sub = site.SubscribeEncoded(
      "root", CpuGlobSpec(),
      [&](const ulm::EncodedRecord& enc) { got.push_back(enc.Ascii()); });
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  service.PollOnce();  // refuses the token, denies the subscribe
  site.Pump();         // the feed adopts the refusals...
  site.Pump();         // ...and RecoverChildAuth replays the cert bundle
  service.PollOnce();  // fresh cert auth + replayed subscribe accepted

  test::Publish(leaf, ValueEvent(clock.Now(), "CPU_LOAD", 42));
  service.PollOnce();
  clock.Advance(60 * kMillisecond);  // age-flush the partial event batch
  service.PollOnce();
  site.Pump();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("NL.EVNT=CPU_LOAD"), std::string::npos);
}

// ------------------------------------------------- merge / dedup / order

TEST(FederationTest, MergesChildrenTimeOrdered) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::EventGateway leaf_a("leaf-a", clock);
  auto listener_a = net.Listen("leaf-a");
  ASSERT_TRUE(listener_a.ok());
  gateway::GatewayService service_a(leaf_a, std::move(*listener_a));

  gateway::EventGateway leaf_b("leaf-b", clock);
  auto listener_b = net.Listen("leaf-b");
  ASSERT_TRUE(listener_b.ok());
  gateway::GatewayService service_b(leaf_b, std::move(*listener_b));

  RepublisherGateway site("site", clock);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf-a")).ok());
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf-b")).ok());

  std::vector<TimePoint> order;
  auto sub = site.SubscribeEncoded("root", {}, [&](const ulm::EncodedRecord& enc) {
    order.push_back(enc.view().timestamp());
  });
  ASSERT_TRUE(sub.ok());

  site.Pump();  // establish base feeds
  service_a.PollOnce();
  service_b.PollOnce();

  test::Publish(leaf_a, ValueEvent(1 * kSecond, "CPU", 1, "ha"));
  test::Publish(leaf_a, ValueEvent(3 * kSecond, "CPU", 3, "ha"));
  test::Publish(leaf_b, ValueEvent(2 * kSecond, "CPU", 2, "hb"));
  clock.Advance(100 * kMillisecond);
  service_a.PollOnce();  // age-flush partial batches
  service_b.PollOnce();
  site.Pump();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1 * kSecond);
  EXPECT_EQ(order[1], 2 * kSecond);
  EXPECT_EQ(order[2], 3 * kSecond);
}

TEST(FederationTest, DropsDuplicatesAndStaleWithExactAccounting) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);
  auto listener = net.Listen("leaf");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(leaf, std::move(*listener));

  RepublisherGateway site("site", clock);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf")).ok());

  std::size_t delivered = 0;
  auto sub = site.SubscribeEncoded(
      "root", {}, [&](const ulm::EncodedRecord&) { ++delivered; });
  ASSERT_TRUE(sub.ok());
  site.Pump();
  service.PollOnce();

  const ulm::Record rec = ValueEvent(5 * kSecond, "CPU", 10);
  test::Publish(leaf, rec);
  test::Publish(leaf, rec);  // exact duplicate
  clock.Advance(100 * kMillisecond);
  service.PollOnce();
  site.Pump();
  // Out-of-order arrivals WITHIN one pump are repaired by the time-sort;
  // a record older than what already crossed a pump boundary is stale.
  test::Publish(leaf, ValueEvent(3 * kSecond, "CPU", 9));
  clock.Advance(100 * kMillisecond);
  service.PollOnce();
  site.Pump();

  EXPECT_EQ(delivered, 1u);
  const auto stats = site.stats();
  EXPECT_EQ(stats.records_in, 3u);
  EXPECT_EQ(stats.republished, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.stale_dropped, 1u);
  EXPECT_EQ(stats.records_in, stats.republished + stats.pushdown_records +
                                  stats.duplicates_dropped +
                                  stats.stale_dropped);
}

// ------------------------------------------------- local-eval fallback

// A downstream that predates pushdown (supports_pushdown = false) is
// served by evaluating the same spec locally — the subscriber-visible
// stream must be byte-identical to the pushdown path.
TEST(FederationTest, LocalEvalFallbackMatchesPushdownOutput) {
  SimClock clock;
  transport::InProcNetwork net;

  auto build = [&](const std::string& prefix, bool supports_pushdown,
                   gateway::EventGateway& leaf,
                   gateway::GatewayService& service,
                   RepublisherGateway& site) {
    ASSERT_TRUE(
        site.AddDownstream(Child(net, prefix + "-leaf", supports_pushdown))
            .ok());
    (void)leaf;
    (void)service;
  };

  gateway::EventGateway leaf_p("p-leaf", clock);
  auto listener_p = net.Listen("p-leaf");
  ASSERT_TRUE(listener_p.ok());
  gateway::GatewayService service_p(leaf_p, std::move(*listener_p));
  RepublisherGateway site_p("p-site", clock);
  build("p", true, leaf_p, service_p, site_p);

  gateway::EventGateway leaf_f("f-leaf", clock);
  auto listener_f = net.Listen("f-leaf");
  ASSERT_TRUE(listener_f.ok());
  gateway::GatewayService service_f(leaf_f, std::move(*listener_f));
  RepublisherGateway site_f("f-site", clock);
  build("f", false, leaf_f, service_f, site_f);

  auto spec = gateway::FilterSpec::Parse("threshold:50|CPU*");
  ASSERT_TRUE(spec.ok());

  std::vector<std::string> out_p, out_f;
  ASSERT_TRUE(site_p
                  .SubscribeEncoded("c", *spec,
                                    [&](const ulm::EncodedRecord& enc) {
                                      out_p.push_back(enc.Ascii());
                                    })
                  .ok());
  ASSERT_TRUE(site_f
                  .SubscribeEncoded("c", *spec,
                                    [&](const ulm::EncodedRecord& enc) {
                                      out_f.push_back(enc.Ascii());
                                    })
                  .ok());
  // The pushdown stack filters at the leaf; the fallback stack evaluates
  // the group spec against the leaf's base stream.
  site_p.Pump();
  site_f.Pump();
  service_p.PollOnce();
  service_f.PollOnce();

  const double values[] = {10, 60, 55, 40, 80, 80, 45, 51};
  TimePoint ts = kSecond;
  for (double v : values) {
    test::Publish(leaf_p, ValueEvent(ts, "CPU", v));
    test::Publish(leaf_f, ValueEvent(ts, "CPU", v));
    test::Publish(leaf_p, ValueEvent(ts, "MEM", v));  // never matches the glob
    test::Publish(leaf_f, ValueEvent(ts, "MEM", v));
    ts += kSecond;
  }
  for (int i = 0; i < 3; ++i) {
    clock.Advance(100 * kMillisecond);
    service_p.PollOnce();
    service_f.PollOnce();
    site_p.Pump();
    site_f.Pump();
  }

  EXPECT_FALSE(out_p.empty());
  EXPECT_EQ(out_p, out_f);
  EXPECT_GT(site_p.stats().pushdown_records, 0u);
  EXPECT_EQ(site_f.stats().pushdown_records, 0u);  // all served locally
}

// ------------------------------------------------------------- summaries

TEST(FederationTest, SummaryPushdownMergesChildrenWeighted) {
  SimClock clock;
  transport::InProcNetwork net;

  RepublisherGateway::Options options;
  options.summary_fetcher = [](const std::string& child,
                               gateway::GatewayClient&,
                               const std::string& event)
      -> Result<gateway::SummaryData> {
    EXPECT_EQ(event, "CPU");
    gateway::SummaryData data;
    if (child == "leaf-a") {
      data.avg_1m = 10;
      data.count_1m = 3;
    } else {
      data.avg_1m = 50;
      data.count_1m = 1;
    }
    return data;
  };
  RepublisherGateway site("site", clock, options);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf-a")).ok());
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf-b")).ok());

  auto merged = site.GetSummary("CPU");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->count_1m, 4u);
  EXPECT_DOUBLE_EQ(merged->avg_1m, (10 * 3 + 50 * 1) / 4.0);  // weighted
  EXPECT_EQ(site.stats().summary_merges, 1u);
}

TEST(FederationTest, SummaryFallsBackToLocalWindowOnChildFailure) {
  SimClock clock(kMinute);
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);
  auto listener = net.Listen("leaf");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(leaf, std::move(*listener));

  RepublisherGateway::Options options;
  options.summary_fetcher = [](const std::string&, gateway::GatewayClient&,
                               const std::string&)
      -> Result<gateway::SummaryData> {
    return Status::Unavailable("child predates gw.summary");
  };
  RepublisherGateway site("site", clock, options);
  site.EnableSummary("CPU");
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf")).ok());

  // Local windows fill from the merged base stream.
  site.Pump();
  service.PollOnce();
  test::Publish(leaf, ValueEvent(clock.Now(), "CPU", 30));
  test::Publish(leaf, ValueEvent(clock.Now(), "CPU", 50));
  clock.Advance(100 * kMillisecond);
  service.PollOnce();
  site.Pump();

  auto summary = site.GetSummary("CPU");
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->count_1m, 2u);
  EXPECT_DOUBLE_EQ(summary->avg_1m, 40);
  EXPECT_EQ(site.stats().summary_fallbacks, 1u);
}

// ------------------------------------------------------ group lifecycle

TEST(FederationTest, LastUnsubscribeTearsDownGroupAndLeafStream) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);
  auto listener = net.Listen("leaf");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(leaf, std::move(*listener));

  RepublisherGateway::Options lazy;
  lazy.lazy_base_stream = true;
  RepublisherGateway site("site", clock, lazy);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf")).ok());

  auto sub_a = site.SubscribeEncoded("a", CpuGlobSpec(),
                                     [](const ulm::EncodedRecord&) {});
  auto sub_b = site.SubscribeEncoded("b", CpuGlobSpec(),
                                     [](const ulm::EncodedRecord&) {});
  ASSERT_TRUE(sub_a.ok());
  ASSERT_TRUE(sub_b.ok());
  EXPECT_EQ(site.pushdown_group_count(), 1u);
  site.Pump();
  service.PollOnce();
  EXPECT_EQ(leaf.subscription_count(), 1u);

  EXPECT_TRUE(site.Unsubscribe(*sub_a).ok());
  EXPECT_EQ(site.pushdown_group_count(), 1u);  // b still live
  EXPECT_TRUE(site.Unsubscribe(*sub_b).ok());
  EXPECT_EQ(site.pushdown_group_count(), 0u);
  // Destroying the feed closed its channel; the leaf's service drops the
  // connection — and the subscription — on its next poll.
  service.PollOnce();
  EXPECT_EQ(leaf.subscription_count(), 0u);
  // Unknown ids are rejected, not swallowed.
  EXPECT_FALSE(site.Unsubscribe(*sub_a).ok());
}

// --------------------------------------------------------------- topology

TEST(FederationTopologyTest, RegistersDiscoversAndFindsNearestCover) {
  auto suffix = directory::Dn::Parse("o=grid");
  ASSERT_TRUE(suffix.ok());
  auto server =
      std::make_shared<directory::DirectoryServer>(*suffix, "ldap://d1");
  directory::DirectoryPool pool;
  pool.AddServer(server);
  FederationTopology topology(pool, *suffix);

  ASSERT_TRUE(
      topology.RegisterLevel({"leaf-a", "inproc:leaf-a", 0, {}}).ok());
  ASSERT_TRUE(
      topology.RegisterLevel({"leaf-b", "inproc:leaf-b", 0, {}}).ok());
  ASSERT_TRUE(
      topology.RegisterLevel({"leaf-c", "inproc:leaf-c", 0, {}}).ok());
  ASSERT_TRUE(topology
                  .RegisterLevel(
                      {"site-1", "inproc:site-1", 1, {"leaf-a", "leaf-b"}})
                  .ok());
  ASSERT_TRUE(
      topology.RegisterLevel({"site-2", "inproc:site-2", 1, {"leaf-c"}})
          .ok());
  ASSERT_TRUE(topology
                  .RegisterLevel(
                      {"region", "inproc:region", 2, {"site-1", "site-2"}})
                  .ok());

  auto levels = topology.Levels();
  ASSERT_TRUE(levels.ok());
  ASSERT_EQ(levels->size(), 6u);
  EXPECT_EQ(levels->front().tier, 0);   // tier-ascending
  EXPECT_EQ(levels->back().name, "region");

  auto root = topology.Root();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name, "region");
  EXPECT_EQ(root->address, "inproc:region");

  // Both leaves under one site: subscribe at the site, not the root.
  auto near = topology.NearestCovering({"leaf-a", "leaf-b"});
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->name, "site-1");
  // Leaves split across sites: only the region covers them.
  near = topology.NearestCovering({"leaf-a", "leaf-c"});
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->name, "region");
  // A single leaf is covered by itself.
  near = topology.NearestCovering({"leaf-c"});
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->name, "leaf-c");
  // Unknown leaf: nothing covers it.
  EXPECT_EQ(topology.NearestCovering({"leaf-x"}).status().code(),
            StatusCode::kNotFound);

  // The published entries carry the schema attributes.
  auto entry = pool.Lookup(directory::schema::FederationDn(*suffix, "site-1"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrObjectClass),
            directory::schema::kFederationClass);
  EXPECT_EQ(entry->Get(directory::schema::kAttrTier), "1");
  EXPECT_EQ(entry->Get(directory::schema::kAttrChildren), "leaf-a,leaf-b");
}

// ------------------------------------------------ overview monitor atop

// The paper's overview consumer ("page the admin only if both the primary
// and backup are down") sits at the top of the tree: one remote feed from
// the root level sees every host, and the filter spec pushes down to the
// leaf.
TEST(FederationTest, OverviewMonitorEvaluatesMultiHostRuleAtRoot) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);
  auto leaf_listener = net.Listen("leaf");
  ASSERT_TRUE(leaf_listener.ok());
  gateway::GatewayService leaf_service(leaf, std::move(*leaf_listener));

  RepublisherGateway::Options lazy;
  lazy.lazy_base_stream = true;
  RepublisherGateway root("root", clock, lazy);
  ASSERT_TRUE(root.AddDownstream(Child(net, "leaf")).ok());
  auto root_listener = net.Listen("root");
  ASSERT_TRUE(root_listener.ok());
  gateway::GatewayService root_service(root, std::move(*root_listener));

  consumers::OverviewMonitor monitor("pager");
  monitor.PublishAlertsTo(root);
  auto above_90 = [](const ulm::RecordView& rec) {
    auto value = rec.GetDouble(ulm::InternSymbol("VAL"));
    return value.ok() && *value > 90;
  };
  monitor.AddRule("both-hot",
                  {{"primary", "CPU", above_90}, {"backup", "CPU", above_90}},
                  nullptr);
  ASSERT_TRUE(monitor
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("root"); }),
                                CpuGlobSpec())
                  .ok());

  // The alert stream is consumable like any other event in the tree.
  std::size_t alerts = 0;
  auto alert_sub = root.SubscribeEncoded(
      "ops", {}, [&](const ulm::EncodedRecord& enc) {
        if (enc.view().event_name() == consumers::kOverviewAlertEvent) {
          EXPECT_EQ(enc.view().GetField("RULE"), "both-hot");
          ++alerts;
        }
      });
  ASSERT_TRUE(alert_sub.ok());

  auto tick = [&] {
    leaf_service.PollOnce();
    root.Pump();
    root_service.PollOnce();
    monitor.Pump();
    clock.Advance(60 * kMillisecond);
  };
  for (int i = 0; i < 4; ++i) tick();

  test::Publish(leaf, ValueEvent(clock.Now(), "CPU", 95, "primary"));
  for (int i = 0; i < 4; ++i) tick();
  EXPECT_EQ(monitor.fires("both-hot"), 0u);  // only one host is hot

  test::Publish(leaf, ValueEvent(clock.Now(), "CPU", 97, "backup"));
  for (int i = 0; i < 4; ++i) tick();
  EXPECT_EQ(monitor.fires("both-hot"), 1u);
  EXPECT_EQ(alerts, 1u);
}


// A local-eval group sees a record exactly as received: the republisher's
// own publish stamps HOP.GATEWAY in place, so fallback delivery runs first.
// Leaf and republisher run on different clocks, so a restamp would show in
// the delivered bytes.
TEST(FederationTest, TracedLocalEvalMatchesPushdownBytes) {
  auto deliver = [](bool supports_pushdown) {
    SimClock leaf_clock(10 * kSecond);
    SimClock fed_clock(99 * kSecond);
    transport::InProcNetwork net;
    gateway::EventGateway leaf("leaf", leaf_clock);
    auto listener = net.Listen("leaf");
    EXPECT_TRUE(listener.ok());
    gateway::GatewayService leaf_service(leaf, std::move(*listener));
    RepublisherGateway site("site", fed_clock);
    EXPECT_TRUE(
        site.AddDownstream(Child(net, "leaf", supports_pushdown)).ok());
    std::vector<std::string> got;
    EXPECT_TRUE(site.SubscribeEncoded("c", CpuGlobSpec(),
                                      [&](const ulm::EncodedRecord& enc) {
                                        got.push_back(enc.Ascii());
                                      })
                    .ok());
    auto tick = [&] {
      leaf_service.PollOnce();
      site.Pump();
      leaf_clock.Advance(60 * kMillisecond);
    };
    for (int i = 0; i < 4; ++i) tick();
    ulm::FlatRecord rec(leaf_clock.Now(), "h1", "sensor", "Usage", "CPU");
    rec.SetField("VAL", 42.0);
    telemetry::Inject(telemetry::TraceContext{0x1234, 0x5678, 0}, rec);
    telemetry::StampHop(rec, "sensor", leaf_clock.Now());
    leaf.Publish(rec);
    for (int i = 0; i < 4; ++i) tick();
    return got;
  };
  const std::vector<std::string> pushed = deliver(true);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_NE(pushed[0].find("HOP.GATEWAY="), std::string::npos);
  EXPECT_EQ(deliver(false), pushed);
}

// ------------------------------------------------------ end-to-end digest

constexpr char kDigestSensors[] = R"([sensor]
name = iostat
kind = iostat
interval_ms = 1000
mode = always

[sensor]
name = netstat
kind = netstat
interval_ms = 1000
mode = always

[sensor]
name = vmstat
kind = vmstat
interval_ms = 1000
mode = always
)";

/// FNV-1a over every record's ASCII line, with the trace ids (seeded from
/// the wall clock) masked.
std::string MaskedDigest(const std::vector<ulm::Record>& records) {
  std::uint64_t hash = 1469598103934665603ull;
  for (ulm::Record rec : records) {
    for (const char* key : {"TRACE.ID", "SPAN.ID", "SPAN.PARENT"}) {
      if (rec.HasField(key)) rec.SetField(key, "*");
    }
    for (unsigned char c : test::Ascii(rec) + "\n") {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  }
  return telemetry::IdToHex(hash);
}

// A seeded run through sensor manager → leaf gateway + batched service →
// two republisher tiers → ArchiverAgent, archived over both the remote
// (wire) path and the local (in-process) path. The digest pins every
// archived byte against the Record-bridged pipeline this one replaced: the
// constant was computed by this same test on that code.
TEST(FederationArchiveDigestTest, ManagerToArchiveThroughTwoTiersIsPinned) {
  SimClock clock(1000 * kSecond);
  transport::InProcNetwork net;
  sysmon::SimHost host("dpss1.lbl.gov", clock, /*seed=*/7);
  host.SetBaseLoad(30, 5);

  gateway::EventGateway leaf("leaf", clock);
  auto leaf_listener = net.Listen("leaf");
  ASSERT_TRUE(leaf_listener.ok());
  gateway::GatewayService leaf_service(leaf, std::move(*leaf_listener));
  manager::SensorManager::Options mo;
  mo.clock = &clock;
  mo.host = &host;
  mo.gateway = &leaf;
  mo.config_refresh = 0;
  manager::SensorManager manager(std::move(mo));
  auto config = Config::ParseString(kDigestSensors);
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(manager.ApplyConfig(*config).ok());

  RepublisherGateway::Options ro;
  ro.batch_records = 8;
  RepublisherGateway site("site", clock, ro);
  ASSERT_TRUE(site.AddDownstream(Child(net, "leaf")).ok());
  auto site_listener = net.Listen("site");
  ASSERT_TRUE(site_listener.ok());
  gateway::GatewayService site_service(site, std::move(*site_listener));
  RepublisherGateway root("root", clock, ro);
  ASSERT_TRUE(root.AddDownstream(Child(net, "site")).ok());
  auto root_listener = net.Listen("root");
  ASSERT_TRUE(root_listener.ok());
  gateway::GatewayService root_service(root, std::move(*root_listener));

  archive::EventArchive archive("digest");
  consumers::ArchiverAgent remote("remote", archive, "", &clock);
  ASSERT_TRUE(remote
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("root"); }),
                                {}, 8)
                  .ok());
  consumers::ArchiverAgent local("local", archive, "", &clock);
  ASSERT_TRUE(local.SubscribeTo(root.local()).ok());

  auto pump = [&] {
    leaf_service.PollOnce();
    site.Pump();
    site_service.PollOnce();
    root.Pump();
    root_service.PollOnce();
    remote.PumpRemote();
  };
  Rng rng(11);
  for (int s = 0; s < 40; ++s) {
    host.AddDiskIo(rng.Uniform(0, 4096), rng.Uniform(0, 2048));
    if (rng.Chance(0.3)) host.AddTcpRetransmits(rng.Uniform(1, 9));
    manager.Tick();
    pump();
    clock.Advance(kSecond);
  }
  for (int i = 0; i < 4; ++i) {
    pump();
    clock.Advance(kSecond);
  }

  const auto records = archive.QueryRange(0, clock.Now() + kHour);
  EXPECT_GT(records.size(), 400u);
  EXPECT_EQ(MaskedDigest(test::ToRecords(records)), "0412aa41589654b4");
}

}  // namespace
}  // namespace jamm::federation
