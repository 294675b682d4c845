// Tests for the event gateway: filter spec parsing, the four filter modes
// (including the paper's literal examples — retransmit counter on-change,
// CPU > 50%, load changes by 20%), summary windows, pub/sub fan-out,
// query mode, access control, and the remote service protocol over both
// transports.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "gateway/filter.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "telemetry/metrics.hpp"
#include "transport/inproc.hpp"
#include "transport/net_sink.hpp"
#include "transport/tcp.hpp"
#include "record_helpers.hpp"
#include "ulm_reference.hpp"

namespace jamm::gateway {
namespace {

ulm::FlatRecord ValueEvent(TimePoint ts, const std::string& event,
                           double value, const std::string& host = "h1",
                           const std::string& prog = "sensor") {
  ulm::FlatRecord rec(ts, host, prog, "Usage", event);
  rec.SetField("VAL", value);
  return rec;
}

// -------------------------------------------------------------- FilterSpec

TEST(FilterSpecTest, ParseAllForms) {
  auto all = FilterSpec::Parse("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->mode, FilterSpec::Mode::kAll);

  auto change = FilterSpec::Parse("on-change|NETSTAT_RETRANS");
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(change->mode, FilterSpec::Mode::kOnChange);
  EXPECT_EQ(change->event_glob, "NETSTAT_RETRANS");

  auto thresh = FilterSpec::Parse("threshold:50|VMSTAT_SYS_TIME|VAL");
  ASSERT_TRUE(thresh.ok());
  EXPECT_EQ(thresh->mode, FilterSpec::Mode::kThreshold);
  EXPECT_DOUBLE_EQ(thresh->threshold, 50);

  auto delta = FilterSpec::Parse("delta:20");
  ASSERT_TRUE(delta.ok());
  EXPECT_DOUBLE_EQ(delta->delta_percent, 20);
}

TEST(FilterSpecTest, ParseRejectsBad) {
  EXPECT_FALSE(FilterSpec::Parse("sometimes").ok());
  EXPECT_FALSE(FilterSpec::Parse("threshold:abc").ok());
  EXPECT_FALSE(FilterSpec::Parse("delta:-5").ok());
  EXPECT_FALSE(FilterSpec::Parse("all|x|y|z").ok());
}

TEST(FilterSpecTest, RoundTripsToString) {
  for (const char* text :
       {"all", "on-change", "threshold:50", "delta:20",
        "on-change|NETSTAT_RETRANS", "threshold:50|CPU|LOAD"}) {
    auto spec = FilterSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto again = FilterSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok()) << spec->ToString();
    EXPECT_EQ(again->ToString(), spec->ToString());
  }
}

// ------------------------------------------------------------- EventFilter

bool Deliver(EventFilter& filter, const ulm::FlatRecord& rec) {
  return filter.ShouldDeliver(rec.View());
}

TEST(EventFilterTest, OnChangeSuppressesRepeats) {
  // The paper's example: netstat emits the retransmission counter every
  // second; consumers only want changes.
  EventFilter filter(*FilterSpec::Parse("on-change"));
  EXPECT_TRUE(Deliver(filter, ValueEvent(1, "NETSTAT_RETRANS", 10)));
  EXPECT_FALSE(Deliver(filter, ValueEvent(2, "NETSTAT_RETRANS", 10)));
  EXPECT_FALSE(Deliver(filter, ValueEvent(3, "NETSTAT_RETRANS", 10)));
  EXPECT_TRUE(Deliver(filter, ValueEvent(4, "NETSTAT_RETRANS", 14)));
  EXPECT_FALSE(Deliver(filter, ValueEvent(5, "NETSTAT_RETRANS", 14)));
}

TEST(EventFilterTest, OnChangeTracksSourcesIndependently) {
  EventFilter filter(*FilterSpec::Parse("on-change"));
  EXPECT_TRUE(Deliver(filter, ValueEvent(1, "E", 5, "hostA")));
  EXPECT_TRUE(Deliver(filter, ValueEvent(2, "E", 5, "hostB")));
  EXPECT_FALSE(Deliver(filter, ValueEvent(3, "E", 5, "hostA")));
  EXPECT_FALSE(Deliver(filter, ValueEvent(4, "E", 5, "hostB")));
}

TEST(EventFilterTest, ThresholdCrossings) {
  // "if CPU load becomes greater than 50%" — deliver on crossings.
  EventFilter filter(*FilterSpec::Parse("threshold:50"));
  EXPECT_FALSE(Deliver(filter, ValueEvent(1, "CPU", 30)));  // below
  EXPECT_FALSE(Deliver(filter, ValueEvent(2, "CPU", 45)));
  EXPECT_TRUE(Deliver(filter, ValueEvent(3, "CPU", 60)));   // crossed up
  EXPECT_FALSE(Deliver(filter, ValueEvent(4, "CPU", 70)));  // stays above
  EXPECT_TRUE(Deliver(filter, ValueEvent(5, "CPU", 40)));   // crossed down
}

TEST(EventFilterTest, ThresholdFirstSampleAboveDelivers) {
  EventFilter filter(*FilterSpec::Parse("threshold:50"));
  EXPECT_TRUE(Deliver(filter, ValueEvent(1, "CPU", 80)));
}

TEST(EventFilterTest, DeltaPercent) {
  // "if load changes by more than 20%" — relative to last delivered.
  EventFilter filter(*FilterSpec::Parse("delta:20"));
  EXPECT_TRUE(Deliver(filter, ValueEvent(1, "CPU", 50)));   // first
  EXPECT_FALSE(Deliver(filter, ValueEvent(2, "CPU", 55)));  // +10%
  EXPECT_FALSE(Deliver(filter, ValueEvent(3, "CPU", 59)));  // +18% of 50
  EXPECT_TRUE(Deliver(filter, ValueEvent(4, "CPU", 60)));   // +20%
  EXPECT_FALSE(Deliver(filter, ValueEvent(5, "CPU", 65)));  // +8.3% of 60
  EXPECT_TRUE(Deliver(filter, ValueEvent(6, "CPU", 48)));   // -20%
}

TEST(EventFilterTest, EventGlobRestricts) {
  EventFilter filter(*FilterSpec::Parse("all|VMSTAT_*"));
  EXPECT_TRUE(Deliver(filter, ValueEvent(1, "VMSTAT_SYS_TIME", 1)));
  EXPECT_FALSE(Deliver(filter, ValueEvent(2, "TCPD_RETRANSMITS", 1)));
}

TEST(EventFilterTest, ValuelessRecordsPassValueFilters) {
  EventFilter filter(*FilterSpec::Parse("threshold:50"));
  const ulm::FlatRecord status(1, "h", "p", "Error", "PROC_DIED_ABNORMAL");
  EXPECT_TRUE(filter.ShouldDeliver(status.View()));
}

// ----------------------------------------------------------- SummaryWindow

TEST(SummaryWindowTest, WindowedAverages) {
  SummaryWindow window;
  const TimePoint now = 100 * kMinute;
  window.Add(now - 30 * kSecond, 10);   // inside all windows
  window.Add(now - 5 * kMinute, 20);    // inside 10m, 60m
  window.Add(now - 30 * kMinute, 30);   // inside 60m only
  auto s = window.Compute(now);
  EXPECT_EQ(s.count_1m, 1u);
  EXPECT_DOUBLE_EQ(s.avg_1m, 10);
  EXPECT_EQ(s.count_10m, 2u);
  EXPECT_DOUBLE_EQ(s.avg_10m, 15);
  EXPECT_EQ(s.count_60m, 3u);
  EXPECT_DOUBLE_EQ(s.avg_60m, 20);
}

TEST(SummaryWindowTest, OldSamplesAgeOut) {
  SummaryWindow window;
  window.Add(0, 100);
  auto s = window.Compute(2 * kHour);
  EXPECT_EQ(s.count_60m, 0u);
  EXPECT_EQ(window.sample_count(), 0u);  // pruned
}

TEST(SummaryWindowTest, MatchesBruteForceOnRandomData) {
  Rng rng;
  SummaryWindow window;
  std::vector<std::pair<TimePoint, double>> samples;
  SimClock clock(0);
  for (int i = 0; i < 2000; ++i) {
    clock.Advance(rng.Uniform(100 * kMillisecond, 5 * kSecond));
    const double v = rng.UniformReal(0, 100);
    window.Add(clock.Now(), v);
    samples.emplace_back(clock.Now(), v);
  }
  const TimePoint now = clock.Now();
  auto s = window.Compute(now);
  auto brute = [&](Duration span) {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& [ts, v] : samples) {
      if (ts >= now - span && ts <= now) {
        sum += v;
        ++n;
      }
    }
    return std::make_pair(n ? sum / static_cast<double>(n) : 0.0, n);
  };
  auto [avg1, n1] = brute(kMinute);
  auto [avg10, n10] = brute(10 * kMinute);
  auto [avg60, n60] = brute(60 * kMinute);
  EXPECT_EQ(s.count_1m, n1);
  EXPECT_EQ(s.count_10m, n10);
  EXPECT_EQ(s.count_60m, n60);
  EXPECT_NEAR(s.avg_1m, avg1, 1e-9);
  EXPECT_NEAR(s.avg_10m, avg10, 1e-9);
  EXPECT_NEAR(s.avg_60m, avg60, 1e-9);
}

TEST(SummaryWindowTest, BoundedWithoutComputeCalls) {
  // Regression: pruning used to happen only in Compute, so a busy gateway
  // whose consumers never asked for the summary grew the window without
  // bound. Add() must keep the deque trimmed to the trailing hour on its
  // own.
  SummaryWindow window;
  SimClock clock(0);
  for (int i = 0; i < 2 * 60 * 60; ++i) {  // two hours at 1 Hz, no Compute
    window.Add(clock.Now(), 1.0);
    clock.Advance(kSecond);
  }
  // Exactly one trailing hour of samples may remain (+1 boundary sample).
  EXPECT_LE(window.sample_count(), 3601u);
  EXPECT_GE(window.sample_count(), 3600u);
  // And the windows still compute correctly afterwards.
  auto s = window.Compute(clock.Now());
  EXPECT_EQ(s.count_1m, 60u);
  EXPECT_NEAR(s.avg_60m, 1.0, 1e-9);
}

// ------------------------------------------------------------ EventGateway

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : clock_(0), gw_("gw.hostA", clock_) {}

  SimClock clock_;
  EventGateway gw_;
};

TEST_F(GatewayTest, FanOutToMultipleSubscribers) {
  std::vector<ulm::Record> a, b;
  auto keep_a = [&](const ulm::EncodedRecord& enc) {
    a.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw_.SubscribeEncoded("consA", {}, keep_a).ok());
  auto keep_b = [&](const ulm::EncodedRecord& enc) {
    b.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw_.SubscribeEncoded("consB", {}, keep_b).ok());
  test::Publish(gw_, ValueEvent(1, "E", 1));
  test::Publish(gw_, ValueEvent(2, "E", 2));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
  auto stats = gw_.stats();
  EXPECT_EQ(stats.events_in, 2u);
  EXPECT_EQ(stats.events_delivered, 4u);
  EXPECT_EQ(stats.subscriptions, 2u);
}

TEST_F(GatewayTest, PerSubscriptionFiltering) {
  std::vector<ulm::Record> all, changes;
  (void)gw_.SubscribeEncoded("all", *FilterSpec::Parse("all"),
                             [&](const ulm::EncodedRecord& enc) {
                               all.push_back(enc.view().ToRecord());
                             });
  (void)gw_.SubscribeEncoded("changes", *FilterSpec::Parse("on-change"),
                             [&](const ulm::EncodedRecord& enc) {
                               changes.push_back(enc.view().ToRecord());
                             });
  for (int i = 0; i < 10; ++i) {
    test::Publish(gw_, ValueEvent(i, "NETSTAT_RETRANS", 7));  // constant
  }
  test::Publish(gw_, ValueEvent(10, "NETSTAT_RETRANS", 9));
  EXPECT_EQ(all.size(), 11u);
  EXPECT_EQ(changes.size(), 2u);  // first + the change
  EXPECT_EQ(gw_.stats().events_filtered, 9u);
}

TEST_F(GatewayTest, UnsubscribeStopsDelivery) {
  std::vector<ulm::Record> got;
  auto sub = gw_.SubscribeEncoded("c", {}, [&](const ulm::EncodedRecord& enc) {
    got.push_back(enc.view().ToRecord());
  });
  ASSERT_TRUE(sub.ok());
  test::Publish(gw_, ValueEvent(1, "E", 1));
  ASSERT_TRUE(gw_.Unsubscribe(*sub).ok());
  test::Publish(gw_, ValueEvent(2, "E", 2));
  EXPECT_EQ(got.size(), 1u);
  EXPECT_FALSE(gw_.Unsubscribe(*sub).ok());  // already gone
  EXPECT_FALSE(gw_.Unsubscribe("sub-999999").ok());
}

TEST_F(GatewayTest, CallbackMayUnsubscribeItselfDuringFanOut) {
  // Regression: Publish used to iterate the live subscription map, so a
  // callback unsubscribing (the classic one-shot consumer) invalidated
  // the iterator mid-fan-out.
  std::string one_shot_id;
  int one_shot_events = 0;
  auto sub =
      gw_.SubscribeEncoded("one-shot", {}, [&](const ulm::EncodedRecord&) {
        ++one_shot_events;
        EXPECT_TRUE(gw_.Unsubscribe(one_shot_id).ok());
      });
  ASSERT_TRUE(sub.ok());
  one_shot_id = *sub;

  std::vector<ulm::Record> steady;
  auto keep_steady = [&](const ulm::EncodedRecord& enc) {
    steady.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw_.SubscribeEncoded("steady", {}, keep_steady).ok());

  test::Publish(gw_, ValueEvent(1, "E", 1));
  test::Publish(gw_, ValueEvent(2, "E", 2));

  EXPECT_EQ(one_shot_events, 1);       // delivered once, then gone
  EXPECT_EQ(steady.size(), 2u);        // the other subscriber unaffected
  EXPECT_EQ(gw_.subscription_count(), 1u);
}

TEST_F(GatewayTest, CallbackMaySubscribeDuringFanOut) {
  std::vector<ulm::Record> late;
  bool subscribed = false;
  auto keep_late = [&](const ulm::EncodedRecord& enc) {
    late.push_back(enc.view().ToRecord());
  };
  auto spawner = [&](const ulm::EncodedRecord&) {
    if (subscribed) return;
    subscribed = true;
    EXPECT_TRUE(gw_.SubscribeEncoded("late", {}, keep_late).ok());
  };
  ASSERT_TRUE(gw_.SubscribeEncoded("spawner", {}, spawner).ok());

  test::Publish(gw_, ValueEvent(1, "E", 1));
  EXPECT_EQ(gw_.subscription_count(), 2u);
  // The subscriber added mid-fan-out sees subsequent events.
  test::Publish(gw_, ValueEvent(2, "E", 2));
  EXPECT_EQ(late.size(), 1u);
}

TEST_F(GatewayTest, EncodeOnceSharedAcrossEncodedSubscribers) {
  // ISSUE 3 tentpole: Publish builds ONE EncodedRecord per record and every
  // subscriber callback shares it, so N consumers of the same wire format
  // cost one serialization, not N.
  const ulm::EncodedRecord* seen = nullptr;
  std::string first_binary;
  ASSERT_TRUE(gw_.SubscribeEncoded("a", {}, [&](const ulm::EncodedRecord& enc) {
                   seen = &enc;
                   first_binary = enc.Binary();
                   EXPECT_EQ(enc.encodes(), 1u);
                 }).ok());
  ASSERT_TRUE(gw_.SubscribeEncoded("b", {}, [&](const ulm::EncodedRecord& enc) {
                   EXPECT_EQ(&enc, seen);  // the same shared instance
                   EXPECT_EQ(enc.Binary(), first_binary);
                   EXPECT_EQ(enc.encodes(), 1u);   // cache hit, no re-encode
                   EXPECT_EQ(enc.accesses(), 2u);
                   (void)enc.Ascii();              // a second format...
                   EXPECT_EQ(enc.encodes(), 2u);   // ...encodes exactly once
                 }).ok());
  test::Publish(gw_, ValueEvent(5, "CPU", 42));
  EXPECT_NE(seen, nullptr);
  // The decoded form round-trips: subscribers saw the real record bytes.
  auto decoded = ulm::reference::DecodeBinaryStream(first_binary);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].event_name(), "CPU");
}

TEST_F(GatewayTest, ChurnStressKeepsExactAccounting) {
  // ISSUE 3 satellite: subscribers that unsubscribe/resubscribe from inside
  // callbacks while a high-rate publisher runs. Churners only SELF-
  // unsubscribe (after their delivery) and replacements spawned mid-fan-out
  // are excluded from the in-flight snapshot, so for every publish each
  // snapshotted subscription is either delivered or filtered — the
  // delivered/filtered accounting must balance to the event exactly.
  Rng rng(0xC0FFEE);
  std::uint64_t churn_delivered = 0;
  std::uint64_t churn_spawned = 0;
  std::function<void()> spawn = [&] {
    auto id = std::make_shared<std::string>();
    auto res =
        gw_.SubscribeEncoded("churner", {}, [&, id](const ulm::EncodedRecord&) {
          ++churn_delivered;
          if (rng.Chance(0.02)) {
            EXPECT_TRUE(gw_.Unsubscribe(*id).ok());
            spawn();  // replacement joins mid-fan-out; sees the NEXT event
          }
        });
    ASSERT_TRUE(res.ok());
    *id = *res;
    ++churn_spawned;
  };
  std::uint64_t onchange_delivered = 0;
  ASSERT_TRUE(gw_.SubscribeEncoded(
                     "onchange", *FilterSpec::Parse("on-change"),
                     [&](const ulm::EncodedRecord&) { ++onchange_delivered; })
                  .ok());
  for (int i = 0; i < 8; ++i) spawn();

  const std::uint64_t kEvents = 20000;
  std::uint64_t snapshot_attempts = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    // Subscription changes only happen inside callbacks, so the count here
    // IS the fan-out snapshot for this publish.
    snapshot_attempts += gw_.subscription_count();
    test::Publish(gw_,
                  ValueEvent(static_cast<TimePoint>(i), "NETSTAT_RETRANS", 7));
  }

  const auto stats = gw_.stats();
  EXPECT_EQ(stats.events_in, kEvents);
  // The on-change subscriber's value never changes: first delivery only.
  EXPECT_EQ(onchange_delivered, 1u);
  EXPECT_EQ(stats.events_filtered, kEvents - 1);
  // Every snapshotted attempt is accounted for: delivered or filtered.
  EXPECT_EQ(stats.events_delivered + stats.events_filtered,
            snapshot_attempts);
  EXPECT_EQ(stats.events_delivered, churn_delivered + onchange_delivered);
  // Churn is population-neutral (one replacement per self-unsubscribe) and
  // actually happened.
  EXPECT_EQ(gw_.subscription_count(), 9u);
  EXPECT_GT(churn_spawned, 100u);
}

TEST_F(GatewayTest, QueryMostRecent) {
  EXPECT_FALSE(gw_.Query().ok());  // nothing yet
  test::Publish(gw_, ValueEvent(1, "A", 10));
  test::Publish(gw_, ValueEvent(2, "B", 20));
  auto latest = gw_.Query();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->event_name(), "B");
  auto a = gw_.Query("A");
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(*a->View().GetDouble(ulm::InternSymbol("VAL")), 10, 1e-9);
  auto glob = gw_.Query("VMSTAT_*");
  EXPECT_FALSE(glob.ok());
  test::Publish(gw_, ValueEvent(3, "VMSTAT_SYS_TIME", 33));
  glob = gw_.Query("VMSTAT_*");
  ASSERT_TRUE(glob.ok());
  EXPECT_EQ(glob->event_name(), "VMSTAT_SYS_TIME");
}

TEST_F(GatewayTest, QueryXmlFormat) {
  test::Publish(gw_, ValueEvent(1, "A", 10));
  auto xml = gw_.QueryXml("A");
  ASSERT_TRUE(xml.ok());
  EXPECT_NE(xml->find("<event "), std::string::npos);
  EXPECT_NE(xml->find("name=\"A\""), std::string::npos);
}

TEST_F(GatewayTest, SummariesComputedFromPublishedEvents) {
  gw_.EnableSummary("VMSTAT_SYS_TIME");
  clock_.Set(10 * kMinute);
  test::Publish(gw_,
                ValueEvent(10 * kMinute - 30 * kSecond, "VMSTAT_SYS_TIME", 40));
  test::Publish(gw_,
                ValueEvent(10 * kMinute - 20 * kSecond, "VMSTAT_SYS_TIME", 60));
  test::Publish(gw_, ValueEvent(5 * kMinute, "VMSTAT_SYS_TIME", 20));
  auto s = gw_.GetSummary("VMSTAT_SYS_TIME");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->count_1m, 2u);
  EXPECT_DOUBLE_EQ(s->avg_1m, 50);
  EXPECT_EQ(s->count_10m, 3u);
  EXPECT_DOUBLE_EQ(s->avg_10m, 40);
  EXPECT_FALSE(gw_.GetSummary("NOT_CONFIGURED").ok());
}

TEST_F(GatewayTest, AccessControlPerAction) {
  // The paper's policy example: real-time streams internal only, summary
  // data available off-site.
  gw_.EnableSummary("CPU");
  gw_.SetAccessChecker([](Action action, const std::string& principal) {
    if (principal == "internal") return true;
    return action == Action::kSummary;
  });
  auto ignore = [](const ulm::EncodedRecord&) {};
  auto denied = gw_.SubscribeEncoded("offsite", {}, ignore, "external");
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(gw_.SubscribeEncoded("inside", {}, ignore, "internal").ok());
  EXPECT_FALSE(gw_.Query("", "external").ok());
  EXPECT_TRUE(gw_.GetSummary("CPU", "external").ok());
}

// ---------------------------------------------------------- GatewayService

TEST(GatewayServiceTest, SubscribeQuerySummaryOverInProc) {
  SimClock clock(0);
  EventGateway gw("gw", clock);
  gw.EnableSummary("CPU");

  transport::InProcNetwork net;
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  GatewayService service(gw, std::move(*listener));

  auto channel = net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  service.PollOnce();  // accept

  // The client helpers block on the reply, so in this single-threaded test
  // requests are sent raw, the service polled, then replies read.
  ASSERT_TRUE(client.channel().Send({"gw.auth", "alice"}).ok());
  service.PollOnce();
  auto auth_reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(auth_reply.ok());
  EXPECT_EQ(auth_reply->type, "gw.ok");

  ASSERT_TRUE(
      client.channel().Send({"gw.subscribe", "remote-consumer\nall"}).ok());
  service.PollOnce();
  auto sub_reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(sub_reply.ok());
  ASSERT_EQ(sub_reply->type, "gw.ok");
  EXPECT_FALSE(sub_reply->payload.empty());

  clock.Set(kSecond);
  test::Publish(gw, ValueEvent(kSecond, "CPU", 42));
  auto event = client.NextEvent(kSecond);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->event_name(), "CPU");

  // Query mode.
  auto query_sent = client.channel().Send({"gw.query", "CPU"});
  ASSERT_TRUE(query_sent.ok());
  service.PollOnce();
  auto reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.query.reply");

  // Summary.
  ASSERT_TRUE(client.channel().Send({"gw.summary", "CPU"}).ok());
  service.PollOnce();
  reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.summary");

  // Unknown request type gets an error.
  ASSERT_TRUE(client.channel().Send({"gw.bogus", ""}).ok());
  service.PollOnce();
  reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.error");
}

TEST(GatewayServiceTest, DisconnectReapsSubscriptions) {
  SimClock clock(0);
  EventGateway gw("gw", clock);
  transport::InProcNetwork net;
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  GatewayService service(gw, std::move(*listener));

  auto channel = net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  {
    GatewayClient client(std::move(*channel));
    service.PollOnce();
    ASSERT_TRUE(client.channel().Send({"gw.subscribe", "c\nall"}).ok());
    service.PollOnce();
    auto reply = client.channel().Receive(kSecond);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, "gw.ok");
    EXPECT_EQ(gw.subscription_count(), 1u);
  }  // client destroyed → channel closed
  service.PollOnce();
  EXPECT_EQ(gw.subscription_count(), 0u);
  EXPECT_EQ(service.connection_count(), 0u);
}

TEST(GatewayServiceTest, WorksOverRealTcp) {
  SimClock clock(0);
  EventGateway gw("gw", clock);
  auto listener = transport::TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  GatewayService service(gw, std::move(*listener));

  auto channel = transport::TcpDial("127.0.0.1", port);
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  // TCP accept+request processing needs a few poll rounds because the
  // client request races service polling.
  std::string sub_id;
  ASSERT_TRUE(client.channel().Send(
      {"gw.subscribe", std::string("tcp-consumer\nall")}).ok());
  for (int i = 0; i < 50 && sub_id.empty(); ++i) {
    service.PollOnce();
    if (auto msg = client.channel().TryReceive()) {
      ASSERT_EQ(msg->type, "gw.ok");
      sub_id = msg->payload;
    }
  }
  ASSERT_FALSE(sub_id.empty());

  test::Publish(gw, ValueEvent(1, "CPU", 50));
  auto event = client.NextEvent(kSecond);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->event_name(), "CPU");
}

// --------------------------------------------------- batched event delivery

/// Shared scaffolding for the batch-protocol tests: a gateway served over
/// in-proc transport plus the manual send/poll/receive handshake the other
/// service tests use.
struct ServiceHarness {
  ServiceHarness() : clock(0), gw("gw", clock) {
    auto listener = net.Listen("gw");
    EXPECT_TRUE(listener.ok());
    service.emplace(gw, std::move(*listener));
  }

  /// Dial a client and subscribe with a raw payload; returns the
  /// subscription id from the gw.ok reply.
  std::unique_ptr<GatewayClient> Connect(const std::string& sub_payload,
                                         std::string* sub_id = nullptr) {
    auto channel = net.Dial("gw");
    EXPECT_TRUE(channel.ok());
    auto client = std::make_unique<GatewayClient>(std::move(*channel));
    service->PollOnce();  // accept
    EXPECT_TRUE(client->channel().Send({"gw.subscribe", sub_payload}).ok());
    service->PollOnce();
    auto reply = client->channel().Receive(kSecond);
    EXPECT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, "gw.ok");
    if (sub_id && reply.ok()) *sub_id = reply->payload;
    return client;
  }

  SimClock clock;
  EventGateway gw;
  transport::InProcNetwork net;
  std::optional<GatewayService> service;
};

TEST(GatewayServiceTest, BatchedSubscriptionFlushesOnSize) {
  ServiceHarness h;
  auto client = h.Connect("batcher\nall\nbatch:4");

  // Below the negotiated limit: nothing on the wire yet.
  for (int i = 0; i < 3; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));
  EXPECT_FALSE(client->channel().TryReceive().has_value());

  // The fourth record completes the batch: exactly ONE frame with all four.
  test::Publish(h.gw, ValueEvent(3, "CPU", 3));
  auto frame = client->channel().TryReceive();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, transport::kEventBatchMessageType);
  auto records = ulm::reference::DecodeBinaryStream(frame->payload);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*records)[i].timestamp(), i);
    EXPECT_EQ((*records)[i].event_name(), "CPU");
    EXPECT_NEAR(*(*records)[i].GetDouble("VAL"), i, 1e-9);
  }
  EXPECT_FALSE(client->channel().TryReceive().has_value());
}

TEST(GatewayServiceTest, BatchedSubscriptionFlushesOnAge) {
  ServiceHarness h;
  h.service->set_batch_max_age(10 * kMillisecond);
  auto client = h.Connect("batcher\nall\nbatch:100");

  test::Publish(h.gw, ValueEvent(1, "CPU", 1));
  test::Publish(h.gw, ValueEvent(2, "CPU", 2));
  h.service->PollOnce();  // oldest record is fresh — no flush yet
  EXPECT_FALSE(client->channel().TryReceive().has_value());

  h.clock.Advance(9 * kMillisecond);
  h.service->PollOnce();  // 9 ms < 10 ms — still buffered
  EXPECT_FALSE(client->channel().TryReceive().has_value());

  h.clock.Advance(1 * kMillisecond);
  h.service->PollOnce();  // age reached — partial batch ships
  auto frame = client->channel().TryReceive();
  ASSERT_TRUE(frame.has_value());
  auto records = ulm::reference::DecodeBinaryStream(frame->payload);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);

  // The age clock restarts with the next buffered record.
  test::Publish(h.gw, ValueEvent(3, "CPU", 3));
  h.service->PollOnce();
  EXPECT_FALSE(client->channel().TryReceive().has_value());
  h.clock.Advance(10 * kMillisecond);
  h.service->PollOnce();
  frame = client->channel().TryReceive();
  ASSERT_TRUE(frame.has_value());
  records = ulm::reference::DecodeBinaryStream(frame->payload);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(GatewayServiceTest, UnsubscribeFlushesPartialBatch) {
  ServiceHarness h;
  std::string sub_id;
  auto client = h.Connect("batcher\nall\nbatch:100", &sub_id);
  ASSERT_FALSE(sub_id.empty());

  test::Publish(h.gw, ValueEvent(1, "CPU", 1));
  ASSERT_TRUE(client->channel().Send({"gw.unsubscribe", sub_id}).ok());
  h.service->PollOnce();
  // The buffered record ships BEFORE the gw.ok — no data loss on teardown.
  auto frame = client->channel().Receive(kSecond);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, transport::kEventBatchMessageType);
  auto records = ulm::reference::DecodeBinaryStream(frame->payload);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  auto ok = client->channel().Receive(kSecond);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->type, "gw.ok");
  EXPECT_EQ(h.gw.subscription_count(), 0u);
}

TEST(GatewayServiceTest, BatchingReducesWireSends) {
  // The acceptance bar: batch:16 must cut transport sends by >= 10x for
  // the same event stream. Here it is exactly 16x by construction, while
  // an unbatched subscriber on another connection still gets per-event
  // ASCII frames — both protocols coexist.
  ServiceHarness h;
  auto plain = h.Connect("plain\nall");
  auto batched = h.Connect("batched\nall\nbatch:16");

  const int kEvents = 64;
  for (int i = 0; i < kEvents; ++i) {
    test::Publish(h.gw, ValueEvent(i, "CPU", i));
  }

  int plain_frames = 0, plain_records = 0;
  while (auto msg = plain->channel().TryReceive()) {
    EXPECT_EQ(msg->type, "ulm.event");
    ++plain_frames;
    ++plain_records;
  }
  int batch_frames = 0, batch_records = 0;
  while (auto msg = batched->channel().TryReceive()) {
    EXPECT_EQ(msg->type, transport::kEventBatchMessageType);
    ++batch_frames;
    auto records = ulm::reference::DecodeBinaryStream(msg->payload);
    ASSERT_TRUE(records.ok());
    batch_records += static_cast<int>(records->size());
  }
  EXPECT_EQ(plain_frames, kEvents);
  EXPECT_EQ(plain_records, kEvents);
  EXPECT_EQ(batch_records, kEvents);  // no record lost to batching
  EXPECT_EQ(batch_frames, kEvents / 16);
  EXPECT_GE(plain_frames / batch_frames, 10);  // the >= 10x bar
}

TEST(GatewayServiceTest, BatchedClientDecodesTransparently) {
  // Consumer API unchanged: NextEvent()/DrainEvents() unpack gw.event.batch
  // frames and hand back single records in order.
  ServiceHarness h;
  auto channel = h.net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  h.service->PollOnce();  // accept
  ASSERT_TRUE(client.SubscribeBatchedAsync("c", {}, 3).ok());
  h.service->PollOnce();  // subscribe lands; gw.ok queued behind the stream

  for (int i = 0; i < 3; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));
  for (int i = 0; i < 3; ++i) {
    auto ev = client.NextEvent(kSecond);
    ASSERT_TRUE(ev.ok());
    EXPECT_EQ(ev->timestamp(), i);
  }
  // The pipelined gw.ok interleaved with the stream and was adopted.
  EXPECT_EQ(client.recorded_subscription_count(), 1u);
  EXPECT_FALSE(client.subscription_id(0).empty());

  // A partial batch age-flushes and surfaces via DrainEvents().
  test::Publish(h.gw, ValueEvent(7, "CPU", 7));
  h.clock.Advance(h.service->batch_max_age());
  h.service->PollOnce();
  const ulm::FlatBatch& drained = client.DrainEvents();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained.View(0).timestamp(), 7);
  EXPECT_EQ(client.pending_dropped(), 0u);
}

// Regression: an undecodable single gw.event used to surface as a
// ParseError from NextEvent() while DrainEvents() dropped it silently and
// uncounted. The client's one decode path now skips it and counts it.
TEST(GatewayClientTest, UndecodableEventIsSkippedAndCounted) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  GatewayClient client(std::move(client_end));
  const telemetry::Counter& errors =
      telemetry::Metrics().counter("gateway.client.event_decode_errors");
  const std::uint64_t before = errors.Value();
  ASSERT_TRUE(server_end
                  ->Send({transport::kEventMessageType, "not a ulm record"})
                  .ok());
  ASSERT_TRUE(server_end
                  ->Send({transport::kEventMessageType,
                          ValueEvent(1, "CPU", 42).View().ToAscii()})
                  .ok());
  auto event = client.NextEvent(kSecond);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->event_name(), "CPU");
  EXPECT_EQ(errors.Value() - before, 1u);
}

// A corrupt batch is dropped whole — the records decoded before the bad
// frame are not delivered — and counted; the next batch decodes normally.
TEST(GatewayClientTest, CorruptBatchIsDroppedWhole) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  GatewayClient client(std::move(client_end));
  const telemetry::Counter& errors =
      telemetry::Metrics().counter("gateway.client.batch_decode_errors");
  const std::uint64_t before = errors.Value();
  std::string good;
  ValueEvent(1, "CPU", 1).View().EncodeBinary(good);
  ASSERT_TRUE(server_end
                  ->Send({transport::kEventBatchMessageType,
                          good + std::string("\xff\xff\xff", 3)})
                  .ok());
  EXPECT_TRUE(client.DrainEvents().empty());
  EXPECT_EQ(errors.Value() - before, 1u);
  ASSERT_TRUE(
      server_end->Send({transport::kEventBatchMessageType, good + good}).ok());
  EXPECT_EQ(client.DrainEvents().size(), 2u);
}

// The drained batch is shared by every message of one drain, so a corrupt
// message must roll back only its own records: the good messages before
// and after it arrive whole and in order.
TEST(GatewayClientTest, CorruptBatchRollsBackWithinOneDrain) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  GatewayClient client(std::move(client_end));
  const telemetry::Counter& errors =
      telemetry::Metrics().counter("gateway.client.batch_decode_errors");
  const std::uint64_t before = errors.Value();
  auto frames = [](std::initializer_list<int> stamps) {
    std::string out;
    for (int ts : stamps) ValueEvent(ts, "CPU", ts).View().EncodeBinary(out);
    return out;
  };
  ASSERT_TRUE(
      server_end->Send({transport::kEventBatchMessageType, frames({1, 2})})
          .ok());
  ASSERT_TRUE(server_end
                  ->Send({transport::kEventBatchMessageType,
                          frames({3, 4}) + std::string("\xff\xff\xff", 3)})
                  .ok());
  ASSERT_TRUE(
      server_end->Send({transport::kEventBatchMessageType, frames({5, 6})})
          .ok());
  const ulm::FlatBatch& drained = client.DrainEvents();
  ASSERT_EQ(drained.size(), 4u);
  const int expected[] = {1, 2, 5, 6};
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained.View(i).ToAscii(),
              ValueEvent(expected[i], "CPU", expected[i]).View().ToAscii());
  }
  EXPECT_EQ(errors.Value() - before, 1u);
}

TEST(GatewayServiceTest, MixedFormatsPerSubscription) {
  // One connection may hold ASCII, XML, and batch subscriptions at once;
  // each stream keeps its negotiated wire format.
  ServiceHarness h;
  auto client = h.Connect("ascii\nall");
  ASSERT_TRUE(client->channel().Send({"gw.subscribe", "x\nall\nxml"}).ok());
  h.service->PollOnce();
  auto reply = client->channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, "gw.ok");
  ASSERT_TRUE(client->channel().Send({"gw.subscribe", "b\nall\nbatch:1"}).ok());
  h.service->PollOnce();
  reply = client->channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, "gw.ok");

  test::Publish(h.gw, ValueEvent(1, "CPU", 50));
  std::map<std::string, int> by_type;
  while (auto msg = client->channel().TryReceive()) ++by_type[msg->type];
  EXPECT_EQ(by_type["ulm.event"], 1);
  EXPECT_EQ(by_type["gw.event.xml"], 1);
  EXPECT_EQ(by_type[transport::kEventBatchMessageType], 1);
}

TEST(GatewayServiceTest, BadBatchFormatRejected) {
  ServiceHarness h;
  auto channel = h.net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  h.service->PollOnce();
  for (const char* payload :
       {"c\nall\nbatch:0", "c\nall\nbatch:nope", "c\nall\nbogus"}) {
    ASSERT_TRUE(client.channel().Send({"gw.subscribe", payload}).ok());
    h.service->PollOnce();
    auto reply = client.channel().Receive(kSecond);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, "gw.error") << payload;
  }
  EXPECT_EQ(h.gw.subscription_count(), 0u);
}

// ------------------------------------------- slow-consumer protection

// The in-proc transport buffers kInProcChannelCapacity messages per
// direction; a consumer that never drains fills it, after which the
// subscription's bounded outbound queue takes over.
constexpr int kTransportCap =
    static_cast<int>(transport::kInProcChannelCapacity);

TEST(GatewayServiceTest, SlowConsumerDropOldestBoundsQueueExactly) {
  ServiceHarness h;
  auto client = h.Connect("slow\nall|CPU*\n\nqueue:drop-oldest:8");
  const std::uint64_t dropped_before =
      telemetry::Metrics().counter("gw.subscriber.dropped").Value();

  const int kTotal = kTransportCap + 200;
  for (int i = 0; i < kTotal; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));

  auto stats = h.service->QueueStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].consumer, "slow");
  EXPECT_EQ(stats[0].policy, OverflowPolicy::kDropOldest);
  // The queue bound holds no matter how far the consumer falls behind.
  EXPECT_LE(stats[0].queued_messages, 8u);
  // Every routed event is in exactly one bucket: sent, queued, or dropped.
  EXPECT_EQ(stats[0].sent_records, static_cast<std::uint64_t>(kTransportCap));
  EXPECT_EQ(stats[0].queued_records, 8u);
  EXPECT_EQ(stats[0].dropped_records,
            static_cast<std::uint64_t>(kTotal - kTransportCap - 8));
  EXPECT_EQ(stats[0].sent_records + stats[0].queued_records +
                stats[0].dropped_records,
            static_cast<std::uint64_t>(kTotal));
  // Drops are exported for /metrics.
  EXPECT_EQ(telemetry::Metrics().counter("gw.subscriber.dropped").Value(),
            dropped_before + stats[0].dropped_records);

  // Drop-oldest favours freshness: once the consumer drains, the newest
  // events are the ones that survived the overflow.
  const std::size_t drained = client->DrainEvents().size();
  h.service->PollOnce();  // push the queued tail into the freed transport
  const ulm::FlatBatch& tail = client->DrainEvents();
  ASSERT_EQ(drained + tail.size(), static_cast<std::size_t>(kTransportCap + 8));
  EXPECT_EQ(tail.View(tail.size() - 1).timestamp(), kTotal - 1);
}

TEST(GatewayServiceTest, SlowConsumerDropNewestKeepsOldestQueued) {
  ServiceHarness h;
  auto client = h.Connect("slow\nall|CPU*\n\nqueue:drop-newest:4");
  const int kTotal = kTransportCap + 50;
  for (int i = 0; i < kTotal; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));

  auto stats = h.service->QueueStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].queued_messages, 4u);
  EXPECT_EQ(stats[0].sent_records + stats[0].queued_records +
                stats[0].dropped_records,
            static_cast<std::uint64_t>(kTotal));
  // The casualties are the incoming events: the queue holds the four
  // published right after the transport filled.
  (void)client->DrainEvents();
  h.service->PollOnce();
  const ulm::FlatBatch& tail = client->DrainEvents();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.View(0).timestamp(), kTransportCap);
  EXPECT_EQ(tail.View(3).timestamp(), kTransportCap + 3);
}

TEST(GatewayServiceTest, SlowConsumerDisconnectPolicyCutsConnection) {
  ServiceHarness h;
  auto client = h.Connect("slow\nall|CPU*\n\nqueue:disconnect:4");
  const int kTotal = kTransportCap + 10;
  for (int i = 0; i < kTotal; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));

  auto stats = h.service->QueueStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].disconnected);
  EXPECT_EQ(stats[0].queued_messages, 0u);  // queue flushed as dropped
  EXPECT_FALSE(client->channel().IsOpen());
  h.service->PollOnce();  // reaper collects the closed connection
  EXPECT_EQ(h.service->connection_count(), 0u);
  EXPECT_EQ(h.gw.subscription_count(), 0u);
}

TEST(GatewayServiceTest, OverloadPublishesGwOverloadEvent) {
  ServiceHarness h;
  // Local (in-process) observer for the gateway's own overload events.
  std::vector<ulm::Record> overloads;
  FilterSpec spec;
  spec.event_glob = kOverloadEvent;
  auto keep_overloads = [&](const ulm::EncodedRecord& enc) {
    overloads.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(h.gw.SubscribeEncoded("observer", spec, keep_overloads).ok());

  auto client = h.Connect("slow\nall|CPU*\n\nqueue:drop-oldest:2");
  const int kTotal = kTransportCap + 20;
  for (int i = 0; i < kTotal; ++i) test::Publish(h.gw, ValueEvent(i, "CPU", i));
  h.service->PollOnce();

  ASSERT_EQ(overloads.size(), 1u);
  EXPECT_EQ(overloads[0].event_name(), kOverloadEvent);
  EXPECT_EQ(*overloads[0].GetField("CONSUMER"), "slow");
  EXPECT_EQ(*overloads[0].GetField("POLICY"), "drop-oldest");
  auto dropped = overloads[0].GetInt("DROPPED");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, kTotal - kTransportCap - 2);
}

TEST(GatewayServiceTest, BadQueueSpecRejected) {
  ServiceHarness h;
  auto channel = h.net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  h.service->PollOnce();
  for (const std::string queue_line :
       {"queue:sometimes", "queue:drop-oldest:0", "queue:drop-oldest:x",
        "bounded:drop-oldest"}) {
    ASSERT_TRUE(client.channel()
                    .Send({"gw.subscribe", "c\nall\n\n" + queue_line})
                    .ok());
    h.service->PollOnce();
    auto reply = client.channel().Receive(kSecond);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, "gw.error") << queue_line;
  }
  EXPECT_EQ(h.gw.subscription_count(), 0u);
}

TEST(GatewayServiceTest, ClientQueueSpecRecordedAndSent) {
  ServiceHarness h;
  auto channel = h.net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  GatewayClient client(std::move(*channel));
  h.service->PollOnce();
  client.SetQueueSpec(OverflowPolicy::kDropNewest, 16);
  FilterSpec spec;
  ASSERT_TRUE(client.SubscribeAsync("c", spec).ok());
  h.service->PollOnce();
  auto stats = h.service->QueueStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].policy, OverflowPolicy::kDropNewest);
}

}  // namespace
}  // namespace jamm::gateway
