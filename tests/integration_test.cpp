// Integration tests: the full JAMM pipeline wired together the way the
// paper deploys it — sensor managers on monitored hosts publishing into
// per-host event gateways and a replicated directory; consumers
// discovering sensors through the directory and subscribing through the
// gateways; archives, overview rules, port triggering, config hot-reload
// from a remote HTTP server, and directory failover under fire.
#include <gtest/gtest.h>

#include <set>

#include "archive/archive.hpp"
#include "archive/nlv.hpp"
#include "consumers/archiver.hpp"
#include "consumers/collector.hpp"
#include "consumers/overview_monitor.hpp"
#include "consumers/process_monitor.hpp"
#include "directory/replication.hpp"
#include "manager/sensor_manager.hpp"
#include "netlogger/merge.hpp"
#include "gateway/service.hpp"
#include "rpc/httpsim.hpp"
#include "sensors/host_sensors.hpp"
#include "sensors/process_sensor.hpp"
#include "transport/inproc.hpp"
#include "record_helpers.hpp"

namespace jamm {
namespace {

using directory::Dn;

constexpr char kHostConfig[] = R"(
[sensor]
name = vmstat
kind = vmstat
interval_ms = 1000
mode = always

[sensor]
name = netstat
kind = netstat
interval_ms = 1000
mode = always

[sensor]
name = dpss-watch
kind = process
process = dpss
interval_ms = 1000
mode = always
)";

/// One monitored host: machine + gateway + manager, the paper's per-host
/// agent stack.
struct MonitoredHost {
  MonitoredHost(const std::string& name, SimClock& clock,
                directory::DirectoryPool* pool, const Dn& suffix)
      : machine(name, clock), gateway("gw." + name, clock) {
    manager::SensorManager::Options options;
    options.clock = &clock;
    options.host = &machine;
    options.gateway = &gateway;
    options.directory = pool;
    options.directory_suffix = suffix;
    options.gateway_address = "gw." + name;
    manager = std::make_unique<manager::SensorManager>(std::move(options));
  }

  sysmon::SimHost machine;
  gateway::EventGateway gateway;
  std::unique_ptr<manager::SensorManager> manager;
};

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : clock_(0),
        suffix_(*Dn::Parse("ou=sensors, o=jamm")),
        primary_(std::make_shared<directory::DirectoryServer>(
            suffix_, "ldap://primary")),
        replica_(std::make_shared<directory::DirectoryServer>(
            suffix_, "ldap://replica")),
        replicator_(primary_) {
    replicator_.AddReplica(replica_);
    pool_.AddServer(primary_);
    pool_.AddServer(replica_);
    host_a_ = std::make_unique<MonitoredHost>("dpss1.lbl.gov", clock_, &pool_,
                                              suffix_);
    host_b_ = std::make_unique<MonitoredHost>("dpss2.lbl.gov", clock_, &pool_,
                                              suffix_);
  }

  void ApplyConfigs(const std::string& text = kHostConfig) {
    auto config = Config::ParseString(text);
    ASSERT_TRUE(config.ok());
    ASSERT_TRUE(host_a_->manager->ApplyConfig(*config).ok());
    ASSERT_TRUE(host_b_->manager->ApplyConfig(*config).ok());
  }

  /// Advance the "grid" by `span`, ticking managers each second.
  void Run(Duration span) {
    const TimePoint end = clock_.Now() + span;
    while (clock_.Now() < end) {
      host_a_->manager->Tick();
      host_b_->manager->Tick();
      (void)replicator_.SyncAll();
      clock_.Advance(kSecond);
    }
  }

  gateway::EventGateway* Resolve(const std::string& address) {
    if (address == "gw.dpss1.lbl.gov") return &host_a_->gateway;
    if (address == "gw.dpss2.lbl.gov") return &host_b_->gateway;
    return nullptr;
  }

  SimClock clock_;
  Dn suffix_;
  std::shared_ptr<directory::DirectoryServer> primary_;
  std::shared_ptr<directory::DirectoryServer> replica_;
  directory::Replicator replicator_;
  directory::DirectoryPool pool_;
  std::unique_ptr<MonitoredHost> host_a_;
  std::unique_ptr<MonitoredHost> host_b_;
};

TEST_F(PipelineTest, DiscoveryCollectionAndMergedLog) {
  ApplyConfigs();
  Run(2 * kSecond);  // managers publish into the directory

  consumers::EventCollector collector(
      "nlv-collector",
      [this](const std::string& addr) { return Resolve(addr); });
  auto subscribed = collector.DiscoverAndSubscribe(
      pool_, suffix_, directory::Filter::MatchAll(), gateway::FilterSpec{});
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(*subscribed, 2u);  // one subscription per host gateway

  host_a_->machine.SetBaseLoad(60, 20);
  host_b_->machine.SetBaseLoad(10, 5);
  Run(10 * kSecond);

  auto merged = collector.Merged();
  ASSERT_GT(merged.size(), 30u);
  EXPECT_TRUE(netlogger::IsSortedByTime(merged));
  bool saw_a = false, saw_b = false;
  for (const auto& rec : test::ToRecords(merged)) {
    saw_a = saw_a || rec.host() == "dpss1.lbl.gov";
    saw_b = saw_b || rec.host() == "dpss2.lbl.gov";
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // nlv-style check: host A's measured CPU is visibly higher.
  const archive::OfflineLog log(merged);
  double max_a = 0;
  for (const auto& p : log.Points(sensors::event::kVmstatUserTime, "VAL")) {
    if (p.has_value && p.value > max_a && p.ts > 2 * kSecond) max_a = p.value;
  }
  EXPECT_GT(max_a, 40.0);
}

TEST_F(PipelineTest, ProcessCrashRestartLoop) {
  ApplyConfigs();
  host_a_->machine.StartProcess("dpss");
  Run(2 * kSecond);

  consumers::ProcessMonitorConsumer monitor("procmon", clock_);
  int emails = 0;
  consumers::ProcessActions actions;
  actions.restart.emplace();
  actions.email = [&](const std::string&) { ++emails; };
  ASSERT_TRUE(monitor.Watch(host_a_->gateway, &host_a_->machine, "dpss",
                            actions)
                  .ok());

  host_a_->machine.StopProcess("dpss", /*crashed=*/true);
  Run(3 * kSecond);

  EXPECT_EQ(monitor.stats().deaths_seen, 1u);
  EXPECT_EQ(monitor.stats().restarts, 1u);
  EXPECT_EQ(emails, 1);
  EXPECT_TRUE(host_a_->machine.FindProcess("dpss")->running);

  // The restart shows up as a PROC_STARTED event downstream.
  auto started = host_a_->gateway.Query(sensors::event::kProcStarted);
  EXPECT_TRUE(started.ok());
}

TEST_F(PipelineTest, OverviewRuleAcrossHosts) {
  ApplyConfigs();
  host_a_->machine.StartProcess("dpss");
  host_b_->machine.StartProcess("dpss");
  Run(2 * kSecond);

  consumers::OverviewMonitor overview("overview");
  ASSERT_TRUE(overview.SubscribeTo(host_a_->gateway).ok());
  ASSERT_TRUE(overview.SubscribeTo(host_b_->gateway).ok());
  int pages = 0;
  auto down = [](const ulm::RecordView& rec) {
    return rec.event_name() == sensors::event::kProcDiedAbnormal;
  };
  overview.AddRule("both-down",
                   {{"dpss1.lbl.gov", "PROC_*", down},
                    {"dpss2.lbl.gov", "PROC_*", down}},
                   [&](const std::string&) { ++pages; });

  host_a_->machine.StopProcess("dpss", true);
  Run(2 * kSecond);
  EXPECT_EQ(pages, 0);  // only one host down — no 2 A.M. page

  host_b_->machine.StopProcess("dpss", true);
  Run(2 * kSecond);
  EXPECT_EQ(pages, 1);  // both down — page
}

TEST_F(PipelineTest, ArchiverRecordsAndPublishes) {
  ApplyConfigs();
  archive::EventArchive ar("grid-archive");
  consumers::ArchiverAgent archiver("grid-archive", ar, "inproc:archive");
  ASSERT_TRUE(archiver.SubscribeTo(host_a_->gateway).ok());
  Run(10 * kSecond);
  EXPECT_GT(ar.size(), 20u);
  ASSERT_TRUE(archiver.PublishTo(pool_, suffix_).ok());
  auto entry =
      pool_.Lookup(directory::schema::ArchiveDn(suffix_, "grid-archive"));
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry->Get(directory::schema::kAttrContents).empty());
  // Historical query: a time slice of VMSTAT data exists.
  auto slice = ar.QueryEvents("VMSTAT_*", 0, clock_.Now());
  EXPECT_FALSE(slice.empty());
}

TEST_F(PipelineTest, DirectoryPrimaryFailureSurvived) {
  ApplyConfigs();
  Run(2 * kSecond);
  ASSERT_TRUE(replicator_.Converged());

  // Primary dies (the scenario the paper calls out as fatal without
  // replication). Discovery keeps working through the replica.
  primary_->SetAlive(false);
  consumers::EventCollector collector(
      "c", [this](const std::string& addr) { return Resolve(addr); });
  auto subscribed = collector.DiscoverAndSubscribe(
      pool_, suffix_, directory::Filter::MatchAll(), gateway::FilterSpec{});
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(*subscribed, 2u);
  EXPECT_EQ(pool_.last_served_by(), "ldap://replica");

  // Managers keep running; their publication updates fail against the
  // dead primary but sensor data still flows.
  Run(5 * kSecond);
  EXPECT_GT(collector.collected_count(), 5u);
}

TEST_F(PipelineTest, ConfigHotReloadFromRemoteHttp) {
  rpc::HttpSimServer http;
  http.Put("/jamm/dpss1.conf", "[sensor]\nname = vmstat\nkind = vmstat\n");
  host_a_->manager->SetConfigFetcher(http.MakeFetcher("/jamm/dpss1.conf"));

  Run(2 * kSecond);
  EXPECT_NE(host_a_->manager->FindSensor("vmstat"), nullptr);
  EXPECT_EQ(host_a_->manager->FindSensor("iostat2"), nullptr);

  // Admin edits the central config; "Every few minutes the sensor
  // managers check for updates... and activate new sensors if necessary."
  http.Put("/jamm/dpss1.conf",
           "[sensor]\nname = vmstat\nkind = vmstat\n"
           "[sensor]\nname = iostat2\nkind = iostat\n");
  Run(3 * kMinute);
  ASSERT_NE(host_a_->manager->FindSensor("iostat2"), nullptr);
  EXPECT_TRUE(host_a_->manager->FindSensor("iostat2")->running());

  // HTTP server outage: the manager keeps its current sensors.
  http.SetAvailable(false);
  Run(3 * kMinute);
  EXPECT_NE(host_a_->manager->FindSensor("iostat2"), nullptr);
}

TEST_F(PipelineTest, GatewaySummariesFromLiveSensors) {
  ApplyConfigs();
  host_a_->gateway.EnableSummary(sensors::event::kVmstatSysTime);
  host_a_->machine.SetBaseLoad(20, 40);
  Run(2 * kMinute);
  auto summary =
      host_a_->gateway.GetSummary(sensors::event::kVmstatSysTime);
  ASSERT_TRUE(summary.ok());
  EXPECT_GT(summary->count_1m, 30u);   // ~1 Hz sensor
  EXPECT_NEAR(summary->avg_1m, 40.0, 3.0);
}

TEST_F(PipelineTest, OnDemandMonitoringReducesDataVolume) {
  // The §2.2 port-monitor claim in miniature: an always-on netstat vs a
  // port-triggered netstat over mostly-idle FTP activity.
  const std::string config_text = R"(
[sensor]
name = netstat-always
kind = netstat
interval_ms = 1000
mode = always

[sensor]
name = netstat-ftp
kind = netstat
interval_ms = 1000
mode = on-port
ports = 21
)";
  auto config = Config::ParseString(config_text);
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(host_a_->manager->ApplyConfig(*config).ok());

  // 10 minutes, with one 30-second FTP session in the middle.
  for (int second = 0; second < 600; ++second) {
    if (second >= 300 && second < 330) {
      host_a_->machine.AddPortTraffic(21, 10000);
    }
    host_a_->manager->Tick();
    clock_.Advance(kSecond);
  }
  auto* always = host_a_->manager->FindSensor("netstat-always");
  auto* triggered = host_a_->manager->FindSensor("netstat-ftp");
  ASSERT_NE(always, nullptr);
  ASSERT_NE(triggered, nullptr);
  EXPECT_GT(always->events_emitted(), 500u);
  EXPECT_LT(triggered->events_emitted(), 60u);
  // "greatly reducing the total amount of monitoring data": >10× here.
  EXPECT_GT(always->events_emitted(), 10 * triggered->events_emitted());
}


TEST_F(PipelineTest, RemoteConsumerStartsSensorThroughGateway) {
  // §7.1: "Starting new sensors is done by a request to a gateway, which
  // then contacts a sensor manager."
  ApplyConfigs(R"(
[sensor]
name = iostat-ondemand
kind = iostat
mode = on-request
)");
  EXPECT_FALSE(host_a_->manager->FindSensor("iostat-ondemand")->running());

  transport::InProcNetwork net;
  auto listener = net.Listen("gw.dpss1");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(host_a_->gateway, std::move(*listener));
  auto channel = net.Dial("gw.dpss1");
  ASSERT_TRUE(channel.ok());
  gateway::GatewayClient client(std::move(*channel));
  service.PollOnce();

  ASSERT_TRUE(client.channel().Send({"gw.sensor.start",
                                     "iostat-ondemand"}).ok());
  service.PollOnce();
  auto reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.ok");
  EXPECT_TRUE(host_a_->manager->FindSensor("iostat-ondemand")->running());

  // Unknown sensor → error surfaces to the consumer.
  ASSERT_TRUE(client.channel().Send({"gw.sensor.start", "ghost"}).ok());
  service.PollOnce();
  reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.error");

  // Stop it again.
  ASSERT_TRUE(client.channel().Send({"gw.sensor.stop",
                                     "iostat-ondemand"}).ok());
  service.PollOnce();
  reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "gw.ok");
  EXPECT_FALSE(host_a_->manager->FindSensor("iostat-ondemand")->running());
}

TEST_F(PipelineTest, SensorControlAccessChecked) {
  ApplyConfigs(R"(
[sensor]
name = iostat-ondemand
kind = iostat
mode = on-request
)");
  host_a_->gateway.SetAccessChecker(
      [](gateway::Action action, const std::string& who) {
        return action != gateway::Action::kStartSensor || who == "admin";
      });
  EXPECT_EQ(host_a_->gateway.StartSensor("iostat-ondemand", "mallory").code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(host_a_->gateway.StartSensor("iostat-ondemand", "admin").ok());
}

TEST_F(PipelineTest, XmlSubscriptionStreamsXmlEvents) {
  // §7.0: "a consumer can request either format for event data."
  ApplyConfigs();
  transport::InProcNetwork net;
  auto listener = net.Listen("gw.dpss1");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(host_a_->gateway, std::move(*listener));
  auto channel = net.Dial("gw.dpss1");
  ASSERT_TRUE(channel.ok());
  gateway::GatewayClient client(std::move(*channel));
  service.PollOnce();

  ASSERT_TRUE(
      client.channel().Send({"gw.subscribe", "xml-consumer\nall\nxml"}).ok());
  service.PollOnce();
  auto reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, "gw.ok");

  Run(2 * kSecond);
  auto event = client.channel().Receive(kSecond);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->type, "gw.event.xml");
  EXPECT_NE(event->payload.find("<event "), std::string::npos);
  EXPECT_NE(event->payload.find("host=\"dpss1.lbl.gov\""),
            std::string::npos);
}


TEST(ClusterScaleTest, TwentyNodeFarmMonitoredThroughOneCollector) {
  // §1.1: the architecture "could be used in large compute farms or
  // clusters that require constant monitoring to ensure all nodes are
  // running correctly." Twenty nodes, three sensors each, one collector.
  SimClock clock;
  auto suffix = *Dn::Parse("ou=sensors, o=farm");
  auto ldap = std::make_shared<directory::DirectoryServer>(suffix,
                                                           "ldap://farm");
  directory::DirectoryPool pool;
  pool.AddServer(ldap);

  constexpr int kNodes = 20;
  std::vector<std::unique_ptr<MonitoredHost>> nodes;
  auto config = Config::ParseString(kHostConfig);
  ASSERT_TRUE(config.ok());
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<MonitoredHost>(
        "node" + std::to_string(n) + ".farm", clock, &pool, suffix));
    nodes.back()->machine.StartProcess("dpss");
    ASSERT_TRUE(nodes.back()->manager->ApplyConfig(*config).ok());
  }

  consumers::EventCollector collector(
      "farm-collector", [&](const std::string& addr) ->
          gateway::EventGateway* {
        for (auto& node : nodes) {
          if ("gw." + node->machine.host() == addr) return &node->gateway;
        }
        return nullptr;
      });
  auto subscribed = collector.DiscoverAndSubscribe(
      pool, suffix, directory::Filter::MatchAll(), gateway::FilterSpec{});
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(*subscribed, static_cast<std::size_t>(kNodes));

  for (int second = 0; second < 30; ++second) {
    if (second == 10) nodes[7]->machine.StopProcess("dpss", true);
    for (auto& node : nodes) node->manager->Tick();
    clock.Advance(kSecond);
  }

  auto merged = collector.Merged();
  EXPECT_GT(merged.size(), 1000u);
  EXPECT_TRUE(netlogger::IsSortedByTime(merged));
  // Every node contributed.
  std::set<std::string> hosts;
  for (const auto& rec : test::ToRecords(merged)) hosts.insert(rec.host());
  EXPECT_EQ(hosts.size(), static_cast<std::size_t>(kNodes));
  // Node 7's crash is visible in the merged stream.
  bool crash_seen = false;
  for (const auto& rec : test::ToRecords(merged)) {
    if (rec.event_name() == sensors::event::kProcDiedAbnormal &&
        rec.host() == "node7.farm") {
      crash_seen = true;
    }
  }
  EXPECT_TRUE(crash_seen);
  // And the directory lists 3 sensors per node.
  auto result = pool.Search(suffix, directory::SearchScope::kSubtree,
                            *directory::Filter::Parse(
                                "(objectclass=jammSensor)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), static_cast<std::size_t>(kNodes * 3));
}

}  // namespace
}  // namespace jamm
