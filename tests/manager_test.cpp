// Tests for the sensor manager agent and port monitor: config-driven
// sensor sets, run modes (always / on-request / on-port), port-triggered
// start/stop, directory publication, config hot-reload (including the
// remote-fetch path), and the Tick scheduler.
#include <gtest/gtest.h>

#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "manager/port_monitor.hpp"
#include "manager/sensor_manager.hpp"
#include "sensors/app_sensor.hpp"

namespace jamm::manager {
namespace {

using directory::Dn;
using directory::schema::SensorDn;

constexpr char kBaseConfig[] = R"(
[sensor]
name = vmstat
kind = vmstat
interval_ms = 1000
mode = always

[sensor]
name = netstat-ftp
kind = netstat
interval_ms = 1000
mode = on-port
ports = 21

[sensor]
name = manual
kind = iostat
mode = on-request
)";

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : clock_(0),
        host_("dpss1.lbl.gov", clock_),
        gateway_("gw.dpss1", clock_),
        suffix_(*Dn::Parse("ou=sensors, o=jamm")),
        primary_(std::make_shared<directory::DirectoryServer>(
            suffix_, "ldap://primary")) {
    pool_.AddServer(primary_);
    SensorManager::Options options;
    options.clock = &clock_;
    options.host = &host_;
    options.gateway = &gateway_;
    options.directory = &pool_;
    options.directory_suffix = suffix_;
    options.gateway_address = "inproc:gw.dpss1";
    options.port_idle_timeout = 5 * kSecond;
    manager_ = std::make_unique<SensorManager>(std::move(options));
  }

  Status Apply(const std::string& text) {
    auto config = Config::ParseString(text);
    EXPECT_TRUE(config.ok());
    return manager_->ApplyConfig(*config);
  }

  Result<directory::Entry> SensorEntry(const std::string& name) {
    return pool_.Lookup(SensorDn(suffix_, "dpss1.lbl.gov", name));
  }

  SimClock clock_;
  sysmon::SimHost host_;
  gateway::EventGateway gateway_;
  Dn suffix_;
  std::shared_ptr<directory::DirectoryServer> primary_;
  directory::DirectoryPool pool_;
  std::unique_ptr<SensorManager> manager_;
};

TEST(ParseRunModeTest, AllModes) {
  EXPECT_EQ(*ParseRunMode("always"), RunMode::kAlways);
  EXPECT_EQ(*ParseRunMode(""), RunMode::kAlways);
  EXPECT_EQ(*ParseRunMode("on-request"), RunMode::kOnRequest);
  EXPECT_EQ(*ParseRunMode("on-port"), RunMode::kOnPort);
  EXPECT_FALSE(ParseRunMode("sometimes").ok());
}

TEST_F(ManagerTest, AppliesConfigAndStartsAlwaysSensors) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  EXPECT_EQ(manager_->SensorNames().size(), 3u);
  auto running = manager_->RunningSensors();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0], "vmstat");
}

TEST_F(ManagerTest, PublishesRunningSensorsInDirectory) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  auto entry = SensorEntry("vmstat");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrStatus), "running");
  EXPECT_EQ(entry->Get(directory::schema::kAttrGateway), "inproc:gw.dpss1");
  EXPECT_EQ(entry->Get(directory::schema::kAttrSensorType), "cpu");
  // on-port sensor not yet running → not published.
  EXPECT_FALSE(SensorEntry("netstat-ftp").ok());
}

TEST_F(ManagerTest, TickPollsAtConfiguredInterval) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  manager_->Tick();  // t=0: vmstat due immediately
  const auto first = gateway_.stats().events_in;
  EXPECT_GT(first, 0u);
  clock_.Advance(200 * kMillisecond);
  manager_->Tick();  // not due again yet
  EXPECT_EQ(gateway_.stats().events_in, first);
  clock_.Advance(kSecond);
  manager_->Tick();
  EXPECT_GT(gateway_.stats().events_in, first);
}

TEST_F(ManagerTest, OnRequestSensorStartsAndStopsByName) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  EXPECT_FALSE(manager_->FindSensor("manual")->running());
  ASSERT_TRUE(manager_->StartSensor("manual").ok());
  EXPECT_TRUE(manager_->FindSensor("manual")->running());
  ASSERT_TRUE(SensorEntry("manual").ok());  // published on start
  ASSERT_TRUE(manager_->StopSensor("manual").ok());
  EXPECT_FALSE(manager_->FindSensor("manual")->running());
  auto entry = SensorEntry("manual");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrStatus), "stopped");
  EXPECT_FALSE(manager_->StartSensor("ghost").ok());
}

TEST_F(ManagerTest, PortTriggeredStartStop) {
  // The paper's FTP example: traffic on port 21 triggers monitoring on
  // both hosts for the duration of the connection.
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  manager_->Tick();
  EXPECT_FALSE(manager_->FindSensor("netstat-ftp")->running());

  host_.AddPortTraffic(21, 1500);  // FTP connection arrives
  manager_->Tick();
  EXPECT_TRUE(manager_->FindSensor("netstat-ftp")->running());
  EXPECT_EQ(manager_->stats().port_triggers, 1u);
  ASSERT_TRUE(SensorEntry("netstat-ftp").ok());

  // Keep traffic flowing: stays up.
  for (int i = 0; i < 3; ++i) {
    clock_.Advance(2 * kSecond);
    host_.AddPortTraffic(21, 1000);
    manager_->Tick();
    EXPECT_TRUE(manager_->FindSensor("netstat-ftp")->running());
  }

  // Connection ends; after the idle timeout the sensor stops.
  clock_.Advance(6 * kSecond);
  manager_->Tick();
  EXPECT_FALSE(manager_->FindSensor("netstat-ftp")->running());
  EXPECT_EQ(manager_->stats().port_stops, 1u);
}

TEST_F(ManagerTest, ConfigReloadAddsAndRemoves) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  ASSERT_TRUE(SensorEntry("vmstat").ok());
  // New config drops vmstat, adds iostat-always.
  ASSERT_TRUE(Apply(R"(
[sensor]
name = iostat2
kind = iostat
mode = always
)").ok());
  EXPECT_EQ(manager_->SensorNames().size(), 1u);
  EXPECT_EQ(manager_->FindSensor("vmstat"), nullptr);
  EXPECT_FALSE(SensorEntry("vmstat").ok());  // unpublished
  EXPECT_TRUE(manager_->FindSensor("iostat2")->running());
}

TEST_F(ManagerTest, ConfigReloadRecreatesChangedSensor) {
  ASSERT_TRUE(Apply("[sensor]\nname = vm\nkind = vmstat\ninterval_ms = 1000\n").ok());
  EXPECT_EQ(manager_->FindSensor("vm")->interval(), kSecond);
  ASSERT_TRUE(Apply("[sensor]\nname = vm\nkind = vmstat\ninterval_ms = 250\n").ok());
  EXPECT_EQ(manager_->FindSensor("vm")->interval(), 250 * kMillisecond);
}

TEST_F(ManagerTest, RemoteConfigFetchOnTick) {
  // Paper §5.0: "Every few minutes the sensor managers check for updates
  // to the configuration file, and activate new sensors if necessary."
  std::string remote_config = "[sensor]\nname = vm\nkind = vmstat\n";
  int fetches = 0;
  manager_->SetConfigFetcher([&]() -> Result<std::string> {
    ++fetches;
    return remote_config;
  });
  manager_->Tick();  // first tick fetches
  EXPECT_EQ(fetches, 1);
  EXPECT_NE(manager_->FindSensor("vm"), nullptr);

  clock_.Advance(30 * kSecond);
  manager_->Tick();  // refresh not due (2 min default)
  EXPECT_EQ(fetches, 1);

  remote_config += "[sensor]\nname = net\nkind = netstat\n";
  clock_.Advance(2 * kMinute);
  manager_->Tick();
  EXPECT_EQ(fetches, 2);
  EXPECT_NE(manager_->FindSensor("net"), nullptr);
}

TEST_F(ManagerTest, FetcherFailureKeepsOldSensors) {
  manager_->SetConfigFetcher(
      []() -> Result<std::string> { return std::string(
          "[sensor]\nname = vm\nkind = vmstat\n"); });
  manager_->Tick();
  ASSERT_NE(manager_->FindSensor("vm"), nullptr);
  manager_->SetConfigFetcher([]() -> Result<std::string> {
    return Status::Unavailable("http server down");
  });
  clock_.Advance(3 * kMinute);
  manager_->Tick();  // refresh fails; sensors untouched
  EXPECT_NE(manager_->FindSensor("vm"), nullptr);
  EXPECT_TRUE(manager_->FindSensor("vm")->running());
}

TEST_F(ManagerTest, BadConfigsRejected) {
  EXPECT_FALSE(Apply("[sensor]\nkind = vmstat\n").ok());  // no name
  EXPECT_FALSE(Apply("[sensor]\nname = x\nkind = netstat\nmode = on-port\n")
                   .ok());  // on-port without ports
  EXPECT_FALSE(
      Apply("[sensor]\nname = x\nkind = netstat\nmode = on-port\n"
            "ports = 99999\n")
          .ok());  // port out of range
  EXPECT_FALSE(Apply("[sensor]\nname = x\nkind = vmstat\nmode = never\n").ok());
}

// ------------------------------------------- liveness & supervision (ISSUE 4)

TEST_F(ManagerTest, ConfigStaleKeepsLastGoodAndEmitsEvent) {
  std::vector<ulm::Record> stale_events;
  gateway::FilterSpec spec;
  spec.event_glob = event::kConfigStale;
  auto keep_stale_events = [&](const ulm::EncodedRecord& enc) {
    stale_events.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gateway_.SubscribeEncoded("ops", spec, keep_stale_events).ok());

  manager_->SetConfigFetcher([]() -> Result<std::string> {
    return std::string("[sensor]\nname = vm\nkind = vmstat\n");
  });
  manager_->Tick();
  ASSERT_NE(manager_->FindSensor("vm"), nullptr);
  EXPECT_EQ(manager_->stats().config_stale, 0u);

  manager_->SetConfigFetcher([]() -> Result<std::string> {
    return Status::Unavailable("http server down");
  });
  clock_.Advance(3 * kMinute);
  manager_->Tick();
  // Last-good config keeps running...
  ASSERT_NE(manager_->FindSensor("vm"), nullptr);
  EXPECT_TRUE(manager_->FindSensor("vm")->running());
  // ...but the staleness is counted and announced on the event stream.
  EXPECT_EQ(manager_->stats().config_stale, 1u);
  ASSERT_EQ(stale_events.size(), 1u);
  EXPECT_EQ(stale_events[0].event_name(), event::kConfigStale);
  auto detail = stale_events[0].GetField("DETAIL");
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("http server down"), std::string::npos);
}

TEST_F(ManagerTest, FailingSensorIsSupervisedThenQuarantined) {
  // Rebuild the manager with a tight supervision policy so the crash loop
  // resolves in a few simulated seconds.
  SensorManager::Options options;
  options.clock = &clock_;
  options.host = &host_;
  options.gateway = &gateway_;
  options.directory = &pool_;
  options.directory_suffix = suffix_;
  options.gateway_address = "inproc:gw.dpss1";
  options.sensor_restart.initial_backoff = kSecond;
  options.sensor_restart.max_restarts = 2;
  options.sensor_restart.window = kMinute;
  manager_ = std::make_unique<SensorManager>(std::move(options));

  std::vector<ulm::Record> quarantine_events;
  gateway::FilterSpec spec;
  spec.event_glob = event::kQuarantined;
  auto keep_quarantine_events = [&](const ulm::EncodedRecord& enc) {
    quarantine_events.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(
      gateway_.SubscribeEncoded("ops", spec, keep_quarantine_events).ok());

  ASSERT_TRUE(Apply(R"(
[sensor]
name = app
kind = application
interval_ms = 1000
mode = always
)").ok());
  auto* app = dynamic_cast<sensors::AppSensorBridge*>(
      manager_->FindSensor("app"));
  ASSERT_NE(app, nullptr);
  app->SetPollFailure(Status::Internal("sensor wedged"));

  // First failure in a calm period: restarted within the same Tick.
  manager_->Tick();
  EXPECT_EQ(manager_->stats().poll_errors, 1u);
  EXPECT_EQ(manager_->stats().supervised_restarts, 1u);
  EXPECT_TRUE(manager_->FindSensor("app")->running());
  EXPECT_FALSE(manager_->IsQuarantined("app"));

  // Keep failing: backoff restarts, then quarantine once the 3rd failure
  // lands inside the 1-minute window (max_restarts = 2).
  for (int i = 0; i < 20 && !manager_->IsQuarantined("app"); ++i) {
    clock_.Advance(kSecond);
    manager_->Tick();
  }
  ASSERT_TRUE(manager_->IsQuarantined("app"));
  EXPECT_EQ(manager_->stats().quarantines, 1u);
  EXPECT_FALSE(manager_->FindSensor("app")->running());
  // De-registered from the directory: consumers cannot discover it.
  EXPECT_FALSE(SensorEntry("app").ok());
  // Announced on the event stream.
  ASSERT_EQ(quarantine_events.size(), 1u);
  EXPECT_EQ(quarantine_events[0].event_name(), event::kQuarantined);
  auto detail = quarantine_events[0].GetField("DETAIL");
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("app"), std::string::npos);

  // Quarantine is sticky: further ticks never restart it.
  const auto restarts = manager_->stats().supervised_restarts;
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(kSecond);
    manager_->Tick();
  }
  EXPECT_FALSE(manager_->FindSensor("app")->running());
  EXPECT_EQ(manager_->stats().supervised_restarts, restarts);

  // Operator override: StartSensor lifts quarantine and re-registers.
  app->SetPollFailure(Status::Ok());
  ASSERT_TRUE(manager_->StartSensor("app").ok());
  EXPECT_FALSE(manager_->IsQuarantined("app"));
  EXPECT_TRUE(manager_->FindSensor("app")->running());
  EXPECT_TRUE(SensorEntry("app").ok());
}

TEST_F(ManagerTest, HeartbeatRenewsDirectoryLeases) {
  using directory::schema::LeaseExpiry;
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  auto entry = SensorEntry("vmstat");
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(LeaseExpiry(*entry), 30 * kSecond);  // default lease_ttl

  manager_->Tick();  // t=0: first heartbeat renews vmstat + gateway entry
  EXPECT_EQ(manager_->stats().lease_renewals, 2u);

  clock_.Advance(10 * kSecond);
  manager_->Tick();  // next heartbeat due
  EXPECT_EQ(manager_->stats().lease_renewals, 4u);
  entry = SensorEntry("vmstat");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(LeaseExpiry(*entry), 10 * kSecond + 30 * kSecond);
  auto gw_entry = pool_.Lookup(
      directory::schema::GatewayDn(suffix_, "dpss1.lbl.gov"));
  ASSERT_TRUE(gw_entry.ok());
  EXPECT_EQ(LeaseExpiry(*gw_entry), 10 * kSecond + 30 * kSecond);
  // The host entry stays immortal: it is a parent, not a liveness target.
  auto host_entry = pool_.Lookup(
      directory::schema::HostDn(suffix_, "dpss1.lbl.gov"));
  ASSERT_TRUE(host_entry.ok());
  EXPECT_FALSE(LeaseExpiry(*host_entry).has_value());
}

TEST_F(ManagerTest, HeartbeatRepublishesReapedEntries) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  // The manager goes quiet past the TTL; the reaper tombstones its
  // entries (this is what consumers see when a host dies).
  clock_.Advance(40 * kSecond);
  auto reaped = primary_->ExpireLeases(clock_.Now());
  ASSERT_TRUE(reaped.ok());
  EXPECT_GE(*reaped, 2u);  // vmstat sensor + gateway entry
  EXPECT_FALSE(SensorEntry("vmstat").ok());

  // The manager was merely slow, not dead: its next heartbeat notices the
  // missing DNs and re-publishes them with a fresh lease.
  manager_->Tick();
  auto entry = SensorEntry("vmstat");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(directory::schema::LeaseExpiry(*entry),
            clock_.Now() + 30 * kSecond);
  EXPECT_TRUE(pool_.Lookup(
      directory::schema::GatewayDn(suffix_, "dpss1.lbl.gov")).ok());
}

TEST_F(ManagerTest, RemovingWatchedPortStopsTriggeredSensor) {
  ASSERT_TRUE(Apply(kBaseConfig).ok());
  host_.AddPortTraffic(21, 1500);
  manager_->Tick();
  ASSERT_TRUE(manager_->FindSensor("netstat-ftp")->running());

  // The port is unwatched while the triggered sensor is still running
  // (e.g. an operator edits the watch list): next Tick stops it even
  // though traffic is still flowing.
  manager_->port_monitor().RemovePort(21);
  host_.AddPortTraffic(21, 1500);
  manager_->Tick();
  EXPECT_FALSE(manager_->FindSensor("netstat-ftp")->running());
  EXPECT_EQ(manager_->stats().port_stops, 1u);
}

// ------------------------------------------------------------ PortMonitor

TEST(PortMonitorTest, ActivityWindow) {
  SimClock clock(0);
  sysmon::SimHost host("h", clock);
  PortMonitor monitor(clock, host, 5 * kSecond);
  monitor.AddPort(21);
  monitor.AddPort(8080);

  EXPECT_FALSE(monitor.IsActive(21));  // never any traffic
  host.AddPortTraffic(21, 100);
  EXPECT_TRUE(monitor.IsActive(21));
  EXPECT_FALSE(monitor.IsActive(8080));
  EXPECT_EQ(monitor.ActivePorts(), std::vector<std::uint16_t>{21});

  clock.Advance(4 * kSecond);
  EXPECT_TRUE(monitor.IsActive(21));
  clock.Advance(2 * kSecond);
  EXPECT_FALSE(monitor.IsActive(21));  // idle timeout passed
}

TEST(PortMonitorTest, UnwatchedPortsNeverActive) {
  SimClock clock(0);
  sysmon::SimHost host("h", clock);
  PortMonitor monitor(clock, host);
  host.AddPortTraffic(23, 100);
  EXPECT_FALSE(monitor.IsActive(23));  // 23 not configured
  monitor.AddPort(23);
  EXPECT_TRUE(monitor.IsActive(23));
  monitor.RemovePort(23);
  EXPECT_FALSE(monitor.IsActive(23));
}

TEST(PortMonitorTest, IdleTimeoutBoundaryIsInclusive) {
  SimClock clock(0);
  sysmon::SimHost host("h", clock);
  PortMonitor monitor(clock, host, 5 * kSecond);
  monitor.AddPort(21);
  host.AddPortTraffic(21, 100);
  clock.Advance(5 * kSecond);
  EXPECT_TRUE(monitor.IsActive(21));  // exactly at the timeout: still live
  clock.Advance(1);                   // one microsecond past
  EXPECT_FALSE(monitor.IsActive(21));
}

TEST(PortMonitorTest, AnyActiveAcrossList) {
  SimClock clock(0);
  sysmon::SimHost host("h", clock);
  PortMonitor monitor(clock, host);
  monitor.AddPort(21);
  monitor.AddPort(80);
  EXPECT_FALSE(monitor.AnyActive({21, 80}));
  host.AddPortTraffic(80, 1);
  EXPECT_TRUE(monitor.AnyActive({21, 80}));
  EXPECT_FALSE(monitor.AnyActive({21}));
}

}  // namespace
}  // namespace jamm::manager
