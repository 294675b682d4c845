// Tests for the sensor layer: lifecycle, each sensor species' event
// output against controlled SimHost/SNMP ground truth, and the
// config-driven factory.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "sensors/app_sensor.hpp"
#include "sensors/factory.hpp"
#include "sensors/host_sensors.hpp"
#include "sensors/network_sensor.hpp"
#include "sensors/process_sensor.hpp"
#include "sysmon/simhost.hpp"
#include "sysmon/snmp.hpp"

namespace jamm::sensors {
namespace {

class SensorTest : public ::testing::Test {
 protected:
  SensorTest() : clock_(1000 * kSecond), host_("dpss1.lbl.gov", clock_) {}

  std::vector<ulm::Record> PollOnce(Sensor& sensor) {
    std::vector<ulm::Record> out;
    sensor.Poll(out);
    return out;
  }

  const ulm::Record* Find(const std::vector<ulm::Record>& events,
                          std::string_view name) {
    for (const auto& rec : events) {
      if (rec.event_name() == name) return &rec;
    }
    return nullptr;
  }

  SimClock clock_;
  sysmon::SimHost host_;
};

// -------------------------------------------------------------- lifecycle

TEST_F(SensorTest, PollInertUntilStarted) {
  VmstatSensor sensor("vmstat", clock_, host_, kSecond);
  EXPECT_FALSE(sensor.running());
  auto events = PollOnce(sensor);
  EXPECT_TRUE(events.empty());
  ASSERT_TRUE(sensor.Start().ok());
  EXPECT_TRUE(sensor.running());
  events = PollOnce(sensor);
  EXPECT_FALSE(events.empty());
  ASSERT_TRUE(sensor.Stop().ok());
  EXPECT_TRUE(PollOnce(sensor).empty());
  EXPECT_EQ(sensor.events_emitted(), events.size());
}

TEST_F(SensorTest, StartStopIdempotent) {
  VmstatSensor sensor("vmstat", clock_, host_, kSecond);
  EXPECT_TRUE(sensor.Start().ok());
  EXPECT_TRUE(sensor.Start().ok());
  EXPECT_TRUE(sensor.Stop().ok());
  EXPECT_TRUE(sensor.Stop().ok());
}

// ----------------------------------------------------------------- vmstat

TEST_F(SensorTest, VmstatEmitsCpuAndMemory) {
  host_.SetBaseLoad(30, 10);
  host_.SetMemory(1000, 600);
  VmstatSensor sensor("vmstat", clock_, host_, kSecond);
  (void)sensor.Start();
  auto events = PollOnce(sensor);

  const auto* user = Find(events, event::kVmstatUserTime);
  ASSERT_NE(user, nullptr);
  EXPECT_NEAR(*user->GetDouble("VAL"), 30, 2.0);
  EXPECT_EQ(user->host(), "dpss1.lbl.gov");
  EXPECT_EQ(user->prog(), "vmstat");
  EXPECT_EQ(user->timestamp(), clock_.Now());

  const auto* sys = Find(events, event::kVmstatSysTime);
  ASSERT_NE(sys, nullptr);
  EXPECT_NEAR(*sys->GetDouble("VAL"), 10, 2.0);

  const auto* mem = Find(events, event::kVmstatFreeMemory);
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(*mem->GetInt("VAL"), 600);
}

TEST_F(SensorTest, VmstatInterruptDeltaNeedsTwoPolls) {
  VmstatSensor sensor("vmstat", clock_, host_, kSecond);
  (void)sensor.Start();
  auto first = PollOnce(sensor);
  EXPECT_EQ(Find(first, event::kVmstatInterrupts), nullptr);
  host_.AddInterrupts(500);
  clock_.Advance(kSecond);
  auto second = PollOnce(sensor);
  const auto* intr = Find(second, event::kVmstatInterrupts);
  ASSERT_NE(intr, nullptr);
  EXPECT_EQ(*intr->GetInt("VAL"), 500);
}

// ---------------------------------------------------------------- netstat

TEST_F(SensorTest, NetstatRawCounterEveryPoll) {
  NetstatSensor sensor("netstat", clock_, host_, kSecond);
  (void)sensor.Start();
  for (int i = 0; i < 3; ++i) {
    auto events = PollOnce(sensor);
    const auto* raw = Find(events, event::kNetstatRetrans);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(*raw->GetInt("VAL"), 0);
    clock_.Advance(kSecond);
  }
}

TEST_F(SensorTest, RetransmitDeltaEventsOnlyOnIncrease) {
  NetstatSensor sensor("netstat", clock_, host_, kSecond);
  (void)sensor.Start();
  auto first = PollOnce(sensor);
  EXPECT_EQ(Find(first, event::kTcpdRetransmits), nullptr);  // no baseline yet

  clock_.Advance(kSecond);
  auto quiet = PollOnce(sensor);
  EXPECT_EQ(Find(quiet, event::kTcpdRetransmits), nullptr);  // no change

  host_.AddTcpRetransmits(4);
  clock_.Advance(kSecond);
  auto noisy = PollOnce(sensor);
  const auto* retrans = Find(noisy, event::kTcpdRetransmits);
  ASSERT_NE(retrans, nullptr);
  EXPECT_EQ(*retrans->GetInt("VAL"), 4);
  EXPECT_EQ(retrans->lvl(), "Warning");
}

TEST_F(SensorTest, WindowSizeEventOnChange) {
  NetstatSensor sensor("netstat", clock_, host_, kSecond,
                       /*emit_raw_counter=*/false);
  (void)sensor.Start();
  (void)PollOnce(sensor);  // baseline
  clock_.Advance(kSecond);
  auto unchanged = PollOnce(sensor);
  EXPECT_TRUE(unchanged.empty());
  host_.SetTcpWindow(128 * 1024);
  clock_.Advance(kSecond);
  auto changed = PollOnce(sensor);
  const auto* window = Find(changed, event::kTcpdWindowSize);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(*window->GetInt("VAL"), 128 * 1024);
}

// ----------------------------------------------------------------- iostat

TEST_F(SensorTest, IostatReportsDeltas) {
  IostatSensor sensor("iostat", clock_, host_, kSecond);
  (void)sensor.Start();
  (void)PollOnce(sensor);  // baseline
  host_.AddDiskIo(2048, 1024);
  clock_.Advance(kSecond);
  auto events = PollOnce(sensor);
  EXPECT_EQ(*Find(events, event::kIostatReadKb)->GetInt("VAL"), 2048);
  EXPECT_EQ(*Find(events, event::kIostatWriteKb)->GetInt("VAL"), 1024);
}

// ---------------------------------------------------------------- process

TEST_F(SensorTest, ProcessStartAndDeathEvents) {
  ProcessSensor sensor("procmon", clock_, host_, "dpss", kSecond);
  (void)sensor.Start();
  EXPECT_TRUE(PollOnce(sensor).empty());  // never seen, not running

  host_.StartProcess("dpss");
  auto started = PollOnce(sensor);
  const auto* start_ev = Find(started, event::kProcStarted);
  ASSERT_NE(start_ev, nullptr);
  EXPECT_EQ(*start_ev->GetField("PROC"), "dpss");

  EXPECT_TRUE(PollOnce(sensor).empty());  // steady state

  host_.StopProcess("dpss", /*crashed=*/false);
  auto died = PollOnce(sensor);
  ASSERT_NE(Find(died, event::kProcDiedNormal), nullptr);

  host_.StartProcess("dpss");
  (void)PollOnce(sensor);
  host_.StopProcess("dpss", /*crashed=*/true);
  auto crashed = PollOnce(sensor);
  const auto* crash_ev = Find(crashed, event::kProcDiedAbnormal);
  ASSERT_NE(crash_ev, nullptr);
  EXPECT_EQ(crash_ev->lvl(), "Error");
}

TEST_F(SensorTest, DynamicThresholdOnAverageUsers) {
  // Paper: "if the average number of users over a certain time period
  // exceeds a given threshold".
  ProcessSensor sensor("procmon", clock_, host_, "ftp", kSecond,
                       /*user_threshold=*/10.0,
                       /*threshold_window=*/10 * kSecond);
  (void)sensor.Start();
  host_.StartProcess("ftp");
  host_.SetProcessUsers("ftp", 5);
  for (int i = 0; i < 5; ++i) {
    auto events = PollOnce(sensor);
    EXPECT_EQ(Find(events, event::kProcThreshold), nullptr) << i;
    clock_.Advance(kSecond);
  }
  host_.SetProcessUsers("ftp", 50);  // pushes the 10s average over 10
  bool fired = false;
  for (int i = 0; i < 10 && !fired; ++i) {
    auto events = PollOnce(sensor);
    fired = Find(events, event::kProcThreshold) != nullptr;
    clock_.Advance(kSecond);
  }
  EXPECT_TRUE(fired);
  // Edge-triggered: staying above does not re-fire.
  auto again = PollOnce(sensor);
  EXPECT_EQ(Find(again, event::kProcThreshold), nullptr);
}

// ------------------------------------------------------------------- snmp

TEST_F(SensorTest, SnmpSensorThroughputDeltas) {
  sysmon::SnmpAgent router("router-east");
  SnmpNetworkSensor sensor("net-east", clock_, router, 1, kSecond);
  (void)sensor.Start();
  router.AddTraffic(1, 1000, 2000);
  (void)PollOnce(sensor);  // baseline
  router.AddTraffic(1, 500, 700);
  clock_.Advance(kSecond);
  auto events = PollOnce(sensor);
  EXPECT_EQ(*Find(events, event::kSnmpIfInOctets)->GetInt("VAL"), 500);
  EXPECT_EQ(*Find(events, event::kSnmpIfOutOctets)->GetInt("VAL"), 700);
  EXPECT_EQ(Find(events, event::kSnmpIfErrors), nullptr);  // no errors
  EXPECT_EQ(Find(events, event::kSnmpCrcErrors), nullptr);
  EXPECT_EQ(events[0].host(), "router-east");
}

TEST_F(SensorTest, SnmpErrorPointEvents) {
  sysmon::SnmpAgent router("router-east");
  SnmpNetworkSensor sensor("net-east", clock_, router, 1, kSecond);
  (void)sensor.Start();
  (void)PollOnce(sensor);
  router.AddErrors(1, 3, 2);
  clock_.Advance(kSecond);
  auto events = PollOnce(sensor);
  EXPECT_EQ(*Find(events, event::kSnmpIfErrors)->GetInt("VAL"), 3);
  EXPECT_EQ(*Find(events, event::kSnmpCrcErrors)->GetInt("VAL"), 2);
  EXPECT_EQ(Find(events, event::kSnmpCrcErrors)->lvl(), "Error");
}

// -------------------------------------------------------------------- app

TEST_F(SensorTest, AppBridgeForwardsInjectedRecords) {
  AppSensorBridge bridge("app", clock_, "dpss1.lbl.gov", kSecond);
  (void)bridge.Start();
  ulm::Record rec(clock_.Now(), "dpss1.lbl.gov", "matisse", "Usage",
                  "MPLAY_START_READ_FRAME");
  rec.SetField("FRAME.ID", std::int64_t{7});
  bridge.Inject(rec);
  auto events = PollOnce(bridge);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event_name(), "MPLAY_START_READ_FRAME");
  EXPECT_TRUE(PollOnce(bridge).empty());  // drained
}

TEST_F(SensorTest, AppBridgeStaticThreshold) {
  // Paper: "if the number of locks taken exceeds a threshold".
  AppSensorBridge bridge("app", clock_, "h", kSecond);
  bridge.SetStaticThreshold("LOCKS", 100);
  (void)bridge.Start();
  ulm::Record low(clock_.Now(), "h", "db", "Usage", "LockReport");
  low.SetField("LOCKS", std::int64_t{50});
  bridge.Inject(low);
  auto events = PollOnce(bridge);
  ASSERT_EQ(events.size(), 1u);  // no alert

  ulm::Record high(clock_.Now(), "h", "db", "Usage", "LockReport");
  high.SetField("LOCKS", std::int64_t{150});
  bridge.Inject(high);
  events = PollOnce(bridge);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].event_name(), event::kAppThreshold);
  EXPECT_NEAR(*events[1].GetDouble("VAL"), 150, 1e-9);
}

TEST_F(SensorTest, AppBridgeSinkPath) {
  AppSensorBridge bridge("app", clock_, "h", kSecond);
  (void)bridge.Start();
  auto sink = bridge.sink();
  const ulm::FlatRecord rec(1, "h", "p", "Usage", "E");
  ASSERT_TRUE(sink->Write(rec.View()).ok());
  auto events = PollOnce(bridge);
  EXPECT_EQ(events.size(), 1u);
}

// ---------------------------------------------------------------- factory

TEST_F(SensorTest, FactoryCreatesAllKinds) {
  sysmon::SnmpAgent router("router-east");
  SensorContext context;
  context.clock = &clock_;
  context.host = &host_;
  context.devices["router-east"] = &router;

  auto config = Config::ParseString(R"(
[sensor]
name = vm
kind = vmstat
interval_ms = 500

[sensor]
name = net
kind = netstat

[sensor]
name = io
kind = iostat

[sensor]
name = proc
kind = process
process = dpss
user_threshold = 20

[sensor]
name = snmp-east
kind = snmp
device = router-east
ifindex = 2

[sensor]
name = app
kind = application
)");
  ASSERT_TRUE(config.ok());
  std::vector<std::string> types;
  for (const auto* section : config->SectionsNamed("sensor")) {
    auto sensor = CreateSensor(*section, context);
    ASSERT_TRUE(sensor.ok()) << sensor.status().ToString();
    types.push_back((*sensor)->type());
  }
  ASSERT_EQ(types.size(), 6u);
  EXPECT_EQ(types[0], type::kCpu);
  EXPECT_EQ(types[1], type::kNetwork);
  EXPECT_EQ(types[2], type::kDisk);
  EXPECT_EQ(types[3], type::kProcess);
  EXPECT_EQ(types[4], type::kNetwork);
  EXPECT_EQ(types[5], type::kApplication);
}

TEST_F(SensorTest, FactoryHonorsInterval) {
  SensorContext context;
  context.clock = &clock_;
  context.host = &host_;
  auto config = Config::ParseString("[sensor]\nname = vm\nkind = vmstat\n"
                                    "interval_ms = 250\n");
  auto sensor = CreateSensor(*config->SectionsNamed("sensor")[0], context);
  ASSERT_TRUE(sensor.ok());
  EXPECT_EQ((*sensor)->interval(), 250 * kMillisecond);
}

TEST_F(SensorTest, FactoryRejectsBadConfigs) {
  SensorContext context;
  context.clock = &clock_;
  context.host = &host_;
  auto check_bad = [&](const std::string& body) {
    auto config = Config::ParseString(body);
    ASSERT_TRUE(config.ok());
    auto sensor = CreateSensor(*config->SectionsNamed("sensor")[0], context);
    EXPECT_FALSE(sensor.ok()) << body;
  };
  check_bad("[sensor]\nkind = vmstat\n");                       // no name
  check_bad("[sensor]\nname = x\nkind = mystery\n");            // bad kind
  check_bad("[sensor]\nname = x\nkind = process\n");            // no process
  check_bad("[sensor]\nname = x\nkind = snmp\ndevice = nope\n");  // bad device
  check_bad("[sensor]\nname = x\nkind = vmstat\ninterval_ms = 0\n");
  check_bad("[sensor]\nname = x\nkind = vmstat\ninterval_ms = -5\n");
}

}  // namespace
}  // namespace jamm::sensors
