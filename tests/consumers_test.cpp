// Tests for the consumer suite (collector, archiver, process monitor,
// overview monitor) and the event archive, including the paper's
// "page at 2 A.M. only if both primary and backup are down" scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "archive/archive.hpp"
#include "consumers/archiver.hpp"
#include "consumers/collector.hpp"
#include "consumers/overview_monitor.hpp"
#include "consumers/process_monitor.hpp"
#include "directory/schema.hpp"
#include "netlogger/merge.hpp"
#include "record_helpers.hpp"

namespace jamm::consumers {
namespace {

using directory::Dn;

ulm::Record Event(TimePoint ts, const std::string& name, double value,
                  const std::string& host = "h1",
                  const std::string& lvl = "Usage") {
  ulm::Record rec(ts, host, "sensor", lvl, name);
  rec.SetField("VAL", value);
  return rec;
}

// ---------------------------------------------------------------- archive

TEST(ArchiveTest, IngestAndRangeQuery) {
  archive::EventArchive ar("main");
  for (int i = 0; i < 10; ++i) test::Ingest(ar, Event(i * kSecond, "E", i));
  EXPECT_EQ(ar.size(), 10u);
  auto mid = ar.QueryRange(3 * kSecond, 7 * kSecond);
  ASSERT_EQ(mid.size(), 4u);
  const ulm::Symbol val = ulm::InternSymbol("VAL");
  EXPECT_EQ(*mid.View(0).GetDouble(val), 3);
  EXPECT_EQ(*mid.View(3).GetDouble(val), 6);
  EXPECT_TRUE(netlogger::IsSortedByTime(mid));
}

TEST(ArchiveTest, QueryByEventGlobAndHost) {
  archive::EventArchive ar("main");
  test::Ingest(ar, Event(1, "VMSTAT_SYS_TIME", 1, "hostA"));
  test::Ingest(ar, Event(2, "TCPD_RETRANSMITS", 1, "hostB"));
  test::Ingest(ar, Event(3, "VMSTAT_FREE_MEMORY", 1, "hostA"));
  EXPECT_EQ(ar.QueryEvents("VMSTAT_*", 0, 10).size(), 2u);
  EXPECT_EQ(ar.QueryEvents("", 0, 10).size(), 3u);
  EXPECT_EQ(ar.QueryHost("hostA", 0, 10).size(), 2u);
  EXPECT_EQ(ar.QueryHost("hostC", 0, 10).size(), 0u);
}

TEST(ArchiveTest, SamplingKeepsAbnormalDropsNormalFraction) {
  // Paper: "archive a good sampling of both 'normal' and 'abnormal'
  // system operation".
  archive::EventArchive ar("sampled", /*sampling_seed=*/7);
  ar.SetSamplingPolicy(0.1, /*keep_abnormal=*/true);
  for (int i = 0; i < 1000; ++i) test::Ingest(ar, Event(i, "NORMAL", 1));
  for (int i = 0; i < 50; ++i) {
    test::Ingest(ar, Event(10000 + i, "CRASH", 1, "h1", "Error"));
  }
  EXPECT_EQ(ar.QueryEvents("CRASH", 0, 1ll << 40).size(), 50u);  // all kept
  const std::size_t normal = ar.QueryEvents("NORMAL", 0, 1ll << 40).size();
  EXPECT_GT(normal, 50u);   // ~100
  EXPECT_LT(normal, 200u);
  EXPECT_EQ(ar.ingested(), 1050u);
  EXPECT_EQ(ar.dropped(), 1050u - ar.size());
}

TEST(ArchiveTest, ContentsSummaryCountsEvents) {
  archive::EventArchive ar("main");
  test::Ingest(ar, Event(1, "A", 1));
  test::Ingest(ar, Event(2, "A", 1));
  test::Ingest(ar, Event(3, "B", 1));
  const std::string summary = ar.ContentsSummary();
  EXPECT_NE(summary.find("A(2)"), std::string::npos);
  EXPECT_NE(summary.find("B(1)"), std::string::npos);
}

TEST(ArchiveTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "jamm_archive_test.log")
          .string();
  archive::EventArchive ar("main");
  for (int i = 0; i < 5; ++i) test::Ingest(ar, Event(i * kSecond, "E", i));
  ASSERT_TRUE(ar.SaveTo(path).ok());
  auto loaded = archive::EventArchive::LoadFrom("main", path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 5u);
  EXPECT_EQ(loaded->QueryRange(0, 10 * kSecond).size(), 5u);
  std::remove(path.c_str());
  EXPECT_FALSE(archive::EventArchive::LoadFrom("x", path).ok());
}

// -------------------------------------------------------------- collector

class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : clock_(0),
        gw_a_("gw.hostA", clock_),
        gw_b_("gw.hostB", clock_),
        suffix_(*Dn::Parse("ou=sensors, o=jamm")),
        primary_(std::make_shared<directory::DirectoryServer>(
            suffix_, "ldap://primary")) {
    pool_.AddServer(primary_);
    // Publish one sensor on each host pointing at its gateway.
    (void)pool_.Upsert(directory::schema::MakeHostEntry(suffix_, "hostA"));
    (void)pool_.Upsert(directory::schema::MakeHostEntry(suffix_, "hostB"));
    (void)pool_.Upsert(directory::schema::MakeSensorEntry(
        suffix_, "hostA", "vmstat", "cpu", "gw.hostA", 1000, 0));
    (void)pool_.Upsert(directory::schema::MakeSensorEntry(
        suffix_, "hostB", "netstat", "network", "gw.hostB", 1000, 0));
  }

  gateway::EventGateway* Resolve(const std::string& address) {
    if (address == "gw.hostA") return &gw_a_;
    if (address == "gw.hostB") return &gw_b_;
    return nullptr;
  }

  SimClock clock_;
  gateway::EventGateway gw_a_;
  gateway::EventGateway gw_b_;
  Dn suffix_;
  std::shared_ptr<directory::DirectoryServer> primary_;
  directory::DirectoryPool pool_;
};

TEST_F(CollectorTest, DiscoversViaDirectoryAndMerges) {
  EventCollector collector(
      "nlv-collector",
      [this](const std::string& addr) { return Resolve(addr); });
  auto subscribed = collector.DiscoverAndSubscribe(
      pool_, suffix_, directory::Filter::MatchAll(), gateway::FilterSpec{});
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(*subscribed, 2u);

  // Events arrive out of order across gateways; Merged() sorts.
  test::Publish(gw_b_, Event(5 * kSecond, "NETSTAT_RETRANS", 0, "hostB"));
  test::Publish(gw_a_, Event(2 * kSecond, "VMSTAT_SYS_TIME", 10, "hostA"));
  test::Publish(gw_a_, Event(8 * kSecond, "VMSTAT_SYS_TIME", 12, "hostA"));

  auto merged = collector.Merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_TRUE(netlogger::IsSortedByTime(merged));
  EXPECT_EQ(merged.View(0).host(), "hostA");
  EXPECT_EQ(merged.View(1).host(), "hostB");
}

TEST_F(CollectorTest, SkipsStoppedSensorsAndStaleGateways) {
  // Stop hostB's sensor and point hostA's at a vanished gateway.
  auto entry = pool_.Lookup(
      directory::schema::SensorDn(suffix_, "hostB", "netstat"));
  ASSERT_TRUE(entry.ok());
  entry->Set(directory::schema::kAttrStatus, "stopped");
  (void)pool_.Upsert(*entry);

  EventCollector collector("c", [this](const std::string& addr)
                               -> gateway::EventGateway* {
    if (addr == "gw.hostA") return &gw_a_;
    return nullptr;  // hostB's gateway unreachable anyway
  });
  auto subscribed = collector.DiscoverAndSubscribe(
      pool_, suffix_, directory::Filter::MatchAll(), gateway::FilterSpec{});
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(*subscribed, 1u);
}

TEST_F(CollectorTest, WriteMergedProducesNlvReadyFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "jamm_collector_test.log")
          .string();
  EventCollector collector(
      "c", [this](const std::string& addr) { return Resolve(addr); });
  ASSERT_TRUE(collector.SubscribeTo(gw_a_, {}).ok());
  test::Publish(gw_a_, Event(1, "E", 1, "hostA"));
  test::Publish(gw_a_, Event(2, "E", 2, "hostA"));
  ASSERT_TRUE(collector.WriteMerged(path).ok());
  auto loaded = netlogger::LoadLogFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST_F(CollectorTest, UnsubscribeAllStopsCollection) {
  EventCollector collector(
      "c", [this](const std::string& addr) { return Resolve(addr); });
  ASSERT_TRUE(collector.SubscribeTo(gw_a_, {}).ok());
  test::Publish(gw_a_, Event(1, "E", 1));
  collector.UnsubscribeAll();
  test::Publish(gw_a_, Event(2, "E", 2));
  EXPECT_EQ(collector.collected_count(), 1u);
  EXPECT_EQ(gw_a_.subscription_count(), 0u);
}

// --------------------------------------------------------------- archiver

TEST_F(CollectorTest, ArchiverIngestsAndPublishes) {
  archive::EventArchive ar("main-archive");
  ArchiverAgent agent("main-archive", ar, "inproc:archive");
  ASSERT_TRUE(agent.SubscribeTo(gw_a_).ok());
  test::Publish(gw_a_, Event(1, "VMSTAT_SYS_TIME", 10, "hostA"));
  test::Publish(gw_a_, Event(2, "TCPD_RETRANSMITS", 1, "hostA", "Warning"));
  EXPECT_EQ(ar.size(), 2u);

  ASSERT_TRUE(agent.PublishTo(pool_, suffix_).ok());
  auto entry =
      pool_.Lookup(directory::schema::ArchiveDn(suffix_, "main-archive"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrObjectClass),
            directory::schema::kArchiveClass);
  EXPECT_NE(entry->Get(directory::schema::kAttrContents)
                .find("TCPD_RETRANSMITS(1)"),
            std::string::npos);

  // Re-publish refreshes contents.
  test::Publish(gw_a_, Event(3, "TCPD_RETRANSMITS", 1, "hostA", "Warning"));
  ASSERT_TRUE(agent.PublishTo(pool_, suffix_).ok());
  entry = pool_.Lookup(directory::schema::ArchiveDn(suffix_, "main-archive"));
  EXPECT_NE(entry->Get(directory::schema::kAttrContents)
                .find("TCPD_RETRANSMITS(2)"),
            std::string::npos);
}

// ---------------------------------------------------------- process monitor

TEST(ProcessMonitorTest, RestartsAndNotifiesOnDeath) {
  SimClock clock(0);
  sysmon::SimHost host("server1", clock);
  gateway::EventGateway gw("gw", clock);
  ProcessMonitorConsumer monitor("procmon-consumer", clock);

  std::vector<std::string> emails;
  ProcessActions actions;
  actions.restart.emplace();
  actions.email = [&](const std::string& msg) { emails.push_back(msg); };
  ASSERT_TRUE(monitor.Watch(gw, &host, "dpss", actions).ok());

  host.StartProcess("dpss");
  host.StopProcess("dpss", /*crashed=*/true);
  // The process sensor would emit this; publish directly.
  ulm::Record death(kSecond, "server1", "procmon", "Error",
                    sensors::event::kProcDiedAbnormal);
  death.SetField("PROC", "dpss");
  test::Publish(gw, death);

  EXPECT_EQ(monitor.stats().deaths_seen, 1u);
  EXPECT_EQ(monitor.stats().restarts, 1u);
  EXPECT_TRUE(host.FindProcess("dpss")->running);  // restarted
  ASSERT_EQ(emails.size(), 1u);
  EXPECT_NE(emails[0].find("crashed"), std::string::npos);
}

TEST(ProcessMonitorTest, IgnoresOtherProcessesAndEvents) {
  SimClock clock(0);
  sysmon::SimHost host("server1", clock);
  gateway::EventGateway gw("gw", clock);
  ProcessMonitorConsumer monitor("m", clock);
  ProcessActions actions;
  actions.restart.emplace();
  ASSERT_TRUE(monitor.Watch(gw, &host, "dpss", actions).ok());

  ulm::Record other(1, "server1", "procmon", "Warning",
                    sensors::event::kProcDiedNormal);
  other.SetField("PROC", "not-dpss");
  test::Publish(gw, other);
  ulm::Record started(2, "server1", "procmon", "Usage",
                      sensors::event::kProcStarted);
  started.SetField("PROC", "dpss");
  test::Publish(gw, started);
  EXPECT_EQ(monitor.stats().deaths_seen, 0u);
  EXPECT_EQ(monitor.stats().restarts, 0u);
}

TEST(ProcessMonitorTest, CrashLoopBacksOffThenQuarantines) {
  SimClock clock(0);
  sysmon::SimHost host("server1", clock);
  gateway::EventGateway gw("gw", clock);
  ProcessMonitorConsumer monitor("procmon-consumer", clock);

  std::vector<ulm::Record> quarantined;
  gateway::FilterSpec spec;
  spec.event_glob = kProcQuarantined;
  auto keep_quarantined = [&](const ulm::EncodedRecord& enc) {
    quarantined.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw.SubscribeEncoded("ops", spec, keep_quarantined).ok());

  ProcessActions actions;
  actions.restart.emplace();
  actions.restart->initial_backoff = 2 * kSecond;
  actions.restart->max_restarts = 2;
  actions.restart->window = kMinute;
  ASSERT_TRUE(monitor.Watch(gw, &host, "dpss", actions).ok());
  host.StartProcess("dpss");

  auto die = [&] {
    host.StopProcess("dpss", /*crashed=*/true);
    ulm::Record death(clock.Now(), "server1", "procmon", "Error",
                      sensors::event::kProcDiedAbnormal);
    death.SetField("PROC", "dpss");
    test::Publish(gw, death);
  };

  // First death of a calm period: restarted inline, no Tick needed.
  clock.Advance(kSecond);
  die();
  EXPECT_EQ(monitor.stats().restarts, 1u);
  EXPECT_TRUE(host.FindProcess("dpss")->running);

  // Second death: restart delayed by the backoff; Tick executes it once
  // the delay elapses.
  clock.Advance(kSecond);
  die();
  EXPECT_EQ(monitor.stats().restarts, 1u);  // not yet
  EXPECT_FALSE(host.FindProcess("dpss")->running);
  clock.Advance(kSecond);
  monitor.Tick();  // t=3s, restart due at t=4s
  EXPECT_EQ(monitor.stats().restarts, 1u);
  clock.Advance(kSecond);
  monitor.Tick();  // t=4s: backoff elapsed
  EXPECT_EQ(monitor.stats().restarts, 2u);
  EXPECT_TRUE(host.FindProcess("dpss")->running);

  // Third death inside the window crosses max_restarts: quarantine.
  clock.Advance(kSecond);
  die();
  EXPECT_TRUE(monitor.IsQuarantined("dpss"));
  EXPECT_EQ(monitor.stats().quarantines, 1u);
  EXPECT_FALSE(host.FindProcess("dpss")->running);
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].event_name(), kProcQuarantined);
  EXPECT_EQ(*quarantined[0].GetField("PROC"), "dpss");

  // Quarantine is sticky: further deaths and ticks never restart.
  clock.Advance(kMinute);
  die();
  monitor.Tick();
  EXPECT_EQ(monitor.stats().restarts, 2u);
  EXPECT_FALSE(host.FindProcess("dpss")->running);
  EXPECT_EQ(quarantined.size(), 1u);  // announced once, not per death
}

// ---------------------------------------------------------- overview monitor

TEST(OverviewMonitorTest, PagesOnlyWhenBothServersDown) {
  // The paper's example: "trigger a page to a system administrator at
  // 2 A.M. only if both the primary and backup servers are down."
  SimClock clock(0);
  gateway::EventGateway gw_primary("gw.primary", clock);
  gateway::EventGateway gw_backup("gw.backup", clock);
  OverviewMonitor monitor("overview");
  ASSERT_TRUE(monitor.SubscribeTo(gw_primary).ok());
  ASSERT_TRUE(monitor.SubscribeTo(gw_backup).ok());

  int pages = 0;
  auto down = [](const ulm::RecordView& rec) {
    return rec.event_name() == sensors::event::kProcDiedAbnormal ||
           rec.event_name() == sensors::event::kProcDiedNormal;
  };
  monitor.AddRule(
      "both-servers-down",
      {{"primary", "PROC_*", down}, {"backup", "PROC_*", down}},
      [&](const std::string&) { ++pages; });

  auto proc_event = [&](const std::string& host, const char* event_name) {
    ulm::Record rec(clock.Now(), host, "procmon", "Error", event_name);
    rec.SetField("PROC", "server");
    return rec;
  };

  test::Publish(gw_primary,
                proc_event("primary", sensors::event::kProcDiedAbnormal));
  EXPECT_EQ(pages, 0);  // only primary down
  test::Publish(gw_backup,
                proc_event("backup", sensors::event::kProcDiedAbnormal));
  EXPECT_EQ(pages, 1);  // both down → page
  test::Publish(gw_backup,
                proc_event("backup", sensors::event::kProcDiedAbnormal));
  EXPECT_EQ(pages, 1);  // still down → no duplicate page

  // Backup restarts → rule re-arms; both down again → second page.
  test::Publish(gw_backup, proc_event("backup", sensors::event::kProcStarted));
  EXPECT_EQ(pages, 1);
  test::Publish(gw_backup,
                proc_event("backup", sensors::event::kProcDiedAbnormal));
  EXPECT_EQ(pages, 2);
  EXPECT_EQ(monitor.fires("both-servers-down"), 2u);
}

TEST(OverviewMonitorTest, ValueConditionsAcrossHosts) {
  SimClock clock(0);
  gateway::EventGateway gw("gw", clock);
  OverviewMonitor monitor("overview");
  ASSERT_TRUE(monitor.SubscribeTo(gw).ok());
  int fires = 0;
  auto overloaded = [](const ulm::RecordView& rec) {
    auto v = rec.GetDouble(ulm::InternSymbol("VAL"));
    return v.ok() && *v > 90;
  };
  monitor.AddRule("cluster-overloaded",
                  {{"n1", "VMSTAT_SYS_TIME", overloaded},
                   {"n2", "VMSTAT_SYS_TIME", overloaded}},
                  [&](const std::string&) { ++fires; });
  test::Publish(gw, Event(1, "VMSTAT_SYS_TIME", 95, "n1"));
  test::Publish(gw, Event(2, "VMSTAT_SYS_TIME", 50, "n2"));
  EXPECT_EQ(fires, 0);
  test::Publish(gw, Event(3, "VMSTAT_SYS_TIME", 92, "n2"));
  EXPECT_EQ(fires, 1);
}

}  // namespace
}  // namespace jamm::consumers
