// Tests for the §7.0 future-work features: the summary data service
// (gateway summaries published into the directory) and the network-aware
// client API (optimal TCP buffer from published path figures), plus the
// Sensor Data GUI / archive dashboard renderings.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "consumers/dashboard.hpp"
#include "consumers/summary_service.hpp"
#include "directory/schema.hpp"
#include "record_helpers.hpp"

namespace jamm::consumers {
namespace {

using directory::Dn;

class SummaryServiceTest : public ::testing::Test {
 protected:
  SummaryServiceTest()
      : clock_(10 * kMinute),
        gw_("gw.dpss1", clock_),
        suffix_(*Dn::Parse("ou=sensors, o=jamm")),
        server_(std::make_shared<directory::DirectoryServer>(
            suffix_, "ldap://x")) {
    pool_.AddServer(server_);
  }

  void PublishNet(const std::string& event, double value, TimePoint ts) {
    ulm::Record rec(ts, "dpss1", "netsensor", "Usage", event);
    rec.SetField("VAL", value);
    test::Publish(gw_, rec);
  }

  SimClock clock_;
  gateway::EventGateway gw_;
  Dn suffix_;
  std::shared_ptr<directory::DirectoryServer> server_;
  directory::DirectoryPool pool_;
};

TEST_F(SummaryServiceTest, PublishesGatewaySummariesIntoDirectory) {
  SummaryPublisher publisher(gw_, pool_, suffix_, "dpss1");
  publisher.AddMetric("NET_THROUGHPUT", "net.throughput.bps",
                      SummaryPublisher::Window::k10m);
  publisher.AddMetric("NET_RTT", "net.rtt.s",
                      SummaryPublisher::Window::k10m);

  // Nothing published before any samples exist.
  EXPECT_EQ(publisher.PublishOnce(), 0u);

  // Network sensors report ~140 Mbit/s and ~60 ms RTT.
  for (int i = 0; i < 20; ++i) {
    const TimePoint ts = clock_.Now() - i * 10 * kSecond;
    PublishNet("NET_THROUGHPUT", 140e6, ts);
    PublishNet("NET_RTT", 0.060, ts);
  }
  EXPECT_EQ(publisher.PublishOnce(), 2u);

  auto summary = ReadPathSummary(pool_, suffix_, "dpss1");
  ASSERT_TRUE(summary.ok());
  EXPECT_NEAR(summary->throughput_bps, 140e6, 1e3);
  EXPECT_NEAR(summary->rtt_s, 0.060, 1e-6);
}

TEST_F(SummaryServiceTest, NetworkAwareClientComputesBdp) {
  // The §7.0 use case: the client sets its TCP buffer to the
  // bandwidth-delay product of the published path.
  SummaryPublisher publisher(gw_, pool_, suffix_, "dpss1");
  publisher.AddMetric("NET_THROUGHPUT", "net.throughput.bps");
  publisher.AddMetric("NET_RTT", "net.rtt.s");
  PublishNet("NET_THROUGHPUT", 140e6, clock_.Now());
  PublishNet("NET_RTT", 0.060, clock_.Now());
  ASSERT_EQ(publisher.PublishOnce(), 2u);

  auto window = OptimalTcpWindowBytes(pool_, suffix_, "dpss1");
  ASSERT_TRUE(window.ok());
  // 140 Mbit/s × 60 ms = 1.05 MB — the paper-era ~1 MB tuned buffer.
  EXPECT_NEAR(*window, 140e6 * 0.060 / 8, 1.0);
}

TEST_F(SummaryServiceTest, MissingOrDegenerateSummariesFail) {
  EXPECT_FALSE(ReadPathSummary(pool_, suffix_, "ghost").ok());
  SummaryPublisher publisher(gw_, pool_, suffix_, "dpss1");
  publisher.AddMetric("NET_THROUGHPUT", "net.throughput.bps");
  publisher.AddMetric("NET_RTT", "net.rtt.s");
  PublishNet("NET_THROUGHPUT", 0.0, clock_.Now());  // degenerate
  PublishNet("NET_RTT", 0.060, clock_.Now());
  ASSERT_EQ(publisher.PublishOnce(), 2u);
  EXPECT_FALSE(OptimalTcpWindowBytes(pool_, suffix_, "dpss1").ok());
}

TEST_F(SummaryServiceTest, RepublishRefreshesValues) {
  SummaryPublisher publisher(gw_, pool_, suffix_, "dpss1");
  publisher.AddMetric("NET_RTT", "net.rtt.s",
                      SummaryPublisher::Window::k1m);
  PublishNet("NET_RTT", 0.060, clock_.Now());
  (void)publisher.PublishOnce();
  clock_.Advance(30 * kSecond);
  PublishNet("NET_RTT", 0.020, clock_.Now());  // path improved
  (void)publisher.PublishOnce();
  auto entry = pool_.Lookup(directory::schema::HostDn(suffix_, "dpss1")
                                .Child("cn", "summary-net.rtt.s"));
  ASSERT_TRUE(entry.ok());
  const double value =
      *ParseDouble(entry->Get(directory::schema::kAttrValue));
  EXPECT_LT(value, 0.06);  // fresh average reflects the new sample
}

// ---------------------------------------------------------------- GUIs

TEST_F(SummaryServiceTest, SensorTableRendersDirectoryContents) {
  (void)pool_.Upsert(directory::schema::MakeHostEntry(suffix_, "dpss1"));
  (void)pool_.Upsert(directory::schema::MakeSensorEntry(
      suffix_, "dpss1", "vmstat", "cpu", "gw.dpss1", 1000, 42 * kSecond));
  auto stopped = directory::schema::MakeSensorEntry(
      suffix_, "dpss1", "netstat", "network", "gw.dpss1", 500, 0);
  stopped.Set(directory::schema::kAttrStatus, "stopped");
  (void)pool_.Upsert(stopped);

  const std::string table = RenderSensorTable(pool_, suffix_);
  EXPECT_NE(table.find("SENSOR"), std::string::npos);
  EXPECT_NE(table.find("vmstat"), std::string::npos);
  EXPECT_NE(table.find("running"), std::string::npos);
  EXPECT_NE(table.find("stopped"), std::string::npos);
  EXPECT_NE(table.find("1000ms"), std::string::npos);
  EXPECT_NE(table.find("(2 sensors)"), std::string::npos);
}

TEST_F(SummaryServiceTest, ArchiveTableRendersContents) {
  directory::Entry container(suffix_.Child("ou", "archives"));
  container.Set("objectclass", "organizationalUnit");
  (void)pool_.Upsert(container);
  (void)pool_.Upsert(directory::schema::MakeArchiveEntry(
      suffix_, "grid-history", "inproc:archive", "VMSTAT_SYS_TIME(120)"));
  const std::string table = RenderArchiveTable(pool_, suffix_);
  EXPECT_NE(table.find("grid-history"), std::string::npos);
  EXPECT_NE(table.find("VMSTAT_SYS_TIME(120)"), std::string::npos);
  EXPECT_NE(table.find("(1 archives)"), std::string::npos);
}

TEST_F(SummaryServiceTest, TablesSurviveDirectoryOutage) {
  server_->SetAlive(false);
  const std::string table = RenderSensorTable(pool_, suffix_);
  EXPECT_NE(table.find("directory unavailable"), std::string::npos);
}

}  // namespace
}  // namespace jamm::consumers
