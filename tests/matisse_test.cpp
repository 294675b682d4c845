// Tests for the Matisse application simulation: pipeline event sequence,
// lifeline integrity, the §6 frame-rate shape (1 server ≈ 6 fps steady vs
// 4 servers bursty/slow), Figure-3 read() clustering, and the sensor
// coupling that feeds Figure 7.
#include <gtest/gtest.h>

#include "archive/nlv.hpp"
#include "matisse/matisse.hpp"

namespace jamm::matisse {
namespace {

struct Rig {
  explicit Rig(int servers, MatisseConfig config = {}) : net(sim, 11) {
    config.dpss_servers = servers;
    topo = netsim::BuildMatisseWan(net, servers);
    app = std::make_unique<MatisseApp>(sim, net, topo, config);
  }

  netsim::Simulator sim;
  netsim::Network net;
  netsim::MatisseTopology topo;
  std::unique_ptr<MatisseApp> app;
};

TEST(MatisseTest, CompletesFramesAndEmitsPipelineEvents) {
  Rig rig(1);
  rig.app->Start();
  rig.sim.RunFor(5 * kSecond);
  ASSERT_GT(rig.app->frames_completed(), 3u);

  const auto& events = rig.app->events();
  auto count = [&](std::string_view name) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events.View(i).event_name() == name) ++n;
    }
    return n;
  };
  const std::size_t frames = rig.app->frames_completed();
  EXPECT_GE(count(event::kStartReadFrame), frames);
  EXPECT_EQ(count(event::kEndReadFrame), frames);
  EXPECT_GE(count(event::kStartPutImage), frames - 1);
  EXPECT_GE(count(event::kDpssStartSend), frames);  // one per stripe
}

TEST(MatisseTest, LifelinesAreOrderedPerFrame) {
  Rig rig(2);
  rig.app->Start();
  rig.sim.RunFor(5 * kSecond);
  const archive::OfflineLog log(rig.app->events());
  auto lifelines = log.Lifelines({"FRAME.ID"});
  ASSERT_GT(lifelines.size(), 2u);
  for (const auto& line : lifelines) {
    // Within a frame: START_READ first; END_READ before START_PUT.
    TimePoint start_read = -1, end_read = -1, start_put = -1;
    for (const auto& hop : line.hops) {
      if (hop.event == event::kStartReadFrame) start_read = hop.ts;
      if (hop.event == event::kEndReadFrame) end_read = hop.ts;
      if (hop.event == event::kStartPutImage) start_put = hop.ts;
    }
    ASSERT_GE(start_read, 0) << line.object_id;
    if (end_read >= 0) {
      EXPECT_GT(end_read, start_read);
    }
    if (start_put >= 0 && end_read >= 0) {
      EXPECT_GE(start_put, end_read);
    }
  }
}

TEST(MatisseTest, SingleServerReachesSteadySixFps) {
  // §6: with one DPSS server (one socket) throughput recovers to
  // ~140 Mbit/s → at 3 MB/frame that is ~6 frames/sec.
  Rig rig(1);
  rig.app->Start();
  rig.sim.RunFor(20 * kSecond);
  // Skip the slow-start transient: measure the last 10 seconds.
  const auto& arrivals = rig.app->frame_arrivals();
  std::size_t late = 0;
  for (TimePoint t : arrivals) {
    if (t >= 10 * kSecond) ++late;
  }
  const double fps = static_cast<double>(late) / 10.0;
  EXPECT_GT(fps, 4.0);
  EXPECT_LT(fps, 8.0);
}

TEST(MatisseTest, FourServersBurstyAndSlow) {
  // §6: "Sometimes images arrived at 6 frames/sec, and other times only
  // 1-2 frames/sec" — with four stripe servers the receiving host
  // collapses and the rate is low/bursty.
  Rig rig(4);
  rig.app->Start();
  rig.sim.RunFor(20 * kSecond);
  const auto& arrivals = rig.app->frame_arrivals();
  std::size_t late = 0;
  for (TimePoint t : arrivals) {
    if (t >= 10 * kSecond) ++late;
  }
  const double fps = static_cast<double>(late) / 10.0;
  EXPECT_LT(fps, 3.0);  // collapsed well below the single-server rate
  EXPECT_GT(rig.app->total_retransmits(), 0u);
}

TEST(MatisseTest, ReadSizesClusterAroundTwoValues) {
  // Figure 3: the read() scatter clusters around two distinct values —
  // full-buffer reads when data is streaming and small trickle reads.
  Rig rig(4);
  rig.app->Start();
  rig.sim.RunFor(15 * kSecond);
  const auto& sizes = rig.app->read_sizes();
  ASSERT_GT(sizes.size(), 100u);
  auto centers = archive::FindClusters1D(sizes, 2);
  ASSERT_EQ(centers.size(), 2u);
  // "the (unexpected) clustering of the data around two distinct values":
  // small trickle reads while TCP crawls vs large reads when a recovery
  // burst delivers accumulated data at once.
  EXPECT_GT(centers[1], 3 * centers[0]);
  // Both modes carry real mass and the clustering is tight.
  std::size_t upper = 0;
  const double midpoint = (centers[0] + centers[1]) / 2;
  for (double v : sizes) {
    if (v > midpoint) ++upper;
  }
  EXPECT_GT(upper, 20u);
  EXPECT_LT(upper, sizes.size() - 20u);
  EXPECT_GT(archive::ClusterTightness(sizes, centers, centers[1] / 3), 0.9);
}

TEST(MatisseTest, SensorCouplingReflectsNetworkState) {
  Rig rig(4);
  rig.app->Start();
  rig.sim.RunFor(10 * kSecond);
  auto metrics = rig.app->compute_host().Sample();
  ASSERT_TRUE(metrics.ok());
  // The receiving host shows high system CPU (Figure 7's
  // VMSTAT_SYS_TIME) and accumulated TCP retransmissions.
  EXPECT_GT(metrics->cpu_sys_pct, 30.0);
  EXPECT_GT(metrics->tcp_retransmits, 0);
  // TCPD_RETRANSMITS point events present in the log.
  const archive::OfflineLog log(rig.app->events());
  EXPECT_FALSE(log.Points(event::kTcpdRetransmits).empty());
}

TEST(MatisseTest, RetransmitsCorrelateWithFrameGaps) {
  // Figure 7's headline: "Note the correlation between the TCP retransmit
  // events and the large gap with no data being received."
  Rig rig(4);
  rig.app->Start();
  rig.sim.RunFor(20 * kSecond);
  const archive::OfflineLog log(rig.app->events());
  auto arrivals = log.Points(event::kEndReadFrame);
  ASSERT_GT(arrivals.size(), 3u);
  auto gaps = archive::FindGaps(arrivals, 2 * kSecond);
  if (gaps.empty()) GTEST_SKIP() << "no long gaps this seed";
  // A decent share of retransmit events falls inside (or near) the gaps.
  const std::size_t inside = archive::CountPointsInGaps(
      log.Points(event::kTcpdRetransmits), gaps, 500 * kMillisecond);
  EXPECT_GT(inside, 0u);
}

TEST(MatisseTest, MaxFramesStopsPipeline) {
  MatisseConfig config;
  config.max_frames = 3;
  Rig rig(1, config);
  rig.app->Start();
  rig.sim.RunFor(30 * kSecond);
  EXPECT_EQ(rig.app->frames_completed(), 3u);
}

TEST(MatisseTest, StopHaltsEventEmission) {
  Rig rig(1);
  rig.app->Start();
  rig.sim.RunFor(3 * kSecond);
  rig.app->Stop();
  const std::size_t frozen = rig.app->events().size();
  rig.sim.RunFor(3 * kSecond);
  EXPECT_EQ(rig.app->events().size(), frozen);
}

}  // namespace
}  // namespace jamm::matisse
