// matisse_demo — the paper's §6 evaluation, end to end: run the Matisse
// MEMS-video pipeline over the simulated DARPA Supernet, monitor it with
// JAMM sensors through a gateway, collect everything with an event
// collector, write the merged NetLogger file, and perform the Figure-7
// analysis (frame lifelines, CPU loadlines, retransmit points) plus the
// diagnosis the paper reached: the receiving host is the bottleneck, and
// one data socket instead of four restores throughput.
#include <cstdio>

#include "archive/nlv.hpp"
#include "consumers/collector.hpp"
#include "gateway/gateway.hpp"
#include "manager/sensor_manager.hpp"
#include "matisse/matisse.hpp"
#include "netlogger/merge.hpp"
#include "sensors/host_sensors.hpp"

using namespace jamm;  // NOLINT: example brevity

namespace {

struct RunResult {
  double fps = 0;
  double mbit = 0;
  std::uint64_t retransmits = 0;
  double sys_cpu = 0;
  ulm::FlatBatch merged;
  TimePoint end_time = 0;
};

RunResult RunDemo(int servers, Duration span) {
  netsim::Simulator sim;
  netsim::Network net(sim, 2026);
  auto topo = netsim::BuildMatisseWan(net, servers);
  matisse::MatisseConfig config;
  config.dpss_servers = servers;
  matisse::MatisseApp app(sim, net, topo, config);

  // JAMM agents on the receiving host.
  gateway::EventGateway gateway("gw.compute", sim.clock());
  manager::SensorManager::Options options;
  options.clock = &sim.clock();
  options.host = &app.compute_host();
  options.gateway = &gateway;
  options.gateway_address = "gw.compute";
  manager::SensorManager manager(std::move(options));
  auto cfg = Config::ParseString(
      "[sensor]\nname = vmstat\nkind = vmstat\ninterval_ms = 1000\n"
      "[sensor]\nname = netstat\nkind = netstat\ninterval_ms = 1000\n");
  (void)manager.ApplyConfig(*cfg);

  consumers::EventCollector collector(
      "real-time-monitor",
      [&gateway](const std::string&) { return &gateway; });
  (void)collector.SubscribeTo(gateway, {});

  app.Start();
  // Drive manager ticks alongside the network simulation.
  std::function<void()> tick = [&] {
    manager.Tick();
    if (sim.Now() < span) sim.Schedule(kSecond, tick);
  };
  sim.Schedule(0, tick);
  sim.RunUntil(span);

  RunResult result;
  std::size_t late_frames = 0;
  for (TimePoint t : app.frame_arrivals()) {
    if (t >= span / 2) ++late_frames;
  }
  result.fps = static_cast<double>(late_frames) / ToSeconds(span / 2);
  result.mbit = app.AggregateThroughputBps() / 1e6;
  result.retransmits = app.total_retransmits();
  result.sys_cpu = net.ReceiverCpuPct(topo.compute);
  result.merged = netlogger::MergeLogs({app.events(), collector.Merged()});
  result.end_time = sim.Now();
  return result;
}

}  // namespace

int main() {
  std::printf("Running the May 2000 Matisse demo configuration "
              "(4 DPSS servers)...\n");
  RunResult four = RunDemo(4, 30 * kSecond);

  // Save the merged NetLogger file for offline nlv browsing.
  (void)netlogger::WriteLogFile("/tmp/matisse_jamm.log", four.merged);
  std::printf("merged NetLogger log: /tmp/matisse_jamm.log (%zu events)\n\n",
              four.merged.size());

  // ---- the Figure 7 view: last 8 seconds of the run ------------------
  const archive::OfflineLog log(four.merged);
  const TimePoint t1 = four.end_time;
  const TimePoint t0 = t1 - 8 * kSecond;
  archive::NlvRenderer nlv(t0, t1, 100);
  auto retrans = log.Points("TCPD_RETRANSMITS");
  nlv.AddPointRow("TCPD_RETRANSMITS", retrans);
  nlv.AddLoadlineRow("VMSTAT_SYS_TIME", log.Points("VMSTAT_SYS_TIME", "VAL"));
  nlv.AddLoadlineRow("VMSTAT_FREE_MEMORY",
                     log.Points("VMSTAT_FREE_MEMORY", "VAL"));
  auto lifelines = log.Lifelines({"FRAME.ID"});
  nlv.AddLifelines({"MPLAY_START_READ_FRAME", "MPLAY_END_READ_FRAME",
                    "MPLAY_START_PUT_IMAGE", "MPLAY_END_PUT_IMAGE"},
                   lifelines);
  std::printf("=== nlv real-time analysis (Figure 7) ===\n%s\n",
              nlv.Render().c_str());

  // ---- correlation analysis ------------------------------------------
  auto gaps = archive::FindGaps(log.Points("MPLAY_END_READ_FRAME"),
                                2 * kSecond);
  std::printf("frame-arrival gaps >2s: %zu; retransmit events inside "
              "gaps: %zu of %zu\n",
              gaps.size(),
              archive::CountPointsInGaps(retrans, gaps, 500 * kMillisecond),
              retrans.size());

  auto e2e = archive::SegmentLatency(lifelines, "MPLAY_START_READ_FRAME",
                                     "MPLAY_END_READ_FRAME");
  std::printf("frame read latency: mean %.2fs  p95 %.2fs  (n=%zu)\n\n",
              e2e.mean_s, e2e.p95_s, e2e.count);

  // ---- the paper's fix: one server instead of four --------------------
  std::printf("Applying the paper's fix: a single DPSS server...\n");
  RunResult one = RunDemo(1, 30 * kSecond);

  std::printf("\n=== results (paper: bursty 1-6 fps with 4 servers; "
              "~140 Mbit/s and steady with 1) ===\n");
  std::printf("%-22s %10s %12s %12s %10s\n", "configuration", "fps",
              "Mbit/s", "retransmits", "sys CPU");
  std::printf("%-22s %10.1f %12.1f %12llu %9.0f%%\n", "4 DPSS servers",
              four.fps, four.mbit,
              static_cast<unsigned long long>(four.retransmits),
              four.sys_cpu);
  std::printf("%-22s %10.1f %12.1f %12llu %9.0f%%\n", "1 DPSS server",
              one.fps, one.mbit,
              static_cast<unsigned long long>(one.retransmits), one.sys_cpu);
  std::printf("\ndiagnosis: no SNMP errors on the routers, high system CPU "
              "on the receiving host,\nretransmits correlated with frame "
              "gaps → the receiving host is the bottleneck.\n");
  return 0;
}
