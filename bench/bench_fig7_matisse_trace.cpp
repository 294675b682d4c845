// E3 (Figure 7): "NetLogger real time analysis of JAMM managed Sensor
// data" — the full monitored Matisse run. The JAMM pipeline (manager →
// vmstat/netstat sensors → gateway → event collector) watches the
// receiving host while the striped transfer runs; the merged log is
// rendered in nlv form, and the paper's two correlations are checked:
// retransmit events line up with the frame-arrival gap, and system CPU on
// the receiving host is high.
#include <cstdio>

#include "archive/nlv.hpp"
#include "consumers/collector.hpp"
#include "manager/sensor_manager.hpp"
#include "matisse/matisse.hpp"
#include "netlogger/merge.hpp"
#include "sensors/host_sensors.hpp"

using namespace jamm;  // NOLINT: bench brevity

int main() {
  netsim::Simulator sim;
  netsim::Network net(sim, 2026);
  auto topo = netsim::BuildMatisseWan(net, 4);
  matisse::MatisseConfig mconfig;
  mconfig.dpss_servers = 4;
  matisse::MatisseApp app(sim, net, topo, mconfig);

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
      "real-time-monitor", [&](const std::string&) { return &gateway; });
  (void)collector.SubscribeTo(gateway, {});

  app.Start();
  std::function<void()> tick = [&] {
    manager.Tick();
    if (sim.Now() < 30 * kSecond) sim.Schedule(kSecond, tick);
  };
  sim.Schedule(0, tick);
  sim.RunUntil(30 * kSecond);

  auto merged = netlogger::MergeLogs({app.events(), collector.Merged()});
  std::printf("E3 / Figure 7 — NetLogger real-time analysis of JAMM "
              "managed sensor data\n");
  std::printf("paper: frame lifelines with a large no-data gap, TCP "
              "retransmit points inside it,\n       and high "
              "VMSTAT_SYS_TIME on the receiving host.\n\n");

  const archive::OfflineLog log(std::move(merged));
  const TimePoint t1 = 30 * kSecond, t0 = t1 - 8 * kSecond;
  auto retrans = log.Points("TCPD_RETRANSMITS");
  auto sys = log.Points("VMSTAT_SYS_TIME", "VAL");
  archive::NlvRenderer nlv(t0, t1, 100);
  nlv.AddPointRow("TCPD_RETRANSMITS", retrans);
  nlv.AddLoadlineRow("VMSTAT_USER_TIME", log.Points("VMSTAT_USER_TIME", "VAL"));
  nlv.AddLoadlineRow("VMSTAT_SYS_TIME", sys);
  nlv.AddLoadlineRow("VMSTAT_FREE_MEMORY",
                     log.Points("VMSTAT_FREE_MEMORY", "VAL"));
  nlv.AddLifelines({"MPLAY_START_READ_FRAME", "MPLAY_END_READ_FRAME",
                    "MPLAY_START_PUT_IMAGE", "MPLAY_END_PUT_IMAGE"},
                   log.Lifelines({"FRAME.ID"}));
  std::printf("%s\n", nlv.Render().c_str());

  // Correlation 1: retransmits vs frame gaps.
  auto gaps = archive::FindGaps(log.Points("MPLAY_END_READ_FRAME"),
                                2 * kSecond);
  const std::size_t inside =
      archive::CountPointsInGaps(retrans, gaps, 500 * kMillisecond);
  std::printf("frames completed: %llu; gaps >2s: %zu\n",
              static_cast<unsigned long long>(app.frames_completed()),
              gaps.size());
  std::printf("retransmit events: %zu total, %zu inside/near gaps "
              "(%.0f%%)\n",
              retrans.size(), inside,
              retrans.empty() ? 0.0
                              : 100.0 * static_cast<double>(inside) /
                                    static_cast<double>(retrans.size()));

  // Correlation 2: high system CPU on the receiving host.
  double sys_peak = 0, sys_sum = 0;
  std::size_t sys_n = 0;
  for (const auto& p : sys) {
    if (!p.has_value) continue;
    sys_peak = std::max(sys_peak, p.value);
    sys_sum += p.value;
    ++sys_n;
  }
  std::printf("VMSTAT_SYS_TIME on receiving host: mean %.0f%%, peak "
              "%.0f%% (paper: 'high level of system CPU usage')\n",
              sys_n == 0 ? 0 : sys_sum / static_cast<double>(sys_n),
              sys_peak);

  // Correlation 3: no SNMP errors on the path routers → not the network.
  std::int64_t router_errors = 0;
  for (netsim::NodeId node : {topo.lbl_router, topo.supernet,
                              topo.isi_router}) {
    for (std::uint32_t ifidx = 1; ifidx <= 4; ++ifidx) {
      router_errors +=
          net.Snmp(node).Counter(sysmon::oid::IfInErrors(ifidx)).value_or(0);
    }
  }
  std::printf("SNMP errors on routers/switches: %lld (paper: 'no errors "
              "were reported')\n",
              static_cast<long long>(router_errors));
  std::printf("\nconclusion: %s\n",
              (inside > 0 && sys_peak > 50 && router_errors == 0)
                  ? "the receiving host is the bottleneck — REPRODUCED"
                  : "shape not fully reproduced");
  return 0;
}
