// E7 (§2.2, event gateway): per-subscription filtering and summary data.
//
// Paper: "the netstat sensor may output the value of the TCP
// retransmission counter every second, but most consumers only want to be
// notified when the counter changes"; threshold example "if CPU load
// becomes greater than 50%"; delta example "if load changes by more than
// 20%"; summaries: "1, 10, and 60 minute averages of CPU usage".
//
// Workload: one hour of 1 Hz netstat + vmstat data with occasional
// retransmission bursts and a load wave; one subscriber per filter mode.
#include <cmath>
#include <cstdio>

#include "gateway/gateway.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/simhost.hpp"

using namespace jamm;  // NOLINT: bench brevity

int main() {
  SimClock clock;
  Rng rng(4);
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  gateway::EventGateway gateway("gw", clock);
  gateway.EnableSummary(sensors::event::kVmstatSysTime);

  sensors::NetstatSensor netstat("netstat", clock, host, kSecond);
  sensors::VmstatSensor vmstat("vmstat", clock, host, kSecond);
  (void)netstat.Start();
  (void)vmstat.Start();

  const char* modes[] = {"all", "on-change|NETSTAT_RETRANS",
                         "threshold:50|VMSTAT_SYS_TIME",
                         "delta:20|VMSTAT_SYS_TIME"};
  std::map<std::string, std::uint64_t> delivered;
  for (const char* mode : modes) {
    auto spec = gateway::FilterSpec::Parse(mode);
    std::string key = mode;
    (void)gateway.SubscribeEncoded(
        key, *spec,
        [&delivered, key](const ulm::EncodedRecord&) { ++delivered[key]; });
  }

  // One hour: load wave (sys CPU swings across 50%), sparse retransmit
  // bursts.
  std::uint64_t published = 0;
  ulm::FlatRecord flat;  // what the sensor manager hands the gateway
  for (int second = 0; second < 3600; ++second) {
    const double wave = 45 + 25 * std::sin(second / 120.0);
    host.SetBaseLoad(10, wave);
    if (second % 300 == 120) host.AddTcpRetransmits(rng.Uniform(1, 5));
    std::vector<ulm::Record> events;
    netstat.Poll(events);
    vmstat.Poll(events);
    for (const auto& rec : events) {
      flat.AssignRecord(rec);
      gateway.Publish(flat);
      ++published;
    }
    clock.Advance(kSecond);
  }

  std::printf("E7 / §2.2 — gateway filtering over one hour of 1 Hz "
              "sensors (%llu events published)\n\n",
              static_cast<unsigned long long>(published));
  std::printf("%-34s %12s %12s\n", "subscription filter", "delivered",
              "reduction");
  for (const char* mode : modes) {
    const std::uint64_t n = delivered[mode];
    std::printf("%-34s %12llu %11.1fx\n", mode,
                static_cast<unsigned long long>(n),
                static_cast<double>(published) /
                    static_cast<double>(std::max<std::uint64_t>(n, 1)));
  }

  auto summary = gateway.GetSummary(sensors::event::kVmstatSysTime);
  if (summary.ok()) {
    std::printf("\nsummary data (paper: '1, 10, and 60 minute averages of "
                "CPU usage'):\n");
    std::printf("  1m avg %.1f%% (%zu samples), 10m avg %.1f%%, "
                "60m avg %.1f%%\n",
                summary->avg_1m, summary->count_1m, summary->avg_10m,
                summary->avg_60m);
  }
  std::printf("\nshape check: on-change delivers only counter changes; "
              "threshold only crossings; delta only ±20%% moves — OK if "
              "reductions above are 10-1000x.\n");
  return 0;
}
