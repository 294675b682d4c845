// quickstart — the smallest complete JAMM deployment, in one process:
//
//   simulated host  →  sensor manager (vmstat + netstat sensors)
//                   →  event gateway  →  streaming consumer (you)
//
// plus a directory the sensors publish into, and a query-mode lookup of
// the most recent event. Run it; it prints the live ULM event stream for
// a simulated 30-second window during which the host gets busy.
#include <cstdio>

#include "consumers/dashboard.hpp"
#include "directory/replication.hpp"
#include "gateway/gateway.hpp"
#include "manager/sensor_manager.hpp"
#include "sensors/host_sensors.hpp"

using namespace jamm;  // NOLINT: example brevity

int main() {
  // --- the monitored host and its per-host agents --------------------
  SimClock clock;
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  gateway::EventGateway gateway("gw.dpss1", clock);

  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  auto server = std::make_shared<directory::DirectoryServer>(
      suffix, "ldap://directory.lbl.gov");
  directory::DirectoryPool directory;
  directory.AddServer(server);

  manager::SensorManager::Options options;
  options.clock = &clock;
  options.host = &host;
  options.gateway = &gateway;
  options.directory = &directory;
  options.directory_suffix = suffix;
  options.gateway_address = "gw.dpss1";
  manager::SensorManager manager(std::move(options));

  // --- configure sensors exactly as a config file would --------------
  auto config = Config::ParseString(R"(
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
)");
  if (!config.ok() || !manager.ApplyConfig(*config).ok()) {
    std::fprintf(stderr, "config failed\n");
    return 1;
  }

  // --- subscribe: we are the consumer ---------------------------------
  std::printf("=== streaming events (filter: all) ===\n");
  auto sub = gateway.SubscribeEncoded(
      "quickstart-consumer", {}, [](const ulm::EncodedRecord& enc) {
        std::printf("%s\n", enc.Ascii().c_str());
      });
  if (!sub.ok()) return 1;

  // --- run 30 simulated seconds; make the host interesting -----------
  for (int second = 0; second < 30; ++second) {
    if (second == 10) host.SetBaseLoad(70, 25);   // load spike
    if (second == 15) host.AddTcpRetransmits(6);  // network trouble
    if (second == 20) host.SetBaseLoad(5, 2);     // back to idle
    manager.Tick();
    clock.Advance(kSecond);
  }

  // --- query mode: just the most recent CPU reading ------------------
  auto latest = gateway.Query("VMSTAT_SYS_TIME");
  if (latest.ok()) {
    std::printf("\n=== query: most recent VMSTAT_SYS_TIME ===\n%s\n",
                latest->View().ToAscii().c_str());
  }

  // --- what the directory knows ---------------------------------------
  auto found = directory.Search(suffix, directory::SearchScope::kSubtree,
                                *directory::Filter::Parse(
                                    "(objectclass=jammSensor)"));
  if (found.ok()) {
    std::printf("\n=== directory: published sensors ===\n");
    for (const auto& entry : found->entries) {
      std::printf("%s  (gateway: %s, status: %s)\n",
                  entry.dn().ToString().c_str(),
                  entry.Get("gateway").c_str(), entry.Get("status").c_str());
    }
  }
  // The paper's Sensor Data GUI, as a text table.
  std::printf("\n=== JAMM Sensor Data GUI ===\n%s",
              consumers::RenderSensorTable(directory, suffix).c_str());

  auto stats = gateway.stats();
  std::printf("\ngateway: %llu events in, %llu delivered\n",
              static_cast<unsigned long long>(stats.events_in),
              static_cast<unsigned long long>(stats.events_delivered));
  return 0;
}
