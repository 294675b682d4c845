// quickstart — the smallest complete JAMM deployment, in one process:
//
//   simulated host  →  sensor manager (vmstat + netstat sensors)
//                   →  event gateway  →  streaming consumer (you)
//
// plus a directory the sensors publish into, and a query-mode lookup of
// the most recent event. Run it; it prints the live ULM event stream for
// a simulated 30-second window during which the host gets busy. It ends
// with the NetLogger client API an application uses to log its own events
// to each of the paper's destinations.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "consumers/dashboard.hpp"
#include "directory/replication.hpp"
#include "gateway/gateway.hpp"
#include "manager/sensor_manager.hpp"
#include "netlogger/logger.hpp"
#include "netlogger/merge.hpp"
#include "sensors/host_sensors.hpp"
#include "transport/inproc.hpp"
#include "transport/net_sink.hpp"

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

  // --- NetLogger client API (PAPER.md §1): "memory/file/net/syslog
  // destinations", buffered and flushed explicitly or when the buffer
  // fills, plus "tools for collecting and sorting log files" -----------
  std::printf("\n=== NetLogger: one application, four destinations ===\n");
  netlogger::NetLogger app("quickstart-app", clock, "dpss1.lbl.gov",
                           /*buffer_capacity=*/4);
  app.OpenMemory();
  (void)app.Write("APP_START", {{"ARGS", "--demo"}});
  (void)app.Flush();
  std::printf("memory: %zu record(s) held in the process\n",
              app.TakeBuffered().size());

  // A local file and syslog at once, behind one tee.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jamm-quickstart-" + std::to_string(::getpid()) + ".log"))
          .string();
  auto file = std::make_shared<netlogger::FileSink>(path);
  if (!file->Open().ok()) return 1;
  auto tee = std::make_shared<netlogger::TeeSink>();
  tee->Add(file);
  tee->Add(std::make_shared<netlogger::SyslogSimSink>("local0"));
  app.OpenSink(tee);
  for (int block = 0; block < 6; ++block) {
    clock.Advance(2 * kMillisecond);
    (void)app.Write("APP_READ", {{"BLOCK", std::to_string(block)}});
  }
  (void)app.Close();  // flushes the two records the buffer still held

  // A remote collector, reached over an in-process channel pair.
  auto [to_collector, collector] = transport::MakeChannelPair("netlogger");
  app.OpenSink(std::make_shared<transport::NetSink>(std::move(to_collector)));
  for (int block = 0; block < 3; ++block) {
    // Stamped between the file's records, so the merge below interleaves.
    const TimePoint ts = clock.Now() - (5 - 4 * block) * kMillisecond;
    ulm::FlatRecord rec(ts, "dpss2.lbl.gov", "quickstart-app", "Usage",
                        "APP_WRITE");
    (void)app.Write(rec.View());
  }
  (void)app.Close();
  ulm::FlatBatch received;
  while (auto msg = collector->TryReceive()) {
    auto rec = transport::DecodeEventMessage(*msg);
    if (rec.ok()) (void)received.Append(rec->View());
  }

  auto from_file = netlogger::LoadLogFile(path);
  std::filesystem::remove(path);
  if (!from_file.ok()) return 1;
  std::printf("file: %zu, syslog: %zu, net: %zu record(s)\n",
              from_file->size(),
              netlogger::SyslogSimSink::Read("local0").size(),
              received.size());
  const ulm::FlatBatch merged = netlogger::MergeLogs({*from_file, received});
  std::printf("merged log: %zu records, sorted by time: %s\n",
              merged.size(),
              netlogger::IsSortedByTime(merged) ? "yes" : "NO");
  for (std::size_t i = 0; i < merged.size(); ++i) {
    std::printf("%s\n", merged.View(i).ToAscii().c_str());
  }
  return netlogger::IsSortedByTime(merged) ? 0 : 1;
}
