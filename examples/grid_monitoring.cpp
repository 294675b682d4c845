// grid_monitoring — the paper's operational scenarios on a two-host grid:
//
//  * on-demand monitoring (§2.0/§2.2): "an FTP client connecting to an
//    FTP server could automatically trigger netstat and vmstat monitoring
//    on both the client and server for the duration of the connection" —
//    the port monitor starts sensors when traffic hits port 21 and stops
//    them when the connection goes idle;
//  * configuration served from a central HTTP server, hot-reloaded;
//  * a process monitor that restarts a crashed server and emails the
//    admin;
//  * an overview monitor that pages only when BOTH the primary and the
//    backup server are down (§2.2's 2 A.M. example);
//  * an archiver recording a sampled history;
//  * the summary data service (§7.0): the primary's gateway averages the
//    path figures the FTP transfer reports, publishes them into the
//    directory, and a "network-aware" client sizes its TCP buffer from
//    them;
//  * self-telemetry: the monitor's own vitals served as "/metrics" from
//    the same HTTP server that serves sensor configuration, and every
//    event carrying a NetLogger-style trace (sensor → manager → gateway
//    → archiver hops with per-hop timestamps).
#include <cstdio>

#include "archive/archive.hpp"
#include "consumers/archiver.hpp"
#include "consumers/overview_monitor.hpp"
#include "consumers/process_monitor.hpp"
#include "consumers/summary_service.hpp"
#include "directory/replication.hpp"
#include "manager/sensor_manager.hpp"
#include "rpc/httpsim.hpp"
#include "sensors/host_sensors.hpp"
#include "sensors/process_sensor.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/http_export.hpp"
#include "telemetry/trace.hpp"

using namespace jamm;  // NOLINT: example brevity

namespace {

struct GridHost {
  GridHost(const std::string& name, SimClock& clock,
           directory::DirectoryPool* pool, const directory::Dn& suffix)
      : machine(name, clock), gateway("gw." + name, clock) {
    manager::SensorManager::Options options;
    options.clock = &clock;
    options.host = &machine;
    options.gateway = &gateway;
    options.directory = pool;
    options.directory_suffix = suffix;
    options.gateway_address = "gw." + name;
    options.port_idle_timeout = 5 * kSecond;
    manager = std::make_unique<manager::SensorManager>(std::move(options));
  }

  sysmon::SimHost machine;
  gateway::EventGateway gateway;
  std::unique_ptr<manager::SensorManager> manager;
};

}  // namespace

int main() {
  SimClock clock;
  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  auto ldap = std::make_shared<directory::DirectoryServer>(suffix,
                                                           "ldap://grid");
  directory::DirectoryPool pool;
  pool.AddServer(ldap);

  GridHost ftp_server("ftp.lbl.gov", clock, &pool, suffix);
  GridHost backup("ftp-backup.lbl.gov", clock, &pool, suffix);

  // Central configuration on an HTTP server (paper §2.2/§5.0).
  rpc::HttpSimServer http;
  http.Put("/jamm/grid.conf", R"(
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
name = ftpd-watch
kind = process
process = ftpd
interval_ms = 1000
mode = always
)");
  ftp_server.manager->SetConfigFetcher(http.MakeFetcher("/jamm/grid.conf"));
  backup.manager->SetConfigFetcher(http.MakeFetcher("/jamm/grid.conf"));

  ftp_server.machine.StartProcess("ftpd");
  backup.machine.StartProcess("ftpd");

  // Consumers.
  consumers::ProcessMonitorConsumer procmon("procmon", clock);
  consumers::ProcessActions actions;
  actions.restart.emplace();
  actions.email = [](const std::string& what) {
    std::printf("  [email to admin] %s — restarted automatically\n",
                what.c_str());
  };
  (void)procmon.Watch(ftp_server.gateway, &ftp_server.machine, "ftpd",
                      actions);

  consumers::OverviewMonitor overview("overview");
  (void)overview.SubscribeTo(ftp_server.gateway);
  (void)overview.SubscribeTo(backup.gateway);
  auto down = [](const ulm::RecordView& rec) {
    return rec.event_name() == sensors::event::kProcDiedAbnormal ||
           rec.event_name() == sensors::event::kProcDiedNormal;
  };
  overview.AddRule(
      "both-ftp-down",
      {{"ftp.lbl.gov", "PROC_*", down},
       {"ftp-backup.lbl.gov", "PROC_*", down}},
      [](const std::string& rule) {
        std::printf("  [PAGE the admin at 2 A.M.!] rule '%s' fired\n",
                    rule.c_str());
      });

  archive::EventArchive archive("grid-history");
  archive.SetSamplingPolicy(0.25);  // sample normal traffic, keep errors
  consumers::ArchiverAgent archiver("grid-history", archive,
                                    "inproc:archive", &clock);
  (void)archiver.SubscribeTo(ftp_server.gateway);
  (void)archiver.SubscribeTo(backup.gateway);

  // Summary data service (PAPER.md §7.0): "network sensors publish summary
  // throughput and latency data in the directory service, which is used by
  // a 'network-aware' client to optimally set its TCP buffer size."
  consumers::SummaryPublisher summaries(ftp_server.gateway, pool, suffix,
                                        "ftp.lbl.gov");
  summaries.AddMetric("NET_THROUGHPUT", "net.throughput.bps");
  summaries.AddMetric("NET_RTT", "net.rtt.s");
  auto report_path = [&](double throughput_bps, double rtt_s) {
    ulm::FlatRecord bw(clock.Now(), "ftp.lbl.gov", "ftp", "Usage",
                       "NET_THROUGHPUT");
    bw.SetField("VAL", throughput_bps);
    ftp_server.gateway.Publish(bw);
    ulm::FlatRecord rtt(clock.Now(), "ftp.lbl.gov", "ftp", "Usage", "NET_RTT");
    rtt.SetField("VAL", rtt_s);
    ftp_server.gateway.Publish(rtt);
  };

  // Self-telemetry: the registry every subsystem instruments itself into,
  // published two ways — a "/metrics" text document on the same HTTP
  // server that serves grid.conf, and periodic TELEMETRY.* ULM events into
  // the primary's gateway (so they reach the archive like any sensor
  // event: the monitor monitoring itself).
  telemetry::TelemetryExporter::Options texp;
  texp.instance = "ftp.lbl.gov";
  texp.emit_interval = 30 * kSecond;
  telemetry::TelemetryExporter exporter(telemetry::Metrics(), clock, texp);
  telemetry::ServeMetrics(exporter, http);
  exporter.SetEventSink([&ftp_server](const ulm::Record& rec) {
    ulm::FlatRecord flat = ulm::FlatRecord::FromRecord(rec);
    ftp_server.gateway.Publish(flat);
  });

  auto tick = [&](int seconds, auto&& perturb) {
    for (int s = 0; s < seconds; ++s) {
      perturb(s);
      ftp_server.manager->Tick();
      backup.manager->Tick();
      exporter.Tick();
      clock.Advance(kSecond);
    }
  };

  std::printf("== phase 1: idle grid (netstat-ftp should stay OFF) ==\n");
  tick(20, [](int) {});
  std::printf("  running on ftp.lbl.gov:");
  for (const auto& name : ftp_server.manager->RunningSensors()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  std::printf("== phase 2: an FTP session arrives (port 21 active) ==\n");
  tick(15, [&](int s) {
    if (s < 10) {
      ftp_server.machine.AddPortTraffic(21, 50000);
      report_path(120e6 + s * 2e6, 0.045);  // the transfer's own figures
    }
  });
  std::printf("  during transfer:");
  for (const auto& name : ftp_server.manager->RunningSensors()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n  port triggers so far: %llu, port stops: %llu\n",
              static_cast<unsigned long long>(
                  ftp_server.manager->stats().port_triggers),
              static_cast<unsigned long long>(
                  ftp_server.manager->stats().port_stops));
  std::printf("  summary service: %zu metric(s) published\n",
              summaries.PublishOnce());
  auto window = consumers::OptimalTcpWindowBytes(pool, suffix, "ftp.lbl.gov");
  if (!window.ok()) {
    std::fprintf(stderr, "summary lookup failed: %s\n",
                 window.status().ToString().c_str());
    return 1;
  }
  std::printf("  network-aware client: TCP buffer %.0f bytes "
              "(bandwidth x delay)\n",
              *window);

  std::printf("== phase 3: ftpd crashes on the primary ==\n");
  ftp_server.machine.StopProcess("ftpd", /*crashed=*/true);
  tick(5, [](int) {});

  std::printf("== phase 4: both servers die → overview pages ==\n");
  ftp_server.machine.StopProcess("ftpd", true);
  backup.machine.StopProcess("ftpd", true);
  tick(5, [](int) {});

  (void)archiver.PublishTo(pool, suffix);
  auto entry = pool.Lookup(directory::schema::ArchiveDn(suffix,
                                                        "grid-history"));
  std::printf("== archive directory entry ==\n");
  if (entry.ok()) std::printf("%s", entry->ToString().c_str());
  std::printf("archive holds %zu of %llu ingested events (sampled)\n",
              archive.size(),
              static_cast<unsigned long long>(archive.ingested()));

  // Every archived sensor event carries a trace; show one end-to-end.
  std::printf("== event trace (NetLogger-style, one archived event) ==\n");
  const ulm::FlatBatch vmstat = archive.QueryEvents("VMSTAT_*", 0, clock.Now());
  for (std::size_t i = 0; i < vmstat.size(); ++i) {
    const ulm::RecordView rec = vmstat.View(i);
    if (!telemetry::HasTrace(rec)) continue;
    const auto ctx = telemetry::Extract(rec);
    std::printf("  trace %s %s:\n",
                telemetry::IdToHex(ctx->trace_id).c_str(),
                std::string(rec.event_name()).c_str());
    for (const auto& hop : telemetry::Hops(rec.ToRecord())) {
      std::printf("    %-8s @ %lld us\n", hop.name.c_str(),
                  static_cast<long long>(hop.ts));
    }
    break;
  }

  // The same registry snapshot a consumer would GET from "/metrics".
  std::printf("== self-telemetry (GET %s) ==\n",
              exporter.options().http_path.c_str());
  exporter.Tick();  // refresh the served document one last time
  auto metrics_doc = http.Get(exporter.options().http_path);
  if (metrics_doc.ok()) std::printf("%s", metrics_doc->c_str());
  return 0;
}
