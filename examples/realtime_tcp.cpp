// realtime_tcp — the production plumbing: the same gateway/consumer
// pipeline as quickstart, but over a REAL TCP connection on localhost,
// with the host sensors reading the REAL /proc of the machine running
// this example (falling back to a simulated host on non-Linux systems).
//
// Layout: the main thread plays the monitored host (sensor polling +
// gateway service loop); a consumer thread dials the gateway over TCP,
// subscribes with an on-change filter, and prints what it receives.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/procfs.hpp"
#include "sysmon/simhost.hpp"
#include "transport/tcp.hpp"

using namespace jamm;  // NOLINT: example brevity

int main() {
  SystemClock& clock = SystemClock::Instance();

  // Pick the real /proc provider when available.
  std::unique_ptr<sysmon::MetricsProvider> provider;
  std::unique_ptr<sysmon::SimHost> sim_host;
  if (std::filesystem::exists("/proc/stat")) {
    provider = std::make_unique<sysmon::ProcfsProvider>("localhost");
    std::printf("monitoring the real host via /proc\n");
  } else {
    sim_host = std::make_unique<sysmon::SimHost>("localhost", clock);
    std::printf("no /proc here; monitoring a simulated host\n");
  }
  sysmon::MetricsProvider& metrics =
      provider ? *provider : static_cast<sysmon::MetricsProvider&>(*sim_host);

  sensors::VmstatSensor vmstat("vmstat", clock, metrics,
                               500 * kMillisecond);
  sensors::NetstatSensor netstat("netstat", clock, metrics,
                                 500 * kMillisecond);
  (void)vmstat.Start();
  (void)netstat.Start();

  // Gateway served over real TCP.
  gateway::EventGateway gateway("gw.localhost", clock);
  gateway.EnableSummary(sensors::event::kVmstatUserTime);
  auto listener = transport::TcpListener::Create();
  if (!listener.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }
  const std::uint16_t port = (*listener)->port();
  gateway::GatewayService service(gateway, std::move(*listener));
  std::printf("gateway listening on %s\n", service.address().c_str());

  std::atomic<bool> done{false};

  // Consumer thread: dial, subscribe (on-change → no duplicate spam),
  // print the stream.
  std::thread consumer([&] {
    auto channel = transport::TcpDial("127.0.0.1", port);
    if (!channel.ok()) return;
    gateway::GatewayClient client(std::move(*channel));
    auto sub = client.Subscribe(
        "tcp-consumer", *gateway::FilterSpec::Parse("on-change"));
    if (!sub.ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   sub.status().ToString().c_str());
      return;
    }
    std::printf("consumer subscribed (id %s)\n\n", sub->c_str());
    while (!done.load()) {
      auto rec = client.NextEvent(200 * kMillisecond);
      if (rec.ok()) std::printf("%s\n", rec->View().ToAscii().c_str());
    }
    auto summary = client.Summary(sensors::event::kVmstatUserTime);
    if (summary.ok()) {
      std::printf("\n1-minute user-CPU average: %.1f%% over %zu samples\n",
                  summary->avg_1m, summary->count_1m);
    }
  });

  // Host side: ~5 real seconds of polling sensors into the gateway while
  // servicing the TCP connection.
  std::vector<ulm::Record> events;
  ulm::FlatRecord flat;
  const TimePoint start = clock.Now();
  TimePoint next_poll = start;
  while (clock.Now() - start < 5 * kSecond) {
    service.PollOnce();
    if (clock.Now() >= next_poll) {
      next_poll = clock.Now() + 500 * kMillisecond;
      events.clear();
      vmstat.Poll(events);
      netstat.Poll(events);
      for (const auto& rec : events) {
        flat.AssignRecord(rec);
        gateway.Publish(flat);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Signal shutdown, but keep servicing the connection so the consumer's
  // final summary request gets an answer.
  done.store(true);
  const TimePoint drain_until = clock.Now() + kSecond;
  while (clock.Now() < drain_until) {
    service.PollOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  consumer.join();

  auto stats = gateway.stats();
  std::printf("\ngateway: %llu in, %llu delivered, %llu filtered\n",
              static_cast<unsigned long long>(stats.events_in),
              static_cast<unsigned long long>(stats.events_delivered),
              static_cast<unsigned long long>(stats.events_filtered));
  return 0;
}
