// E8 (§2.3, scalability): "In the case where many consumers are
// requesting the same event data, the use of an event gateway reduces the
// amount of work on and the amount of network traffic from the host being
// monitored."
//
// Two deployments of the same 60 s / 1 Hz sensor workload:
//   without gateway — every consumer subscribes at the host, so the host
//   transmits each event N times;
//   with gateway    — the host sends each event once to the gateway
//   (typically on another machine), which does the N-way fan-out.
// Reports events and bytes leaving the monitored host vs consumer count.
#include <cstdio>

#include "gateway/gateway.hpp"
#include "sensors/host_sensors.hpp"
#include "sysmon/simhost.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

struct Outcome {
  std::uint64_t host_events_sent = 0;  // event transmissions by the host
  std::uint64_t host_bytes_sent = 0;   // bytes on the host's uplink
  std::uint64_t consumer_events = 0;   // events received by all consumers
};

Outcome Run(int consumers, bool with_gateway) {
  SimClock clock;
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  sensors::VmstatSensor vmstat("vmstat", clock, host, kSecond);
  (void)vmstat.Start();

  Outcome out;
  // The "gateway" in both cases is an EventGateway object; the difference
  // is where the fan-out happens relative to the monitored host's uplink.
  gateway::EventGateway fanout("gw", clock);
  for (int c = 0; c < consumers; ++c) {
    (void)fanout.SubscribeEncoded("consumer-" + std::to_string(c), {},
                                  [&out](const ulm::EncodedRecord&) {
                                    ++out.consumer_events;
                                  });
  }

  ulm::FlatRecord flat;  // what the sensor manager hands the gateway
  for (int second = 0; second < 60; ++second) {
    std::vector<ulm::Record> events;
    vmstat.Poll(events);
    for (const auto& rec : events) {
      flat.AssignRecord(rec);
      const std::uint64_t wire_bytes = flat.View().ToAscii().size() + 8;
      if (with_gateway) {
        // Host → gateway once; gateway multiplies off-host.
        ++out.host_events_sent;
        out.host_bytes_sent += wire_bytes;
        fanout.Publish(flat);
      } else {
        // Host itself serves every consumer.
        out.host_events_sent += static_cast<std::uint64_t>(consumers);
        out.host_bytes_sent += wire_bytes *
                               static_cast<std::uint64_t>(consumers);
        fanout.Publish(flat);
      }
    }
    clock.Advance(kSecond);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("E8 / §2.3 — gateway fan-out: load on the monitored host "
              "vs consumer count (60 s @ 1 Hz vmstat)\n\n");
  std::printf("%10s | %22s | %22s | %9s\n", "consumers",
              "host sends (direct)", "host sends (gateway)", "saving");
  std::printf("%10s | %10s %11s | %10s %11s |\n", "", "events", "KB",
              "events", "KB");
  for (int consumers : {1, 2, 4, 8, 16, 32, 64}) {
    Outcome direct = Run(consumers, /*with_gateway=*/false);
    Outcome via_gw = Run(consumers, /*with_gateway=*/true);
    std::printf("%10d | %10llu %10.1f | %10llu %10.1f | %8.1fx\n",
                consumers,
                static_cast<unsigned long long>(direct.host_events_sent),
                static_cast<double>(direct.host_bytes_sent) / 1024.0,
                static_cast<unsigned long long>(via_gw.host_events_sent),
                static_cast<double>(via_gw.host_bytes_sent) / 1024.0,
                static_cast<double>(direct.host_events_sent) /
                    static_cast<double>(via_gw.host_events_sent));
  }
  std::printf("\nshape check: with the gateway the monitored host's "
              "transmissions are constant in the consumer count (the "
              "saving column ≈ N) — the §2.3 'impedance matching'.\n");
  return 0;
}
