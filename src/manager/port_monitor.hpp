// Port monitor agent (paper §2.2): "This agent monitors traffic on
// specified ports, and starts sensors only when network traffic on that
// port is detected. Using the port monitor agent, one is able to customize
// which sensors are run based on which applications are currently active,
// assuming that the applications use well-known ports."
//
// A port counts as active while traffic has been seen within the idle
// timeout; when it goes quiet the triggered sensors stop — "on-demand
// monitoring reduces the total amount of data collected" (§2.0).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/clock.hpp"
#include "sysmon/simhost.hpp"

namespace jamm::manager {

class PortMonitor {
 public:
  PortMonitor(const Clock& clock, const sysmon::SimHost& host,
              Duration idle_timeout = 5 * kSecond);

  /// Reconfigurable at runtime (the paper's port monitor GUI can "add a
  /// new port of interest").
  void AddPort(std::uint16_t port);
  void RemovePort(std::uint16_t port);
  const std::set<std::uint16_t>& ports() const { return ports_; }

  Duration idle_timeout() const { return idle_timeout_; }

  /// Active = traffic observed within the idle window. A port that never
  /// saw traffic (stamp -1) is inactive.
  bool IsActive(std::uint16_t port) const;
  std::vector<std::uint16_t> ActivePorts() const;
  /// True if any of `ports` is active (sensor trigger condition).
  bool AnyActive(const std::vector<std::uint16_t>& ports) const;

 private:
  const Clock& clock_;
  const sysmon::SimHost& host_;
  Duration idle_timeout_;
  std::set<std::uint16_t> ports_;
};

}  // namespace jamm::manager
