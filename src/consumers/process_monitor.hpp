// Process monitor consumer (paper §2.2): "This consumer can be used to
// trigger an action based on an event from a server process. For example,
// it might run a script to restart the processes, send email to a system
// administrator, or call a pager."
//
// ISSUE 4 replaces the unconditional restart bool with a supervised
// restart policy: repeated deaths back off exponentially and a
// crash-looping process is eventually quarantined — no further restarts,
// a `proc.quarantined` ULM event published so operators (and chaos tests)
// can observe it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gateway/gateway.hpp"
#include "resilience/supervisor.hpp"
#include "sensors/process_sensor.hpp"
#include "sysmon/simhost.hpp"

namespace jamm::consumers {

/// ULM event published when a crash-looping process is quarantined.
/// Lowercase on purpose: it must not match the monitor's own "PROC_*"
/// subscription glob and re-trigger the handler.
inline constexpr char kProcQuarantined[] = "proc.quarantined";

/// What to do when a watched process dies.
struct ProcessActions {
  /// Restart the process on its host under this supervision policy (like
  /// the paper's restart script, but with crash-loop protection). Engaged
  /// (default policy) via `restart.emplace()`; nullopt = never restart.
  std::optional<resilience::SupervisorPolicy> restart;
  /// Notification callbacks; invoked with a human-readable description.
  std::function<void(const std::string&)> email;
  std::function<void(const std::string&)> page;
};

class ProcessMonitorConsumer {
 public:
  ProcessMonitorConsumer(std::string name, const Clock& clock);
  ~ProcessMonitorConsumer();

  ProcessMonitorConsumer(const ProcessMonitorConsumer&) = delete;
  ProcessMonitorConsumer& operator=(const ProcessMonitorConsumer&) = delete;

  /// Watch `process_name` events arriving through `gw`; `host` is needed
  /// for the restart action.
  Status Watch(gateway::EventGateway& gw, sysmon::SimHost* host,
               const std::string& process_name, ProcessActions actions);

  /// Executes restarts whose backoff delay has elapsed. Call from the
  /// driving loop (the first death of a watch window restarts inline, so
  /// simple setups never need to Tick).
  void Tick();

  /// True if the watch for `process_name` has been quarantined.
  bool IsQuarantined(const std::string& process_name) const;

  struct Stats {
    std::uint64_t deaths_seen = 0;
    std::uint64_t restarts = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t emails = 0;
    std::uint64_t pages = 0;
  };
  const Stats& stats() const { return stats_; }

  void UnsubscribeAll();

 private:
  struct Watched {
    gateway::EventGateway* gw = nullptr;
    std::string subscription_id;
    sysmon::SimHost* host = nullptr;
    std::string process_name;
    ProcessActions actions;
    std::optional<resilience::Supervisor> supervisor;
    TimePoint restart_at{};
    bool restart_pending = false;
    bool quarantined = false;
  };

  void HandleEvent(Watched& watch, const ulm::RecordView& view);
  void Quarantine(Watched& watch, const std::string& description);
  void DoRestart(Watched& watch);

  std::string name_;
  const Clock& clock_;
  // unique_ptr: subscription callbacks capture the Watched address, which
  // must survive vector growth.
  std::vector<std::unique_ptr<Watched>> watched_;
  Stats stats_;
};

}  // namespace jamm::consumers
