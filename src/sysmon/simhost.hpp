// SimHost: a simulated host whose counters are driven by scenario code
// (workload generators, the network simulator, failure injectors). This is
// the substitution for the paper's real monitored machines (DESIGN.md §2):
// sensors see exactly the counter streams vmstat/netstat/iostat would
// produce, but with controllable ground truth.
//
// Also carries the two per-host tables the agents need:
//   * a process table   — drives process sensors (start/die/crash, user
//     counts for dynamic thresholds);
//   * port activity     — drives the port monitor agent (traffic on
//     well-known ports triggers sensors).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "sysmon/metrics.hpp"

namespace jamm::sysmon {

struct ProcessInfo {
  std::string name;
  int pid = 0;
  bool running = false;
  bool crashed = false;      // died abnormally (vs clean exit)
  std::int64_t users = 0;    // e.g. connected users, for threshold sensors
};

class SimHost final : public MetricsProvider {
 public:
  SimHost(std::string name, const Clock& clock, std::uint64_t seed = 1);

  const std::string& host() const override { return name_; }

  /// Snapshot current state; adds small bounded noise to the CPU figures so
  /// traces look organic (noise is deterministic per seed).
  Result<HostMetrics> Sample() override;

  // ----------------------------------------------------------- workload

  /// Baseline load when no bursts are active.
  void SetBaseLoad(double user_pct, double sys_pct);
  /// Additional load active during [now, now+duration) — bursts stack.
  void AddLoadBurst(double user_pct, double sys_pct, Duration duration);
  void SetMemory(std::int64_t total_kb, std::int64_t free_kb);
  void ConsumeMemory(std::int64_t kb);   // free -= kb (floors at 0)
  void ReleaseMemory(std::int64_t kb);   // free += kb (caps at total)
  void AddTcpRetransmits(std::int64_t n);
  void SetTcpWindow(std::int64_t bytes);
  void AddDiskIo(std::int64_t read_kb, std::int64_t write_kb);
  void AddInterrupts(std::int64_t n);

  // ------------------------------------------------------ process table

  /// Start (or restart) a named process; returns its pid.
  int StartProcess(const std::string& name);
  /// `crashed` distinguishes abnormal death (process sensors report it).
  void StopProcess(const std::string& name, bool crashed);
  void SetProcessUsers(const std::string& name, std::int64_t users);
  std::optional<ProcessInfo> FindProcess(const std::string& name) const;
  std::vector<ProcessInfo> Processes() const;

  // ------------------------------------------------------ port activity

  /// Record traffic on a port (the port monitor watches these counters).
  void AddPortTraffic(std::uint16_t port, std::int64_t bytes);
  std::int64_t PortTraffic(std::uint16_t port) const;  // cumulative bytes
  /// Last-activity stamp for the port; -1 when no traffic was ever seen
  /// (0 is a valid simulation start time).
  TimePoint LastPortActivity(std::uint16_t port) const;

 private:
  struct Burst {
    double user_pct;
    double sys_pct;
    TimePoint until;
  };

  std::string name_;
  const Clock& clock_;
  mutable Rng rng_;

  double base_user_pct_ = 2.0;
  double base_sys_pct_ = 1.0;
  std::vector<Burst> bursts_;
  HostMetrics counters_;

  std::map<std::string, ProcessInfo> processes_;
  int next_pid_ = 1000;

  struct PortState {
    std::int64_t bytes = 0;
    TimePoint last_activity = -1;
  };
  std::map<std::uint16_t, PortState> ports_;
};

}  // namespace jamm::sysmon
