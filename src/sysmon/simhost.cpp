#include "sysmon/simhost.hpp"

#include <algorithm>

namespace jamm::sysmon {

SimHost::SimHost(std::string name, const Clock& clock, std::uint64_t seed)
    : name_(std::move(name)), clock_(clock), rng_(seed) {
  counters_.mem_total_kb = 512 * 1024;  // 512 MB, a healthy 2000-era server
  counters_.mem_free_kb = 384 * 1024;
  counters_.tcp_window_bytes = 64 * 1024;
}

Result<HostMetrics> SimHost::Sample() {
  const TimePoint now = clock_.Now();
  // Expire finished bursts, accumulate the active ones.
  std::erase_if(bursts_, [now](const Burst& b) { return b.until <= now; });
  double user = base_user_pct_;
  double sys = base_sys_pct_;
  for (const auto& b : bursts_) {
    user += b.user_pct;
    sys += b.sys_pct;
  }
  HostMetrics m = counters_;
  // ±1.5% deterministic noise keeps traces organic without hiding signal.
  m.cpu_user_pct = std::clamp(user + rng_.UniformReal(-1.5, 1.5), 0.0, 100.0);
  m.cpu_sys_pct = std::clamp(sys + rng_.UniformReal(-1.5, 1.5), 0.0, 100.0);
  m.cpu_idle_pct =
      std::clamp(100.0 - m.cpu_user_pct - m.cpu_sys_pct, 0.0, 100.0);
  return m;
}

void SimHost::SetBaseLoad(double user_pct, double sys_pct) {
  base_user_pct_ = user_pct;
  base_sys_pct_ = sys_pct;
}

void SimHost::AddLoadBurst(double user_pct, double sys_pct,
                           Duration duration) {
  bursts_.push_back({user_pct, sys_pct, clock_.Now() + duration});
}

void SimHost::SetMemory(std::int64_t total_kb, std::int64_t free_kb) {
  counters_.mem_total_kb = total_kb;
  counters_.mem_free_kb = std::min(free_kb, total_kb);
}

void SimHost::ConsumeMemory(std::int64_t kb) {
  counters_.mem_free_kb = std::max<std::int64_t>(0, counters_.mem_free_kb - kb);
}

void SimHost::ReleaseMemory(std::int64_t kb) {
  counters_.mem_free_kb =
      std::min(counters_.mem_total_kb, counters_.mem_free_kb + kb);
}

void SimHost::AddTcpRetransmits(std::int64_t n) {
  counters_.tcp_retransmits += n;
}

void SimHost::SetTcpWindow(std::int64_t bytes) {
  counters_.tcp_window_bytes = bytes;
}

void SimHost::AddDiskIo(std::int64_t read_kb, std::int64_t write_kb) {
  counters_.disk_read_kb += read_kb;
  counters_.disk_write_kb += write_kb;
}

void SimHost::AddInterrupts(std::int64_t n) { counters_.interrupts += n; }

int SimHost::StartProcess(const std::string& name) {
  ProcessInfo& info = processes_[name];
  info.name = name;
  info.pid = next_pid_++;
  info.running = true;
  info.crashed = false;
  return info.pid;
}

void SimHost::StopProcess(const std::string& name, bool crashed) {
  auto it = processes_.find(name);
  if (it == processes_.end()) return;
  it->second.running = false;
  it->second.crashed = crashed;
}

void SimHost::SetProcessUsers(const std::string& name, std::int64_t users) {
  auto it = processes_.find(name);
  if (it != processes_.end()) it->second.users = users;
}

std::optional<ProcessInfo> SimHost::FindProcess(const std::string& name) const {
  auto it = processes_.find(name);
  if (it == processes_.end()) return std::nullopt;
  return it->second;
}

std::vector<ProcessInfo> SimHost::Processes() const {
  std::vector<ProcessInfo> out;
  out.reserve(processes_.size());
  for (const auto& [name, info] : processes_) out.push_back(info);
  return out;
}

void SimHost::AddPortTraffic(std::uint16_t port, std::int64_t bytes) {
  PortState& state = ports_[port];
  state.bytes += bytes;
  state.last_activity = clock_.Now();
}

std::int64_t SimHost::PortTraffic(std::uint16_t port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? 0 : it->second.bytes;
}

TimePoint SimHost::LastPortActivity(std::uint16_t port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? -1 : it->second.last_activity;
}

}  // namespace jamm::sysmon
