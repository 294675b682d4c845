// Benchmark-side instrumentation: in-memory spans around every call the
// benchmark makes into a layer's public function, a global operator new
// counter attributed to the innermost open span, and a counting
// transport::Channel decorator for the benchmark's own dialers.
//
// Nothing here touches the library: spans wrap calls from the outside, the
// allocation hook replaces operator new in this binary only, and the
// decorator is installed through the dialers the benchmark hands to
// GatewayClient / ArchiveClient.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "transport/message.hpp"

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Allocations made by the calling thread since it started (operator new
/// calls, every variant). Always counted; reading it is free.
std::uint64_t ThreadAllocs();

/// Span names. Fixed so aggregation is an array index, not a map lookup.
enum class SpanName : std::uint8_t {
  kWave,            // driver: one sim-time step until visible
  kPerturb,         // driver: seeded host workload for the wave
  kManagerTick,     // SensorManager::Tick
  kServicePoll,     // GatewayService::PollOnce (site / leaf / tier)
  kFedPumpT0,       // RepublisherGateway::Pump, tier above the leaves
  kFedPumpT1,       // RepublisherGateway::Pump, middle tier
  kFedPumpRoot,     // RepublisherGateway::Pump, root
  kArchiverPump,    // ArchiverAgent::PumpRemote
  kConsumerDrain,   // GatewayClient::DrainEvents (live consumers)
  kArchiveIngested, // EventArchive::ingested (the visibility watermark)
  kRpcPoll,         // RpcServer::PollOnce that served >= 1 call
  kRpcPollIdle,     // RpcServer::PollOnce that served nothing
  kQueryRange,      // ArchiveClient calls, one span per arch.query kind
  kQueryEvents,
  kQueryHost,
  kQueryLifeline,
  kQueryLoadline,
  kQueryPoint,
  kQueryAgg,
  kCount
};
inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

/// One raw span, kept for the first waves of every phase.
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t wave = -1;   // wave id, -1 outside waves
  std::int32_t parent = -1; // index into the same thread's raw spans
  SpanName name = SpanName::kWave;
  std::uint32_t thread = 0;
  std::uint64_t allocs = 0;  // inclusive
};

/// Per-name totals, over every span of a phase.
struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;   // inclusive
  std::int64_t self_ns = 0;    // minus child spans
  std::uint64_t self_allocs = 0;
  std::vector<float> durations_us;  // inclusive, capped
};

/// Process-wide tracer. Disabled = every ScopedSpan is one branch.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drop everything recorded so far (a new phase starts).
  void Reset();
  /// Keep raw spans of waves with id < this (aggregates cover all waves).
  void set_raw_wave_limit(std::int64_t waves) { raw_wave_limit_ = waves; }

  void set_wave(std::int64_t wave);

  /// Aggregates merged over every thread that recorded spans.
  std::array<SpanAggregate, kSpanNames> Aggregates() const;
  /// Raw spans of every thread, each thread's parents re-based.
  std::vector<SpanRecord> RawSpans() const;

  /// Per-wave coverage: for every raw wave span, the fraction of its wall
  /// time its child spans account for. Returns the median.
  double MedianWaveCoverage() const;

  struct ThreadState;
  ThreadState& Local();

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::int64_t raw_wave_limit_ = 64;
  mutable std::atomic<std::uint32_t> next_thread_{0};
  std::vector<ThreadState*> threads_;  // guarded by the registration lock
  friend class ScopedSpan;
};

/// RAII span. The name may be changed before the span closes (a poll that
/// turned out idle is filed separately from one that did work).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Rename(SpanName name) { name_ = name; }

 private:
  bool active_ = false;
  SpanName name_;
};

/// Bytes and messages through every channel one hop's dialers produced.
struct WireCounters {
  std::string hop;
  std::atomic<std::uint64_t> sent_msgs{0};
  std::atomic<std::uint64_t> sent_bytes{0};
  std::atomic<std::uint64_t> recv_msgs{0};
  std::atomic<std::uint64_t> recv_bytes{0};
};

/// Decorator counting a channel's traffic. Bytes are framed bytes, as the
/// TCP transport would put them on the wire (two u32 length prefixes plus
/// type and payload).
class CountingChannel final : public jamm::transport::Channel {
 public:
  CountingChannel(std::unique_ptr<jamm::transport::Channel> inner,
                  WireCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  jamm::Status Send(const jamm::transport::Message& msg) override;
  jamm::Result<bool> TrySend(const jamm::transport::Message& msg) override;
  jamm::Result<jamm::transport::Message> Receive(
      jamm::Duration timeout) override;
  std::optional<jamm::transport::Message> TryReceive() override;
  void Close() override { inner_->Close(); }
  void CloseSend() override { inner_->CloseSend(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  void CountSent(const jamm::transport::Message& msg);
  void CountReceived(const jamm::transport::Message& msg);

  std::unique_ptr<jamm::transport::Channel> inner_;
  WireCounters& counters_;
};

/// CPU seconds (user + sys) of the whole process.
double ProcessCpuSeconds();
/// Peak resident set size in MiB.
double PeakRssMb();

/// Fixed memory-bound loop; nanoseconds per operation. The machine-drift
/// probe: same work on every commit, so a uniform shift in it is the
/// machine, not the code.
double CalibrateNsPerOp();

}  // namespace perfbench
