// Self-instrumentation metrics (ISSUE 1): the monitoring system monitoring
// itself. JAMM's evaluation hinges on numbers like gateway fan-out latency
// and filter hit rates; this registry is how a running process answers
// those questions without attaching a debugger.
//
// Three metric kinds:
//   * Counter   — monotonically increasing event count (events published,
//                 frames decoded, sensors started);
//   * Gauge     — last-set value (current subscription count);
//   * Histogram — log-bucketed latency distribution with p50/p90/p99/max.
//
// Hot-path discipline: Add()/Record() never take a lock. Counters and
// histograms are sharded across cache-line-padded std::atomic cells so
// concurrent writers on different threads do not contend; readers sum the
// shards. (This is the one deliberate exception to DESIGN.md §8's
// "no lock-free code" note — the whole point of the subsystem is to be
// cheap enough to leave on in the hot paths it observes.) The registry
// mutex guards only metric *registration*, which call-sites do once and
// cache the returned reference.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jamm::telemetry {

/// Number of independently writable cells per counter/histogram. A small
/// power of two: enough that a handful of hot threads land on distinct
/// cache lines, cheap enough to sum on every read.
inline constexpr std::size_t kShards = 8;

namespace internal {
/// The last shard is shared by every thread that finds no other shard
/// free; each of the others is leased to one live thread at a time.
inline constexpr std::size_t kSharedShard = kShards - 1;
// Sentinel-initialized so the thread_local is constant-initialized — no
// per-call init guard, just a TLS load and a predictable branch.
inline constexpr std::size_t kShardUnset = ~std::size_t{0};
inline thread_local std::size_t tls_shard = kShardUnset;
std::size_t AssignShard();

/// Add `n` to the cell of shard `shard`. A leased shard has one writer,
/// so a relaxed load and store suffice (plain moves: no locked
/// read-modify-write, which was most of an enabled counter's cost); the
/// shared shard's writers add atomically.
inline void CellAdd(std::atomic<std::uint64_t>& cell, std::size_t shard,
                    std::uint64_t n) {
  if (shard == kSharedShard) {
    cell.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
}
}  // namespace internal

/// The calling thread's shard index in [0, kShards). A thread takes the
/// lowest free leased shard at first use and gives it back when it exits;
/// with every leased shard held it writes the shared one. Inline because
/// it is on every Add()/Record() path: after the first call it compiles
/// down to one TLS load and a never-taken branch.
inline std::size_t ShardIndex() {
  const std::size_t s = internal::tls_shard;
  return s != internal::kShardUnset ? s : internal::AssignShard();
}

namespace internal {
/// One cache line per cell so shards never false-share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace internal

class MetricsRegistry;

class Counter {
 public:
  void Add(std::uint64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    const std::size_t shard = ShardIndex();
    internal::CellAdd(shards_[shard].value, shard, n);
  }
  void Increment() { Add(1); }

  /// Sum over shards. Monotone but not a snapshot-consistent read against
  /// concurrent writers — fine for monitoring.
  std::uint64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset();

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::array<internal::Cell, kShards> shards_;
};

class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta);

  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t max = 0;
  double mean = 0;
  double p50 = 0, p90 = 0, p99 = 0;
};

/// Log₂-bucketed histogram of non-negative integer samples (typically
/// microseconds). Bucket i≥1 holds values in [2^(i-1), 2^i); bucket 0
/// holds exactly 0. Quantiles interpolate linearly inside the bucket, so
/// they are exact to within one power of two and usually much closer.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // 0 plus one per bit of u64

  void Record(std::uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    const std::size_t shard = ShardIndex();
    Shard& s = shards_[shard];
    internal::CellAdd(s.buckets[BucketOf(value)], shard, 1);
    internal::CellAdd(s.sum, shard, value);
    std::uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !s.max.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

  std::uint64_t Count() const;

  const std::string& name() const { return name_; }

  static std::size_t BucketOf(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset();

  // Whole-shard alignment is enough: a shard is written by the threads
  // mapped to it, so intra-shard buckets sharing cache lines is fine;
  // what must not happen is two *shards* sharing one.
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::array<Shard, kShards> shards_;
};

/// RAII wall-clock timer feeding a histogram in microseconds. Pass null to
/// make it a no-op (instrumentation that is compiled in but not wired up).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist),
        start_(hist ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (!hist_) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    hist_->Record(static_cast<std::uint64_t>(us.count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Named-metric registry. Metrics are created on first use and live for
/// the registry's lifetime, so returned references are stable and may be
/// cached by hot paths (the intended pattern — resolve once, increment
/// forever).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by built-in instrumentation.
  static MetricsRegistry& Default();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// While disabled, every Add/Set/Record is a single relaxed load and a
  /// branch — the "no-op registry" the overhead bench compares against.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zero every metric (tests and benches); registrations survive. Run
  /// it while no thread writes: a leased shard's writer may store over a
  /// concurrent reset.
  void Reset();

  /// Visit all metrics in name order (exporter, tests). Callbacks run
  /// under the registration mutex; keep them light.
  void VisitCounters(
      const std::function<void(const Counter&)>& fn) const;
  void VisitGauges(const std::function<void(const Gauge&)>& fn) const;
  void VisitHistograms(
      const std::function<void(const Histogram&)>& fn) const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::Default().
inline MetricsRegistry& Metrics() { return MetricsRegistry::Default(); }

}  // namespace jamm::telemetry
