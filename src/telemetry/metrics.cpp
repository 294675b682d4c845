#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace jamm::telemetry {

namespace internal {
namespace {
/// Bit i set: leased shard i is held by a live thread.
std::atomic<std::uint32_t> leased_shards{0};
constexpr std::uint32_t kLeasable = (1u << kSharedShard) - 1;

/// Gives the thread's leased shard back when the thread exits. Later
/// writes from this thread (another thread_local's destructor) go to the
/// shared shard, so the lease's next holder is its only writer. Release
/// pairs with the acquire that takes the lease: the next holder's plain
/// load sees every value this thread stored.
struct ShardLease {
  std::size_t shard;
  ~ShardLease() {
    tls_shard = kSharedShard;
    leased_shards.fetch_and(~(1u << shard), std::memory_order_release);
  }
};
}  // namespace

std::size_t AssignShard() {
  std::uint32_t held = leased_shards.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t free = kLeasable & ~held;
    if (free == 0) return tls_shard = kSharedShard;
    const std::uint32_t bit = free & (~free + 1);
    if (leased_shards.compare_exchange_weak(held, held | bit,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      thread_local ShardLease lease{
          static_cast<std::size_t>(std::countr_zero(bit))};
      return tls_shard = lease.shard;
    }
  }
}
}  // namespace internal

// ------------------------------------------------------------------ Counter

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (const auto& cell : shards_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& cell : shards_) cell.value.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------------- Gauge

void Gauge::Add(double delta) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  double seen = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(seen, seen + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------- Histogram

namespace {

/// Inclusive value range of bucket `b` (see Histogram::BucketOf).
void BucketBounds(std::size_t b, double* lo, double* hi) {
  if (b == 0) {
    *lo = *hi = 0;
    return;
  }
  *lo = std::ldexp(1.0, static_cast<int>(b) - 1);   // 2^(b-1)
  *hi = std::ldexp(1.0, static_cast<int>(b));       // 2^b (exclusive)
}

double QuantileFromBuckets(const std::array<std::uint64_t,
                                            Histogram::kBuckets>& buckets,
                           std::uint64_t count, double q) {
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[b]);
    if (next >= target) {
      double lo, hi;
      BucketBounds(b, &lo, &hi);
      // Linear interpolation inside the bucket.
      const double fraction =
          (target - cumulative) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * fraction;
    }
    cumulative = next;
  }
  double lo, hi;
  BucketBounds(Histogram::kBuckets - 1, &lo, &hi);
  return hi;
}

}  // namespace

HistogramSnapshot Histogram::Snapshot() const {
  std::array<std::uint64_t, kBuckets> merged{};
  std::uint64_t sum = 0;
  HistogramSnapshot out;
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      merged[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    sum += shard.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, shard.max.load(std::memory_order_relaxed));
  }
  for (std::uint64_t n : merged) out.count += n;
  if (out.count == 0) return out;
  out.mean = static_cast<double>(sum) / static_cast<double>(out.count);
  out.p50 = QuantileFromBuckets(merged, out.count, 0.50);
  out.p90 = QuantileFromBuckets(merged, out.count, 0.90);
  out.p99 = QuantileFromBuckets(merged, out.count, 0.99);
  // The exact max beats any bucket estimate for the tail.
  out.p50 = std::min(out.p50, static_cast<double>(out.max));
  out.p90 = std::min(out.p90, static_cast<double>(out.max));
  out.p99 = std::min(out.p99, static_cast<double>(out.max));
  return out;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& bucket : shard.buckets) {
      total += bucket.load(std::memory_order_relaxed);
    }
  }
  return total;
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
    shard.max.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- Registry

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter(name, &enabled_));
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(name, &enabled_));
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(name, &enabled_));
  return *slot;
}

void MetricsRegistry::Reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const Counter&)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) fn(*c);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const Gauge&)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, g] : gauges_) fn(*g);
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const Histogram&)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, h] : histograms_) fn(*h);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace jamm::telemetry
