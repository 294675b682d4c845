// Bounded drop-oldest buffer for consumers that must survive outages
// without unbounded memory growth (ISSUE 2): a gateway client buffers
// streamed events here while a control reply is awaited. When full, the
// oldest element is evicted (the stream's newest data is the valuable
// part for monitoring) and the eviction is counted so telemetry can
// surface the loss.
//
// Single-threaded, like the poll-driven clients that embed it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "telemetry/metrics.hpp"

namespace jamm::resilience {

namespace internal {
/// Process-wide eviction counter shared by every ReplayBuffer
/// instantiation, so buffer loss shows up in /metrics (ISSUE 4) next to
/// the per-instance dropped() counts the embedding clients expose.
inline telemetry::Counter& ReplayEvictions() {
  static telemetry::Counter& c =
      telemetry::Metrics().counter("resilience.replay_buffer.evictions");
  return c;
}
}  // namespace internal

template <typename T>
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Append; evicts the oldest element when full. Returns false when an
  /// eviction happened (the caller may want to count it too).
  bool Push(T item) {
    bool evicted = false;
    if (items_.size() >= capacity_) {
      items_.pop_front();
      ++dropped_;
      internal::ReplayEvictions().Increment();
      evicted = true;
    }
    items_.push_back(std::move(item));
    return !evicted;
  }

  std::optional<T> Pop() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (items_.size() > capacity_) {
      items_.pop_front();
      ++dropped_;
      internal::ReplayEvictions().Increment();
    }
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return capacity_; }
  /// Total evictions over this buffer's lifetime.
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
  std::uint64_t dropped_ = 0;
};

}  // namespace jamm::resilience
