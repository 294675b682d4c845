#include "transport/ring.hpp"

#include <atomic>
#include <chrono>
#include <thread>

namespace jamm::transport {
namespace {

// Backoff ladder for the blocking entry points: spin a little (cheap if
// the other side is actively draining), yield a little, then sleep in
// 50us slices so a stalled peer costs microwatts, not a core.
class Backoff {
 public:
  void Pause() {
    if (spins_ < kSpins) {
      ++spins_;
      return;
    }
    if (spins_ < kSpins + kYields) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

 private:
  static constexpr int kSpins = 64;
  static constexpr int kYields = 16;
  int spins_ = 0;
};

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Bounded MPSC ring (Vyukov's bounded MPMC queue, with the dequeue CAS
// dropped because jamm channels have exactly one consumer per end).
// Each cell carries a sequence number:
//   seq == index            → cell free, a producer may claim it
//   seq == index + 1        → cell full, the consumer may take it
//   after consume: seq = index + capacity (free for the next lap)
// The seq store is a release; the matching load an acquire — that pair
// publishes the Message payload without any lock.
class MessageRing {
 public:
  explicit MessageRing(std::size_t capacity)
      : mask_(RoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
        cells_(new Cell[mask_ + 1]) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Multi-producer. False when full or closed.
  bool TryPush(Message&& msg) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.msg = std::move(msg);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failed: pos was reloaded, retry at the new cursor.
      } else if (diff < 0) {
        return false;  // full — the consumer hasn't freed this lap yet
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer: plain cursor load/store, no CAS.
  std::optional<Message> TryPop() {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) <
        0) {
      return std::nullopt;  // empty
    }
    Message msg = std::move(cell.msg);
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return msg;
  }

  /// Blocking push with backoff; false when closed.
  bool Push(Message msg) {
    Backoff backoff;
    while (!TryPush(std::move(msg))) {
      if (closed_.load(std::memory_order_acquire)) return false;
      backoff.Pause();
    }
    return true;
  }

  /// Pop with a deadline; nullopt on timeout or closed-and-drained.
  std::optional<Message> PopFor(Duration timeout_us) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    Backoff backoff;
    for (;;) {
      if (auto msg = TryPop()) return msg;
      // Order matters: check closed AFTER a failed pop so messages that
      // raced in just before Close() still drain.
      if (closed_.load(std::memory_order_acquire)) return TryPop();
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      backoff.Pause();
    }
  }

  void Close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    Message msg;
  };

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

class RingChannel final : public Channel {
 public:
  RingChannel(std::shared_ptr<MessageRing> out, std::shared_ptr<MessageRing> in,
              std::string peer)
      : out_(std::move(out)), in_(std::move(in)), peer_(std::move(peer)) {}

  ~RingChannel() override { Close(); }

  Status Send(const Message& msg) override {
    if (!out_->Push(msg)) {
      return Status::Unavailable("channel closed: " + peer_);
    }
    return Status::Ok();
  }

  Result<bool> TrySend(const Message& msg) override {
    Message copy = msg;
    if (out_->TryPush(std::move(copy))) return true;
    if (out_->closed()) {
      return Status::Unavailable("channel closed: " + peer_);
    }
    return false;  // full — would block
  }

  Result<Message> Receive(Duration timeout) override {
    auto msg = in_->PopFor(timeout);
    if (!msg) {
      if (in_->closed()) {
        return Status::Unavailable("peer closed: " + peer_);
      }
      if (timeout <= 0) return Status::Timeout(kNothingReady);
      return Status::Timeout("no message within timeout from " + peer_);
    }
    return std::move(*msg);
  }

  std::optional<Message> TryReceive() override { return in_->TryPop(); }

  void Close() override {
    out_->Close();
    in_->Close();
  }

  void CloseSend() override { out_->Close(); }

  bool IsOpen() const override { return !out_->closed() && !in_->closed(); }

  std::string peer() const override { return peer_; }

 private:
  std::shared_ptr<MessageRing> out_;
  std::shared_ptr<MessageRing> in_;
  std::string peer_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
MakeRingChannelPair(const std::string& name, std::size_t capacity) {
  auto a_to_b = std::make_shared<MessageRing>(capacity);
  auto b_to_a = std::make_shared<MessageRing>(capacity);
  auto a = std::make_unique<RingChannel>(a_to_b, b_to_a, "ring:" + name);
  auto b = std::make_unique<RingChannel>(b_to_a, a_to_b, "ring:" + name);
  return {std::move(a), std::move(b)};
}

}  // namespace jamm::transport
