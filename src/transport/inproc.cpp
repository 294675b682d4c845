#include "transport/inproc.hpp"

namespace jamm::transport {
namespace {

// Each direction is a shared queue; Close() closes both so either side
// observes shutdown.
struct Pipe {
  BoundedQueue<Message> queue{kInProcChannelCapacity};
};

class InProcChannel final : public Channel {
 public:
  InProcChannel(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in,
                std::string peer)
      : out_(std::move(out)), in_(std::move(in)), peer_(std::move(peer)) {}

  ~InProcChannel() override { Close(); }

  Status Send(const Message& msg) override {
    if (!out_->queue.Push(msg)) {
      return Status::Unavailable("channel closed: " + peer_);
    }
    return Status::Ok();
  }

  Result<bool> TrySend(const Message& msg) override {
    if (out_->queue.TryPush(msg)) return true;
    if (out_->queue.closed()) {
      return Status::Unavailable("channel closed: " + peer_);
    }
    return false;  // full — would block
  }

  Result<Message> Receive(Duration timeout) override {
    auto msg = in_->queue.PopFor(timeout);
    if (!msg) {
      if (in_->queue.closed()) {
        return Status::Unavailable("peer closed: " + peer_);
      }
      if (timeout <= 0) return Status::Timeout(kNothingReady);
      return Status::Timeout("no message within timeout from " + peer_);
    }
    return std::move(*msg);
  }

  std::optional<Message> TryReceive() override { return in_->queue.TryPop(); }

  void Close() override {
    out_->queue.Close();
    in_->queue.Close();
  }

  void CloseSend() override { out_->queue.Close(); }

  bool IsOpen() const override {
    // Both directions: after a peer-initiated close the INBOUND side is
    // what's closed first — checking only our outbound queue reported
    // IsOpen()==true while Receive was already failing Unavailable.
    return !out_->queue.closed() && !in_->queue.closed();
  }

  std::string peer() const override { return peer_; }

 private:
  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
  std::string peer_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> MakeChannelPair(
    const std::string& name) {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  auto a = std::make_unique<InProcChannel>(a_to_b, b_to_a, "inproc:" + name);
  auto b = std::make_unique<InProcChannel>(b_to_a, a_to_b, "inproc:" + name);
  return {std::move(a), std::move(b)};
}

namespace {

class InProcListener final : public Listener {
 public:
  InProcListener(std::string name,
                 std::shared_ptr<BoundedQueue<std::unique_ptr<Channel>>> pending)
      : name_(std::move(name)), pending_(std::move(pending)) {}

  ~InProcListener() override { Close(); }

  Result<std::unique_ptr<Channel>> Accept(Duration timeout) override {
    auto chan = pending_->PopFor(timeout);
    if (!chan) {
      if (pending_->closed()) {
        return Status::Unavailable("listener closed: " + name_);
      }
      if (timeout <= 0) return Status::Timeout(kNothingReady);
      return Status::Timeout("no inbound connection: " + name_);
    }
    return std::move(*chan);
  }

  void Close() override { pending_->Close(); }

  std::string address() const override { return "inproc:" + name_; }

 private:
  std::string name_;
  std::shared_ptr<BoundedQueue<std::unique_ptr<Channel>>> pending_;
};

}  // namespace

Result<std::unique_ptr<Listener>> InProcNetwork::Listen(
    const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(name);
  if (it != endpoints_.end() && !it->second.pending->closed()) {
    return Status::AlreadyExists("endpoint already listening: " + name);
  }
  Endpoint ep;
  ep.pending = std::make_shared<BoundedQueue<std::unique_ptr<Channel>>>(256);
  endpoints_[name] = ep;
  return std::unique_ptr<Listener>(new InProcListener(name, ep.pending));
}

Result<std::unique_ptr<Channel>> InProcNetwork::Dial(const std::string& name) {
  std::shared_ptr<BoundedQueue<std::unique_ptr<Channel>>> pending;
  {
    std::lock_guard lock(mu_);
    auto it = endpoints_.find(name);
    if (it == endpoints_.end() || it->second.pending->closed()) {
      return Status::Unavailable("no listener at inproc:" + name);
    }
    pending = it->second.pending;
  }
  auto [client, server] = MakeChannelPair(name);
  if (!pending->TryPush(std::move(server))) {
    return Status::Unavailable("listener backlog full or closed: " + name);
  }
  return std::move(client);
}

bool InProcNetwork::HasEndpoint(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(name);
  return it != endpoints_.end() && !it->second.pending->closed();
}

}  // namespace jamm::transport
