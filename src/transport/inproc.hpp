// In-process transport: queue-backed channel pairs plus a named endpoint
// registry so components "dial" each other exactly as they would over TCP.
// An InProcNetwork instance is passed around explicitly (not a global) so
// tests get isolated namespaces.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/queue.hpp"
#include "transport/message.hpp"

namespace jamm::transport {

/// Messages each direction of an in-process channel buffers before Send
/// blocks and TrySend refuses.
inline constexpr std::size_t kInProcChannelCapacity = 4096;

/// A connected pair of channels; what one sends the other receives.
std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> MakeChannelPair(
    const std::string& name = "pair");

class InProcNetwork {
 public:
  /// Start accepting connections at `name` ("gateway.hostA", ...).
  Result<std::unique_ptr<Listener>> Listen(const std::string& name);

  /// Connect to a listening endpoint; Unavailable if nothing listens.
  Result<std::unique_ptr<Channel>> Dial(const std::string& name);

  bool HasEndpoint(const std::string& name) const;

 private:
  friend class InProcListener;

  struct Endpoint {
    // Pending inbound (server-side) channels awaiting Accept.
    std::shared_ptr<BoundedQueue<std::unique_ptr<Channel>>> pending;
  };

  mutable std::mutex mu_;
  std::map<std::string, Endpoint> endpoints_;
};

}  // namespace jamm::transport
