// RPC over the transport layer: marshalled call/reply messages serving a
// Registry to remote callers, so sensor managers and gateways can be
// invoked across hosts as the paper's RMI objects were.
//
// Message protocol:
//   "rpc.call"   payload = marshalled [object, method, arg0, arg1, ...]
//   "rpc.ok"     payload = marshalled [result]
//   "rpc.error"  payload = status text
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "resilience/retry.hpp"
#include "rpc/registry.hpp"
#include "transport/message.hpp"

namespace jamm::rpc {

/// Marshal a string list (varint length-prefixed, binary-safe).
std::string EncodeStrings(const std::vector<std::string>& parts);
/// The same layout for borrowed parts, appended to `out`.
void AppendStrings(std::string& out,
                   std::initializer_list<std::string_view> parts);
Result<std::vector<std::string>> DecodeStrings(std::string_view data);

class RpcServer {
 public:
  RpcServer(Registry& registry,
            std::unique_ptr<transport::Listener> listener);

  /// Accept pending connections, serve pending calls; returns calls
  /// served. Also runs the registry's idle-unload maintenance.
  std::size_t PollOnce();

  const std::string& address() const { return address_; }

 private:
  Registry& registry_;
  std::unique_ptr<transport::Listener> listener_;
  std::string address_;
  std::vector<std::shared_ptr<transport::Channel>> connections_;
};

class RpcClient {
 public:
  using Dialer =
      std::function<Result<std::unique_ptr<transport::Channel>>()>;

  explicit RpcClient(std::unique_ptr<transport::Channel> channel)
      : channel_(std::move(channel)) {}

  /// Reconnecting client (ISSUE 2): the channel is (re-)established via
  /// `dialer` and transient transport failures are retried under `policy`
  /// — Unavailable always (the connection is re-dialed first), Timeout
  /// only when the policy opts in, since a timed-out call may already
  /// have executed server-side. `clock` drives the retry deadline budget
  /// (default: the system clock).
  explicit RpcClient(Dialer dialer, resilience::RetryPolicy policy = {},
                     const Clock* clock = nullptr, std::uint64_t seed = 1)
      : dialer_(std::move(dialer)),
        policy_(policy),
        clock_(clock),
        seed_(seed) {}

  /// Synchronous call; waits up to `timeout` for the reply (per attempt
  /// when retrying; the policy's deadline bounds the whole call).
  Result<std::string> Call(const std::string& object,
                           const std::string& method,
                           const std::vector<std::string>& args = {},
                           Duration timeout = 5 * kSecond);

 private:
  Result<std::string> CallOnce(const std::string& object,
                               const std::string& method,
                               const std::vector<std::string>& args,
                               Duration timeout);

  std::unique_ptr<transport::Channel> channel_;
  Dialer dialer_;
  resilience::RetryPolicy policy_;
  const Clock* clock_ = nullptr;
  std::uint64_t seed_ = 1;
};

}  // namespace jamm::rpc
