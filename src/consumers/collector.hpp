// Event collector consumer (paper §2.2): "used to collect monitoring data
// in real time for use by real-time analysis tools. It checks the
// directory service to see what data is available, and then 'subscribes',
// via the event gateway, to all the sensors it is interested in... Data
// from many sensors ... is then merged into a file for use by programs
// such as nlv."
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "netlogger/merge.hpp"

namespace jamm::consumers {

class EventCollector {
 public:
  /// Maps a gateway address from a directory entry to the live gateway —
  /// the in-process analogue of dialing the address.
  using GatewayResolver =
      std::function<gateway::EventGateway*(const std::string& address)>;

  EventCollector(std::string name, GatewayResolver resolver);
  ~EventCollector();

  EventCollector(const EventCollector&) = delete;
  EventCollector& operator=(const EventCollector&) = delete;

  /// Directory-driven discovery: search `suffix` for sensors matching
  /// `sensor_filter`, group them by gateway, and subscribe once per
  /// gateway with `spec`. Returns how many gateways were subscribed.
  Result<std::size_t> DiscoverAndSubscribe(
      directory::DirectoryPool& pool, const directory::Dn& suffix,
      const directory::Filter& sensor_filter, const gateway::FilterSpec& spec,
      const std::string& principal = "");

  /// Direct subscription to one gateway.
  Status SubscribeTo(gateway::EventGateway& gw, const gateway::FilterSpec& spec,
                     const std::string& principal = "");

  /// Wire-path feed (ISSUE 2): attach a dialer-backed GatewayClient that
  /// reconnects and resubscribes on its own; drive with PumpRemote().
  /// `batch_records` > 0 (ISSUE 3) negotiates batched binary delivery —
  /// up to that many records per transport message.
  Status AttachRemote(std::unique_ptr<gateway::GatewayClient> client,
                      const gateway::FilterSpec& spec = {},
                      std::size_t batch_records = 0);

  /// Drain the remote feed into the collected set; returns records added.
  /// A drain is collected whole.
  std::size_t PumpRemote();

  /// Everything collected so far, time-merged — the NetLogger log form.
  ulm::FlatBatch Merged() const;

  /// Merge and write an nlv-ready log file.
  Status WriteMerged(const std::string& path) const;

  std::size_t collected_count() const { return collected_.size(); }
  void Clear() { collected_.Clear(); }

  /// Tear down all subscriptions (also runs on destruction).
  void UnsubscribeAll();

 private:
  std::string name_;
  GatewayResolver resolver_;
  ulm::FlatBatch collected_;
  std::vector<std::pair<gateway::EventGateway*, std::string>> subscriptions_;
  std::unique_ptr<gateway::GatewayClient> remote_;
};

}  // namespace jamm::consumers
