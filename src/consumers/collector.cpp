#include "consumers/collector.hpp"

#include <set>

namespace jamm::consumers {

EventCollector::EventCollector(std::string name, GatewayResolver resolver)
    : name_(std::move(name)), resolver_(std::move(resolver)) {}

EventCollector::~EventCollector() { UnsubscribeAll(); }

Result<std::size_t> EventCollector::DiscoverAndSubscribe(
    directory::DirectoryPool& pool, const directory::Dn& suffix,
    const directory::Filter& sensor_filter, const gateway::FilterSpec& spec,
    const std::string& principal) {
  auto result = pool.Search(suffix, directory::SearchScope::kSubtree,
                            sensor_filter, principal);
  if (!result.ok()) return result.status();

  std::set<std::string> gateway_addresses;
  for (const auto& entry : result->entries) {
    if (entry.Get(directory::schema::kAttrObjectClass) !=
        directory::schema::kSensorClass) {
      continue;
    }
    if (entry.Get(directory::schema::kAttrStatus) != "running") continue;
    const std::string gw = entry.Get(directory::schema::kAttrGateway);
    if (!gw.empty()) gateway_addresses.insert(gw);
  }

  std::size_t subscribed = 0;
  for (const auto& address : gateway_addresses) {
    gateway::EventGateway* gw = resolver_ ? resolver_(address) : nullptr;
    if (!gw) continue;  // stale directory entry; skip
    if (SubscribeTo(*gw, spec, principal).ok()) ++subscribed;
  }
  return subscribed;
}

Status EventCollector::SubscribeTo(gateway::EventGateway& gw,
                                   const gateway::FilterSpec& spec,
                                   const std::string& principal) {
  auto sub = gw.SubscribeEncoded(
      name_, spec,
      [this](const ulm::EncodedRecord& enc) {
        (void)collected_.Append(enc.view());
      },
      principal);
  if (!sub.ok()) return sub.status();
  subscriptions_.emplace_back(&gw, *sub);
  return Status::Ok();
}

Status EventCollector::AttachRemote(
    std::unique_ptr<gateway::GatewayClient> client,
    const gateway::FilterSpec& spec, std::size_t batch_records) {
  if (!client) return Status::InvalidArgument("null gateway client");
  remote_ = std::move(client);
  // Async: the spec is recorded and replayed after every reconnect, so a
  // gateway that is down right now is caught on the next PumpRemote().
  // Batched subscriptions replay batched — the format is part of the
  // recorded spec.
  if (batch_records > 0) {
    return remote_->SubscribeBatchedAsync(name_, spec, batch_records);
  }
  return remote_->SubscribeAsync(name_, spec);
}

std::size_t EventCollector::PumpRemote() {
  if (!remote_) return 0;
  const ulm::FlatBatch& drained = remote_->DrainEvents();
  (void)collected_.Append(drained);
  return drained.size();
}

ulm::FlatBatch EventCollector::Merged() const {
  ulm::FlatBatch out = collected_;
  out.SortByTime();
  return out;
}

Status EventCollector::WriteMerged(const std::string& path) const {
  return netlogger::WriteLogFile(path, Merged());
}

void EventCollector::UnsubscribeAll() {
  for (auto& [gw, id] : subscriptions_) {
    (void)gw->Unsubscribe(id);
  }
  subscriptions_.clear();
}

}  // namespace jamm::consumers
