#include "consumers/overview_monitor.hpp"

#include "common/strings.hpp"
#include "ulm/flat.hpp"

namespace jamm::consumers {

OverviewMonitor::OverviewMonitor(std::string name) : name_(std::move(name)) {}

OverviewMonitor::~OverviewMonitor() { UnsubscribeAll(); }

Status OverviewMonitor::SubscribeTo(gateway::GatewaySurface& gw,
                                    const std::string& principal) {
  gateway::FilterSpec spec;  // all events
  auto sub = gw.SubscribeEncoded(
      name_, spec,
      [this](const ulm::EncodedRecord& enc) { HandleEvent(enc.view()); },
      principal);
  if (!sub.ok()) return sub.status();
  subscriptions_.emplace_back(&gw, *sub);
  return Status::Ok();
}

Status OverviewMonitor::AttachRemote(
    std::unique_ptr<gateway::GatewayClient> client,
    const gateway::FilterSpec& spec, std::size_t batch_records) {
  if (!client) return Status::InvalidArgument("null client");
  Status subscribed =
      client->SubscribeBatchedAsync(name_, spec, batch_records);
  if (!subscribed.ok()) return subscribed;
  remotes_.push_back(std::move(client));
  return Status::Ok();
}

std::size_t OverviewMonitor::Pump() {
  std::size_t processed = 0;
  for (auto& client : remotes_) {
    const ulm::FlatBatch& drained = client->DrainEvents();
    for (std::size_t i = 0; i < drained.size(); ++i) {
      HandleEvent(drained.View(i));
    }
    processed += drained.size();
  }
  return processed;
}

void OverviewMonitor::AddRule(
    std::string rule_name, std::vector<RuleCondition> conditions,
    std::function<void(const std::string&)> action) {
  Rule rule;
  rule.name = std::move(rule_name);
  rule.satisfied.assign(conditions.size(), false);
  rule.conditions = std::move(conditions);
  rule.action = std::move(action);
  rules_.push_back(std::move(rule));
}

void OverviewMonitor::HandleEvent(const ulm::RecordView& view) {
  for (auto& rule : rules_) {
    bool touched = false;
    for (std::size_t i = 0; i < rule.conditions.size(); ++i) {
      const RuleCondition& cond = rule.conditions[i];
      if (!cond.host.empty() && cond.host != view.host()) continue;
      if (!cond.event_glob.empty() &&
          !GlobMatch(cond.event_glob, view.event_name())) {
        continue;
      }
      rule.satisfied[i] = cond.predicate(view);
      touched = true;
    }
    if (!touched) continue;
    bool all = true;
    for (bool s : rule.satisfied) all = all && s;
    if (all && !rule.firing) {
      rule.firing = true;
      ++rule.fire_count;
      fire_counts_[rule.name] = rule.fire_count;
      if (rule.action) rule.action(rule.name);
      EmitAlert(rule.name);
    } else if (!all) {
      rule.firing = false;  // re-arm
    }
  }
}

void OverviewMonitor::EmitAlert(const std::string& rule_name) {
  if (!alert_sink_) return;
  ulm::FlatRecord alert(alert_sink_->clock().Now(), name_, "overview",
                        ulm::level::kAlert, kOverviewAlertEvent);
  alert.SetField("RULE", rule_name);
  alert.SetField("MONITOR", name_);
  alert_sink_->Publish(alert);
}

std::uint64_t OverviewMonitor::fires(const std::string& rule_name) const {
  auto it = fire_counts_.find(rule_name);
  return it == fire_counts_.end() ? 0 : it->second;
}

void OverviewMonitor::UnsubscribeAll() {
  for (auto& [gw, id] : subscriptions_) {
    (void)gw->Unsubscribe(id);
  }
  subscriptions_.clear();
  remotes_.clear();
}

}  // namespace jamm::consumers
