// Overview monitor consumer (paper §2.2): "This consumer collects
// information from sensors on several hosts, and uses the combined
// information to make some decision that could not be made on the basis of
// data from only one host. For example, one may want to trigger a page to
// a system administrator at 2 A.M. only if both the primary and backup
// servers are down."
//
// A rule is a conjunction of per-source conditions over the latest state
// each source reported; when every condition holds the rule fires once
// (re-arming when the conjunction stops holding).
//
// Federation (ISSUE 6): the monitor sits naturally at the TOP of a
// republisher tree — one subscription to the root level sees every host's
// stream, so multi-host rules need no per-gateway wiring. It attaches to
// any GatewaySurface in-process, or over the wire via AttachRemote with a
// reconnecting GatewayClient (drive with Pump()); fired rules can be
// re-published as overview.alert events so the alert stream itself flows
// back through the federation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gateway/gateway.hpp"
#include "gateway/service.hpp"

namespace jamm::consumers {

/// ULM event name for fired-rule alerts (fields RULE, MONITOR). Lowercase:
/// must not match sensor-event globs.
inline constexpr char kOverviewAlertEvent[] = "overview.alert";

class OverviewMonitor {
 public:
  explicit OverviewMonitor(std::string name);
  ~OverviewMonitor();

  OverviewMonitor(const OverviewMonitor&) = delete;
  OverviewMonitor& operator=(const OverviewMonitor&) = delete;

  /// Feed this monitor everything a surface sees — a leaf EventGateway or
  /// a federation republisher level.
  Status SubscribeTo(gateway::GatewaySurface& gw,
                     const std::string& principal = "");

  /// Feed this monitor a remote gateway's stream through `client`
  /// (typically dialer-backed, so the feed survives gateway restarts).
  /// `spec` narrows what crosses the wire — with a federation tree below,
  /// the spec is pushed down to the leaves. Drive with Pump().
  Status AttachRemote(std::unique_ptr<gateway::GatewayClient> client,
                      const gateway::FilterSpec& spec = {},
                      std::size_t batch_records = 0);

  /// Drain every attached remote feed into rule evaluation; returns the
  /// number of records processed.
  std::size_t Pump();

  /// Re-publish every rule fire as an overview.alert event on `gw` (e.g.
  /// the same republisher the monitor watches, so alerts reach any
  /// consumer of the tree). Call before AddRule; pass by reference — the
  /// surface must outlive the monitor.
  void PublishAlertsTo(gateway::GatewaySurface& gw) { alert_sink_ = &gw; }

  /// Predicate over the most recent record a (host, event glob) source
  /// produced; absent state means the condition is not (yet) satisfied.
  using Condition = std::function<bool(const ulm::RecordView&)>;

  struct RuleCondition {
    std::string host;        // "" = any host may satisfy it
    std::string event_glob;  // which events update this condition
    Condition predicate;
  };

  /// Register a rule; `action` runs when ALL conditions hold
  /// simultaneously (edge-triggered).
  void AddRule(std::string rule_name, std::vector<RuleCondition> conditions,
               std::function<void(const std::string&)> action);

  std::uint64_t fires(const std::string& rule_name) const;

  void UnsubscribeAll();

 private:
  struct Rule {
    std::string name;
    std::vector<RuleCondition> conditions;
    std::vector<bool> satisfied;
    std::function<void(const std::string&)> action;
    bool firing = false;
    std::uint64_t fire_count = 0;
  };

  void HandleEvent(const ulm::RecordView& view);
  void EmitAlert(const std::string& rule_name);

  std::string name_;
  std::vector<Rule> rules_;
  std::vector<std::pair<gateway::GatewaySurface*, std::string>> subscriptions_;
  std::vector<std::unique_ptr<gateway::GatewayClient>> remotes_;
  gateway::GatewaySurface* alert_sink_ = nullptr;
  std::map<std::string, std::uint64_t> fire_counts_;
};

}  // namespace jamm::consumers
