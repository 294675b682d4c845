// Per-subscription event filters (paper §2.2, event gateway):
//
//   "The consumer may request all event data, or only to be notified of
//    certain types of events. For example the netstat sensor may output
//    the value of the TCP retransmission counter every second, but most
//    consumers only want to be notified when the counter changes...
//    A consumer can also request that an event be sent only if its value
//    crosses a certain threshold. Examples ... if CPU load becomes greater
//    than 50%, or if load changes by more than 20%."
//
// Four modes: all / on-change / threshold-cross / delta-percent, optionally
// restricted to matching event names (glob). Filters are stateful: the
// decision depends on what this subscription last saw, keyed per event
// source so one filter tracks many sensors.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "ulm/flat.hpp"

namespace jamm::gateway {

struct FilterSpec {
  enum class Mode { kAll, kOnChange, kThreshold, kDeltaPercent };

  Mode mode = Mode::kAll;
  /// Restrict to events whose NL.EVNT matches this glob; empty = all.
  std::string event_glob;
  /// Field carrying the numeric value for the value-based modes.
  std::string value_field = "VAL";
  double threshold = 0;      // kThreshold
  double delta_percent = 0;  // kDeltaPercent

  /// Wire form: "all", "on-change", "threshold:50", "delta:20", each with
  /// an optional "|<event-glob>[|<value-field>]" suffix, e.g.
  /// "threshold:50|VMSTAT_SYS_TIME" or "on-change|NETSTAT_RETRANS|VAL".
  static Result<FilterSpec> Parse(std::string_view text);
  std::string ToString() const;
};

/// Stateful filter evaluation for one subscription.
class EventFilter {
 public:
  explicit EventFilter(FilterSpec spec) : spec_(std::move(spec)) {}

  const FilterSpec& spec() const { return spec_; }

  /// True if this record should be delivered to the subscriber. Updates
  /// internal per-source state (keyed by host/prog/event symbols). Symbol
  /// compares and a cached per-event glob verdict — no string
  /// concatenation, no allocation per record.
  bool ShouldDeliver(const ulm::RecordView& view);

 private:
  struct SourceState {
    bool has_last = false;
    double last_value = 0;          // last seen (on-change) or last
                                    // delivered (delta) value
    bool has_side = false;
    bool above = false;             // threshold side last seen
  };

  using SourceKey = std::array<ulm::Symbol, 3>;  // host, prog, event

  bool GlobAllows(ulm::Symbol event_sym);
  bool Decide(const SourceKey& key, double value);
  ulm::Symbol value_field_sym();

  FilterSpec spec_;
  ulm::Symbol value_field_sym_ = ulm::kEmptySymbol;  // lazily interned
  bool value_field_interned_ = false;
  std::map<ulm::Symbol, bool> glob_by_event_;  // event symbol → glob verdict
  std::map<SourceKey, SourceState> sources_;
};

}  // namespace jamm::gateway
