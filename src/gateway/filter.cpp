#include "gateway/filter.hpp"

#include <charconv>
#include <cmath>

#include "common/strings.hpp"

namespace jamm::gateway {

namespace {

/// The shortest text that parses back to exactly `v`: a spec travels to
/// the gateway as its ToString() line, so a threshold must survive it.
std::string ExactDouble(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

Result<FilterSpec> FilterSpec::Parse(std::string_view text) {
  FilterSpec spec;
  auto parts = Split(text, '|');
  const std::string mode = Trim(parts[0]);
  if (mode == "all") {
    spec.mode = Mode::kAll;
  } else if (mode == "on-change") {
    spec.mode = Mode::kOnChange;
  } else if (StartsWith(mode, "threshold:")) {
    spec.mode = Mode::kThreshold;
    auto v = ParseDouble(mode.substr(10));
    if (!v.ok()) return Status::ParseError("bad threshold in '" + mode + "'");
    spec.threshold = *v;
  } else if (StartsWith(mode, "delta:")) {
    spec.mode = Mode::kDeltaPercent;
    auto v = ParseDouble(mode.substr(6));
    if (!v.ok() || *v <= 0) {
      return Status::ParseError("bad delta percent in '" + mode + "'");
    }
    spec.delta_percent = *v;
  } else {
    return Status::ParseError("unknown filter mode '" + mode + "'");
  }
  if (parts.size() > 1) spec.event_glob = Trim(parts[1]);
  if (parts.size() > 2 && !Trim(parts[2]).empty()) {
    spec.value_field = Trim(parts[2]);
  }
  if (parts.size() > 3) {
    return Status::ParseError("too many '|' sections in filter spec");
  }
  return spec;
}

std::string FilterSpec::ToString() const {
  std::string out;
  switch (mode) {
    case Mode::kAll: out = "all"; break;
    case Mode::kOnChange: out = "on-change"; break;
    case Mode::kThreshold: out = "threshold:" + ExactDouble(threshold); break;
    case Mode::kDeltaPercent: out = "delta:" + ExactDouble(delta_percent); break;
  }
  if (!event_glob.empty() || value_field != "VAL") {
    out += "|" + event_glob;
    if (value_field != "VAL") out += "|" + value_field;
  }
  return out;
}

ulm::Symbol EventFilter::value_field_sym() {
  if (!value_field_interned_) {
    value_field_sym_ = ulm::InternSymbol(spec_.value_field);
    value_field_interned_ = true;
  }
  return value_field_sym_;
}

bool EventFilter::GlobAllows(ulm::Symbol event_sym) {
  if (spec_.event_glob.empty()) return true;
  auto it = glob_by_event_.find(event_sym);
  if (it != glob_by_event_.end()) return it->second;
  // Distinct event names are few; the glob runs once per name, then every
  // later record of that event costs one map probe on a 4-byte key.
  const bool allowed =
      GlobMatch(spec_.event_glob, ulm::SymbolName(event_sym));
  glob_by_event_.emplace(event_sym, allowed);
  return allowed;
}

bool EventFilter::ShouldDeliver(const ulm::RecordView& view) {
  if (!GlobAllows(view.event_sym())) return false;
  if (spec_.mode == FilterSpec::Mode::kAll) return true;

  auto value = view.GetDouble(value_field_sym());
  if (!value.ok()) return true;

  const SourceKey key = {view.host_sym(), view.prog_sym(), view.event_sym()};
  return Decide(key, *value);
}

bool EventFilter::Decide(const SourceKey& key, double value) {
  SourceState& state = sources_[key];

  switch (spec_.mode) {
    case FilterSpec::Mode::kAll:
      return true;
    case FilterSpec::Mode::kOnChange: {
      const bool deliver = !state.has_last || value != state.last_value;
      state.has_last = true;
      state.last_value = value;
      return deliver;
    }
    case FilterSpec::Mode::kThreshold: {
      const bool above = value > spec_.threshold;
      // Deliver on every crossing, plus the first sample if it is already
      // above ("send an event if CPU load becomes greater than 50%").
      const bool deliver = state.has_side ? (above != state.above) : above;
      state.has_side = true;
      state.above = above;
      return deliver;
    }
    case FilterSpec::Mode::kDeltaPercent: {
      if (!state.has_last) {
        state.has_last = true;
        state.last_value = value;
        return true;
      }
      const double base = std::abs(state.last_value);
      const double change = std::abs(value - state.last_value);
      const double pct = base > 0 ? 100.0 * change / base
                                  : (change > 0 ? spec_.delta_percent : 0);
      if (pct >= spec_.delta_percent) {
        state.last_value = value;  // delta is relative to last *delivered*
        return true;
      }
      return false;
    }
  }
  return true;
}

}  // namespace jamm::gateway
