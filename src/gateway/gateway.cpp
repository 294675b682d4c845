#include "gateway/gateway.hpp"

#include "common/id.hpp"
#include "common/strings.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jamm::gateway {

namespace {

// Process-wide self-telemetry for the gateway hot paths, resolved once.
struct GatewayTelemetry {
  telemetry::Counter& events_in;
  telemetry::Counter& events_delivered;
  telemetry::Counter& events_filtered;
  telemetry::Counter& queries;
  telemetry::Counter& access_denied;
  telemetry::Counter& encode_cache_hits;
  telemetry::Counter& encode_cache_misses;
  telemetry::Gauge& subscriptions;
  telemetry::Histogram& fanout_us;
};

GatewayTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static GatewayTelemetry t{m.counter("gateway.events_in"),
                            m.counter("gateway.events_delivered"),
                            m.counter("gateway.events_filtered"),
                            m.counter("gateway.queries"),
                            m.counter("gateway.access_denied"),
                            m.counter("gateway.encode_cache.hits"),
                            m.counter("gateway.encode_cache.misses"),
                            m.gauge("gateway.subscriptions"),
                            m.histogram("gateway.fanout_us")};
  return t;
}

}  // namespace

EventGateway::EventGateway(std::string name, const Clock& clock)
    : name_(std::move(name)), clock_(clock) {}

void EventGateway::Publish(ulm::FlatRecord& rec) {
  auto& tm = Instruments();
  ++stats_.events_in;
  tm.events_in.Increment();

  // Traced records get this hop stamped IN PLACE — the pipeline passes
  // one record by reference, so tracing never forces a copy.
  if (telemetry::HasTrace(rec.View())) {
    telemetry::StampHop(rec, "gateway", clock_.Now());
  }
  const ulm::RecordView view = rec.View();

  // Query caches: flat-record assignment reuses the destination's arena
  // capacity, so steady-state publishes do not allocate here.
  last_event_ = rec;
  has_last_event_ = true;
  if (view.event_sym() != ulm::kEmptySymbol) {
    last_by_event_[view.event_sym()] = rec;
  }

  // Summaries (symbol-keyed: one 4-byte map probe per publish).
  if (auto it = summaries_.find(view.event_sym()); it != summaries_.end()) {
    auto value = view.GetDouble(summary_fields_[view.event_sym()]);
    if (value.ok()) it->second.Add(view.timestamp(), *value);
  }

  // Fan-out with per-subscription filtering. The subscription vector is
  // walked by index: entries sit behind stable shared_ptrs, so a callback
  // subscribing (appends past `n`, invisible to this fan-out, even if the
  // vector reallocates) or unsubscribing (flips `active`; swept below)
  // cannot invalidate the walk. This costs O(1) per subscriber where the
  // previous id-snapshot + map-find walk cost a string copy and an
  // O(log n) lookup each.
  //
  // The latency histogram samples 1 publish in 8: the distribution is what
  // matters, and sampling keeps the two steady_clock reads off 7/8 of the
  // hot path (see bench_telemetry_overhead).
  const bool sample_latency = (++fanout_sample_ & 7u) == 0;
  telemetry::ScopedTimer fanout_timer(sample_latency ? &tm.fanout_us
                                                     : nullptr);
  // Encode-once fan-out (ISSUE 3): one view-backed EncodedRecord shared
  // by every callback this publish, so N subscribers of one wire format
  // cost one (flat-transcoded) serialization, not N — into the reused
  // buffer, unless this publish is nested in an outer one's callback.
  const ulm::EncodedRecord encoded(
      view, fanout_depth_ == 0 ? &encode_buffer_ : nullptr);
  std::uint64_t delivered = 0, filtered = 0;
  ++fanout_depth_;
  const std::size_t n = subscriptions_.size();
  for (std::size_t s = 0; s < n; ++s) {
    Subscription& sub = *subscriptions_[s];
    if (!sub.active) continue;  // unsubscribed mid-fan-out
    if (sub.filter.ShouldDeliver(view)) {
      ++delivered;
      sub.callback(encoded);
    } else {
      ++filtered;
    }
  }
  if (--fanout_depth_ == 0 && sweep_pending_) {
    std::erase_if(subscriptions_,
                  [](const auto& sub) { return !sub->active; });
    sweep_pending_ = false;
  }
  stats_.events_delivered += delivered;
  stats_.events_filtered += filtered;
  if (delivered) tm.events_delivered.Add(delivered);
  if (filtered) tm.events_filtered.Add(filtered);
  if (encoded.encodes()) tm.encode_cache_misses.Add(encoded.encodes());
  if (encoded.accesses() > encoded.encodes()) {
    tm.encode_cache_hits.Add(encoded.accesses() - encoded.encodes());
  }
}

Status EventGateway::CheckAccess(Action action,
                                 const std::string& principal) const {
  if (access_checker_ && !access_checker_(action, principal)) {
    Instruments().access_denied.Increment();
    return Status::PermissionDenied(
        (principal.empty() ? std::string("anonymous") : principal) +
        " denied by gateway " + name_);
  }
  return Status::Ok();
}

Result<std::string> EventGateway::SubscribeEncoded(
    const std::string& consumer, FilterSpec spec, EncodedCallback callback,
    const std::string& principal) {
  JAMM_RETURN_IF_ERROR(CheckAccess(Action::kSubscribe, principal));
  if (!callback) {
    return Status::InvalidArgument("subscription needs a callback");
  }
  const std::string id = MakeId("sub");
  auto sub = std::make_shared<Subscription>(Subscription{
      id, consumer, EventFilter(std::move(spec)), std::move(callback)});
  subscriptions_.push_back(sub);
  subs_by_id_.emplace(id, std::move(sub));
  Instruments().subscriptions.Add(1);
  return id;
}

Status EventGateway::Unsubscribe(const std::string& subscription_id) {
  auto it = subs_by_id_.find(subscription_id);
  if (it == subs_by_id_.end()) {
    return Status::NotFound("no subscription " + subscription_id);
  }
  // Deactivate now (an in-flight fan-out must skip it); the vector entry
  // is swept once no fan-out is running.
  it->second->active = false;
  subs_by_id_.erase(it);
  if (fanout_depth_ == 0) {
    std::erase_if(subscriptions_,
                  [](const auto& sub) { return !sub->active; });
  } else {
    sweep_pending_ = true;
  }
  Instruments().subscriptions.Add(-1);
  return Status::Ok();
}

Result<const ulm::FlatRecord*> EventGateway::Latest(
    const std::string& event_glob, const std::string& principal) const {
  JAMM_RETURN_IF_ERROR(CheckAccess(Action::kQuery, principal));
  Instruments().queries.Increment();
  if (event_glob.empty()) {
    if (!has_last_event_) return Status::NotFound("gateway has seen no events");
    return &last_event_;
  }
  // Exact name fast path (Find, not Intern: query strings must not grow
  // the symbol table), then glob scan over the per-event latest map.
  if (auto sym = ulm::FindSymbol(event_glob)) {
    if (auto it = last_by_event_.find(*sym); it != last_by_event_.end()) {
      return &it->second;
    }
  }
  const ulm::FlatRecord* best = nullptr;
  for (const auto& [ev_sym, rec] : last_by_event_) {
    if (GlobMatch(event_glob, ulm::SymbolName(ev_sym)) &&
        (!best || rec.timestamp() > best->timestamp())) {
      best = &rec;
    }
  }
  if (!best) return Status::NotFound("no event matching '" + event_glob + "'");
  return best;
}

Result<ulm::FlatRecord> EventGateway::Query(
    const std::string& event_glob, const std::string& principal) const {
  auto latest = Latest(event_glob, principal);
  if (!latest.ok()) return latest.status();
  return **latest;
}

Result<std::string> EventGateway::QueryXml(const std::string& event_glob,
                                           const std::string& principal) const {
  auto latest = Latest(event_glob, principal);
  if (!latest.ok()) return latest.status();
  return (*latest)->View().ToXml();
}

Status EventGateway::StartSensor(const std::string& sensor,
                                 const std::string& principal) {
  JAMM_RETURN_IF_ERROR(CheckAccess(Action::kStartSensor, principal));
  if (!sensor_control_) {
    return Status::Unimplemented("gateway " + name_ +
                                 " has no sensor manager attached");
  }
  return sensor_control_(sensor, /*start=*/true, principal);
}

Status EventGateway::StopSensor(const std::string& sensor,
                                const std::string& principal) {
  JAMM_RETURN_IF_ERROR(CheckAccess(Action::kStartSensor, principal));
  if (!sensor_control_) {
    return Status::Unimplemented("gateway " + name_ +
                                 " has no sensor manager attached");
  }
  return sensor_control_(sensor, /*start=*/false, principal);
}

void EventGateway::EnableSummary(const std::string& event_name,
                                 const std::string& value_field) {
  const ulm::Symbol ev = ulm::InternSymbol(event_name);
  summaries_[ev];  // default-construct the window
  summary_fields_[ev] = ulm::InternSymbol(value_field);
}

Result<SummaryData> EventGateway::GetSummary(
    const std::string& event_name, const std::string& principal) const {
  JAMM_RETURN_IF_ERROR(CheckAccess(Action::kSummary, principal));
  auto sym = ulm::FindSymbol(event_name);
  if (!sym) return Status::NotFound("no summary configured for " + event_name);
  auto it = summaries_.find(*sym);
  if (it == summaries_.end()) {
    return Status::NotFound("no summary configured for " + event_name);
  }
  return it->second.Compute(clock_.Now());
}

EventGateway::Stats EventGateway::stats() const {
  Stats s = stats_;
  s.subscriptions = subs_by_id_.size();
  return s;
}

}  // namespace jamm::gateway
