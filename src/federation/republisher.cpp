#include "federation/republisher.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/id.hpp"
#include "telemetry/metrics.hpp"
#include "ulm/encoded.hpp"

namespace jamm::federation {

namespace {

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<const unsigned char*>(data)[i]) * 1099511628211ull;
  }
  return h;
}

/// Process-wide fed.* counters, resolved once (the registry returns stable
/// references; see MetricsRegistry).
struct FedCounters {
  telemetry::Counter& records_in =
      telemetry::Metrics().counter("fed.records_in");
  telemetry::Counter& republished =
      telemetry::Metrics().counter("fed.republished");
  telemetry::Counter& pushdown_records =
      telemetry::Metrics().counter("fed.pushdown_records");
  telemetry::Counter& duplicates_dropped =
      telemetry::Metrics().counter("fed.duplicates_dropped");
  telemetry::Counter& stale_dropped =
      telemetry::Metrics().counter("fed.stale_dropped");
  telemetry::Counter& summary_merges =
      telemetry::Metrics().counter("fed.summary_merges");
  telemetry::Counter& summary_fallbacks =
      telemetry::Metrics().counter("fed.summary_fallbacks");
};

FedCounters& Counters() {
  static FedCounters counters;
  return counters;
}

}  // namespace

// ------------------------------------------------------------ StreamDeduper

StreamDeduper::Verdict StreamDeduper::Admit(const ulm::RecordView& view) {
  SourceState& state =
      sources_[{view.host_sym(), view.prog_sym(), view.event_sym()}];
  if (state.has_last && view.timestamp() < state.last_ts) {
    return Verdict::kStale;
  }
  // Host, prog and event are the source key; hash the rest of what the
  // ASCII form renders, each value length-prefixed so fields cannot blur.
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const auto& v) { hash = Fnv1a(hash, &v, sizeof(v)); };
  mix(view.timestamp());
  mix(view.lvl_sym());
  for (std::uint32_t i = 0; i < view.field_count(); ++i) {
    const std::string_view value = view.field_value(i);
    mix(view.field_key(i));
    mix(value.size());
    hash = Fnv1a(hash, value.data(), value.size());
  }
  if (state.has_last && view.timestamp() == state.last_ts) {
    for (std::uint64_t seen : state.hashes_at_last_ts) {
      if (seen == hash) return Verdict::kDuplicate;
    }
    state.hashes_at_last_ts.push_back(hash);
    return Verdict::kAdmit;
  }
  state.has_last = true;
  state.last_ts = view.timestamp();
  state.hashes_at_last_ts.clear();
  state.hashes_at_last_ts.push_back(hash);
  return Verdict::kAdmit;
}

// ------------------------------------------------------- RepublisherGateway

RepublisherGateway::RepublisherGateway(std::string name, const Clock& clock,
                                       Options options)
    : name_(std::move(name)),
      options_(std::move(options)),
      local_(name_, clock) {}

Status RepublisherGateway::AddDownstream(DownstreamSpec spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("downstream name must not be empty");
  }
  if (!spec.dialer) {
    return Status::InvalidArgument("downstream needs a dialer");
  }
  for (const Downstream& d : downstreams_) {
    if (d.name == spec.name) {
      return Status::AlreadyExists("downstream " + spec.name);
    }
  }
  downstreams_.push_back(Downstream{spec.name, std::move(spec.dialer),
                                    spec.supports_pushdown,
                                    std::move(spec.auth_payload),
                                    /*cached_token=*/"", nullptr, nullptr});
  // A child added after groups formed joins every group: filtered feed if
  // it can push down, local-eval slice of its base stream otherwise.
  for (auto& [key, group] : groups_) {
    AttachChildToGroup(group, key, downstreams_.back());
  }
  return Status::Ok();
}

std::unique_ptr<gateway::GatewayClient> RepublisherGateway::MakeChildClient(
    Downstream& child) const {
  auto client = std::make_unique<gateway::GatewayClient>(child.dialer);
  // Tokens chase the tree (ISSUE 10): once the child has minted a
  // capability token for this tier's identity, new feeds present it —
  // one signature verify at the child instead of a full certificate
  // chain + policy evaluation per connection.
  if (!child.cached_token.empty()) {
    client->AuthenticateWithAsync(gateway::kAuthTokenPrefix +
                                  child.cached_token);
  } else if (!child.auth_payload.empty()) {
    client->AuthenticateWithAsync(child.auth_payload);
  }
  return client;
}

void RepublisherGateway::EnsureBaseFeeds() {
  for (Downstream& d : downstreams_) {
    if (d.base) continue;
    const bool need = !options_.lazy_base_stream ||
                      local_.subscription_count() > 0 ||
                      GroupNeedsChildBase(d.name);
    if (!need) continue;
    d.base = MakeChildClient(d);
    // Async + dialer-backed: recorded even if the child is down right now,
    // replayed on reconnect. Once established a base feed stays up —
    // tearing it down would lose dedup continuity and last-event state.
    d.base->SubscribeBatchedAsync(name_ + "/base", gateway::FilterSpec{},
                                  options_.batch_records);
  }
}

void RepublisherGateway::RecoverChildAuth() {
  auto recover = [](Downstream& d, gateway::GatewayClient* client) {
    if (!client || !client->auth_rejected()) return;
    // The child refused this client's credential — typically a harvested
    // capability token that aged past its TTL before the client (or its
    // reconnect) presented it. Retire the dead token so new clients stop
    // replaying it.
    if (!d.cached_token.empty() &&
        client->auth_credential() ==
            gateway::kAuthTokenPrefix + d.cached_token) {
      d.cached_token.clear();
    }
    // Fall back to the strongest credential now available: a fresher
    // harvested token if one exists, else the configured cert bundle.
    // Re-auth only with a credential DIFFERENT from the refused one, so a
    // genuinely denied principal cannot re-dial the child every pump.
    const std::string fallback =
        !d.cached_token.empty()
            ? gateway::kAuthTokenPrefix + d.cached_token
            : d.auth_payload;
    if (!fallback.empty() && fallback != client->auth_credential()) {
      (void)client->ReauthenticateWith(fallback);
    }
  };
  for (Downstream& d : downstreams_) {
    recover(d, d.base.get());
    recover(d, d.summary.get());
  }
  for (auto& [key, group] : groups_) {
    for (auto& [child, client] : group.feeds) {
      for (Downstream& d : downstreams_) {
        if (d.name == child) {
          recover(d, client.get());
          break;
        }
      }
    }
  }
}

bool RepublisherGateway::GroupNeedsChildBase(const std::string& child) const {
  for (const auto& [key, group] : groups_) {
    if (group.local_eval.count(child) > 0) return true;
  }
  return false;
}

void RepublisherGateway::AttachChildToGroup(PushdownGroup& group,
                                            const std::string& group_key,
                                            Downstream& child) {
  if (child.supports_pushdown) {
    auto client = MakeChildClient(child);
    client->SubscribeBatchedAsync(name_ + "/" + group_key, group.spec,
                                  options_.batch_records);
    group.feeds.emplace(child.name, std::move(client));
  } else {
    group.local_eval.emplace(child.name, gateway::EventFilter(group.spec));
  }
}

template <typename OnAdmit>
std::size_t RepublisherGateway::AdmitWave(StreamDeduper& dedup,
                                          OnAdmit&& on_admit) {
  // Stable: records of one timestamp keep their feed and arrival order.
  std::stable_sort(wave_.begin(), wave_.end(),
                   [](const WaveEntry& a, const WaveEntry& b) {
                     return a.view.timestamp() < b.view.timestamp();
                   });
  FedCounters& counters = Counters();
  for (const WaveEntry& entry : wave_) {
    ++stats_.records_in;
    counters.records_in.Increment();
    switch (dedup.Admit(entry.view)) {
      case StreamDeduper::Verdict::kStale:
        ++stats_.stale_dropped;
        counters.stale_dropped.Increment();
        break;
      case StreamDeduper::Verdict::kDuplicate:
        ++stats_.duplicates_dropped;
        counters.duplicates_dropped.Increment();
        break;
      case StreamDeduper::Verdict::kAdmit:
        on_admit(entry);
        break;
    }
  }
  return wave_.size();
}

std::size_t RepublisherGateway::Pump() {
  EnsureBaseFeeds();
  // Feeds whose credential the child refused on the previous pump (the
  // gw.error was adopted during that pump's drain) re-authenticate now
  // with the cert bundle / a fresher token.
  RecoverChildAuth();

  // The wave holds views into each feed's drained batch, valid until that
  // feed's next drain (the next Pump).
  auto add_to_wave = [this](const ulm::FlatBatch& batch, std::size_t child) {
    for (std::size_t r = 0; r < batch.size(); ++r) {
      wave_.push_back({batch.View(r), child});
    }
  };

  // Base stream: merge every child's feed, time-order, dedup, republish.
  wave_.clear();
  for (std::size_t i = 0; i < downstreams_.size(); ++i) {
    Downstream& d = downstreams_[i];
    if (!d.base) continue;
    add_to_wave(d.base->DrainEvents(), i);
    // Harvest the child-minted capability token for future connections
    // (pushdown feeds, summary client, re-dials). The base feed's own
    // reconnect replays its recorded credential regardless.
    if (!d.base->token().empty() && d.base->token() != d.cached_token) {
      d.cached_token = d.base->token();
    }
  }
  std::size_t processed = AdmitWave(base_dedup_, [this](const WaveEntry& e) {
    AdmitBaseRecord(downstreams_[e.child].name, e.view);
  });

  // Pushdown groups: each group's feeds are already filtered at the
  // source; merge, order, dedup per group, deliver to members.
  for (auto& [key, group] : groups_) {
    wave_.clear();
    for (auto& [child, client] : group.feeds) {
      add_to_wave(client->DrainEvents(), 0);
    }
    processed += AdmitWave(group.dedup, [&](const WaveEntry& e) {
      ++stats_.pushdown_records;
      Counters().pushdown_records.Increment();
      DeliverToGroup(group, e.view);
    });
  }
  return processed;
}

void RepublisherGateway::AdmitBaseRecord(const std::string& child,
                                         const ulm::RecordView& view) {
  ++stats_.republished;
  Counters().republished.Increment();
  // Fallback path: groups whose spec this child cannot evaluate see its
  // slice of the base stream through a local stateful filter instead. They
  // run BEFORE the local publish, which stamps HOP.GATEWAY in place: a
  // local-eval member must see the record exactly as a pushdown feed
  // would have delivered it.
  for (auto& [key, group] : groups_) {
    auto it = group.local_eval.find(child);
    if (it != group.local_eval.end() && it->second.ShouldDeliver(view)) {
      DeliverToGroup(group, view);
    }
  }
  // The view borrows a feed's batch; the publish stamps a reused copy.
  republish_.Assign(view);
  local_.Publish(republish_);
}

void RepublisherGateway::DeliverToGroup(PushdownGroup& group,
                                        const ulm::RecordView& view) {
  // Like EventGateway::Publish: only the outermost delivery encodes into
  // the reused buffer.
  const bool nested = std::exchange(delivering_, true);
  const ulm::EncodedRecord encoded(view, nested ? nullptr : &deliver_buffer_);
  for (const std::shared_ptr<GroupMember>& member : group.members) {
    if (member->active) member->callback(encoded);
  }
  delivering_ = nested;
}

void RepublisherGateway::Publish(ulm::FlatRecord& rec) {
  ++stats_.records_in;
  ++stats_.republished;
  FedCounters& counters = Counters();
  counters.records_in.Increment();
  counters.republished.Increment();
  local_.Publish(rec);
}

Result<std::string> RepublisherGateway::SubscribeEncoded(
    const std::string& consumer, gateway::FilterSpec spec,
    EncodedCallback callback, const std::string& principal) {
  // An unfiltered "all" subscription wants the whole merged stream — the
  // local fan-out already holds it; pushing it down would just duplicate
  // the base feeds. Everything else (value filters, glob-restricted all)
  // shrinks at the source, so it goes downstream.
  const bool pushable =
      !downstreams_.empty() && !(spec.mode == gateway::FilterSpec::Mode::kAll &&
                                 spec.event_glob.empty());
  if (!pushable) {
    return local_.SubscribeEncoded(consumer, std::move(spec),
                                   std::move(callback), principal);
  }
  if (Status access = local_.CheckAccess(gateway::Action::kSubscribe, principal);
      !access.ok()) {
    return access;
  }
  const std::string key = spec.ToString();
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    it = groups_.emplace(key, PushdownGroup{}).first;
    it->second.spec = spec;
    for (Downstream& child : downstreams_) {
      AttachChildToGroup(it->second, key, child);
    }
  }
  auto member = std::make_shared<GroupMember>();
  member->id = MakeId(name_ + "-fsub");
  member->consumer = consumer;
  member->callback = std::move(callback);
  it->second.members.push_back(member);
  return member->id;
}

Status RepublisherGateway::Unsubscribe(const std::string& subscription_id) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    PushdownGroup& group = it->second;
    for (const std::shared_ptr<GroupMember>& member : group.members) {
      if (member->id != subscription_id || !member->active) continue;
      member->active = false;
      const bool any_active =
          std::any_of(group.members.begin(), group.members.end(),
                      [](const auto& m) { return m->active; });
      if (!any_active) {
        // Last member gone: tear the group down. Destroying the feed
        // clients closes their channels; each downstream drops the
        // filtered subscription on its next poll.
        groups_.erase(it);
      }
      return Status::Ok();
    }
  }
  return local_.Unsubscribe(subscription_id);
}

Result<ulm::FlatRecord> RepublisherGateway::Query(
    const std::string& event_glob, const std::string& principal) const {
  return local_.Query(event_glob, principal);
}

Result<std::string> RepublisherGateway::QueryXml(
    const std::string& event_glob, const std::string& principal) const {
  return local_.QueryXml(event_glob, principal);
}

Result<gateway::SummaryData> RepublisherGateway::GetSummary(
    const std::string& event_name, const std::string& principal) const {
  if (Status access = local_.CheckAccess(gateway::Action::kSummary, principal);
      !access.ok()) {
    return access;
  }
  if (downstreams_.empty()) return local_.GetSummary(event_name, principal);
  double sum_1m = 0, sum_10m = 0, sum_60m = 0;
  gateway::SummaryData merged;
  for (Downstream& child : downstreams_) {
    if (!child.summary) {
      child.summary = MakeChildClient(child);
    }
    Result<gateway::SummaryData> fetched =
        options_.summary_fetcher
            ? options_.summary_fetcher(child.name, *child.summary, event_name)
            : child.summary->Summary(event_name);
    if (!fetched.ok()) {
      ++stats_.summary_fallbacks;
      Counters().summary_fallbacks.Increment();
      return local_.GetSummary(event_name, principal);
    }
    sum_1m += fetched->avg_1m * static_cast<double>(fetched->count_1m);
    sum_10m += fetched->avg_10m * static_cast<double>(fetched->count_10m);
    sum_60m += fetched->avg_60m * static_cast<double>(fetched->count_60m);
    merged.count_1m += fetched->count_1m;
    merged.count_10m += fetched->count_10m;
    merged.count_60m += fetched->count_60m;
  }
  if (merged.count_1m > 0) {
    merged.avg_1m = sum_1m / static_cast<double>(merged.count_1m);
  }
  if (merged.count_10m > 0) {
    merged.avg_10m = sum_10m / static_cast<double>(merged.count_10m);
  }
  if (merged.count_60m > 0) {
    merged.avg_60m = sum_60m / static_cast<double>(merged.count_60m);
  }
  ++stats_.summary_merges;
  Counters().summary_merges.Increment();
  return merged;
}

Status RepublisherGateway::StartSensor(const std::string& /*sensor*/,
                                       const std::string& principal) {
  if (Status access =
          local_.CheckAccess(gateway::Action::kStartSensor, principal);
      !access.ok()) {
    return access;
  }
  return Status::Unimplemented("republisher " + name_ +
                               " owns no sensors; target the leaf gateway");
}

Status RepublisherGateway::StopSensor(const std::string& sensor,
                                      const std::string& principal) {
  return StartSensor(sensor, principal);
}

void RepublisherGateway::EnableSummary(const std::string& event_name,
                                       const std::string& value_field) {
  local_.EnableSummary(event_name, value_field);
}

RepublisherGateway::Stats RepublisherGateway::stats() const {
  Stats out = stats_;
  out.downstreams = downstreams_.size();
  out.pushdown_groups = groups_.size();
  return out;
}

}  // namespace jamm::federation
