#include "consumers/archiver.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jamm::consumers {

namespace {

struct ArchiverTelemetry {
  telemetry::Counter& events_received;
  telemetry::Counter& entry_refreshes;
  telemetry::Histogram& ingest_us;
};

ArchiverTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ArchiverTelemetry t{m.counter("archiver.events_received"),
                             m.counter("archiver.entry_refreshes"),
                             m.histogram("archiver.ingest_us")};
  return t;
}

}  // namespace

ArchiverAgent::ArchiverAgent(std::string name, archive::EventArchive& archive,
                             std::string address, const Clock* clock)
    : name_(std::move(name)),
      archive_(archive),
      address_(std::move(address)),
      clock_(clock) {}

ArchiverAgent::~ArchiverAgent() { UnsubscribeAll(); }

Status ArchiverAgent::SubscribeTo(gateway::EventGateway& gw,
                                  const gateway::FilterSpec& spec,
                                  const std::string& principal) {
  auto sub = gw.SubscribeEncoded(
      name_, spec,
      [this](const ulm::EncodedRecord& enc) { IngestView(enc.view()); },
      principal);
  if (!sub.ok()) return sub.status();
  subscriptions_.emplace_back(&gw, *sub);
  return Status::Ok();
}

void ArchiverAgent::IngestView(const ulm::RecordView& view) {
  auto& tm = Instruments();
  tm.events_received.Increment();
  telemetry::ScopedTimer ingest_timer(&tm.ingest_us);
  // Traced records get their final hop stamped so the archived copy
  // shows the full sensor → manager → gateway → archiver path. The view
  // borrows the gateway's record, which other subscribers still see, so
  // the stamp goes on a copy.
  if (telemetry::HasTrace(view)) {
    stamp_scratch_.Assign(view);
    telemetry::StampHop(stamp_scratch_, "archiver", HopTime(view.timestamp()));
    archive_.Ingest(stamp_scratch_.View());
  } else {
    archive_.Ingest(view);
  }
  // Sealing a segment changes what the directory entry advertises
  // (contents, segment count, time span), so keep it current.
  MaybeRefreshEntry();
}

Status ArchiverAgent::AttachRemote(std::unique_ptr<gateway::GatewayClient> client,
                                   const gateway::FilterSpec& spec,
                                   std::size_t batch_records) {
  if (!client) return Status::InvalidArgument("null gateway client");
  remote_ = std::move(client);
  // Async so attaching never blocks on the reply: the client records the
  // subscription spec and replays it after every reconnect, so a gateway
  // that is down right now is caught on the next PumpRemote(). A batched
  // subscription replays batched — the format rides with the recorded spec.
  if (batch_records > 0) {
    return remote_->SubscribeBatchedAsync(name_, spec, batch_records);
  }
  return remote_->SubscribeAsync(name_, spec);
}

std::size_t ArchiverAgent::PumpRemote() {
  if (!remote_) return 0;
  const ulm::FlatBatch& drained = remote_->DrainEvents();
  if (drained.empty()) return 0;
  // The views copy straight into one flat batch — a shared arena the
  // archive splices into its active segment wholesale: one stripe-lock
  // acquisition per pump and no per-record heap traffic past this point.
  // The drained batch is the client's, so a traced record is stamped on
  // a copy first.
  ulm::FlatBatch batch;
  batch.Reserve(drained.size(), drained.value_bytes());
  for (std::size_t i = 0; i < drained.size(); ++i) {
    const ulm::RecordView view = drained.View(i);
    if (telemetry::HasTrace(view)) {
      stamp_scratch_.Assign(view);
      telemetry::StampHop(stamp_scratch_, "archiver",
                          HopTime(view.timestamp()));
      (void)batch.Append(stamp_scratch_.View());
    } else {
      (void)batch.Append(view);  // same bytes the client's arena held
    }
  }
  auto& tm = Instruments();
  tm.events_received.Add(batch.size());
  telemetry::ScopedTimer ingest_timer(&tm.ingest_us);
  const std::size_t ingested = batch.size();
  archive_.IngestBatch(std::move(batch));
  MaybeRefreshEntry();
  return ingested;
}

Status ArchiverAgent::PublishTo(directory::DirectoryPool& pool,
                                const directory::Dn& suffix) {
  // The archives live under "ou=archives, <suffix>"; make sure that
  // container exists before publishing into it.
  directory::Entry container(suffix.Child("ou", "archives"));
  container.Set(directory::schema::kAttrObjectClass, "organizationalUnit");
  (void)pool.Upsert(container);
  published_pool_ = &pool;
  published_suffix_ = suffix;
  published_seals_ = archive_.seal_count();
  const auto [span_min, span_max] = archive_.TimeSpan();
  return pool.Upsert(directory::schema::MakeArchiveEntry(
      suffix, name_, address_, archive_.ContentsSummary(),
      archive_.segment_count(), span_min, span_max));
}

bool ArchiverAgent::MaybeRefreshEntry() {
  if (published_pool_ == nullptr) return false;
  const std::uint64_t seals = archive_.seal_count();
  if (seals == published_seals_) return false;
  Instruments().entry_refreshes.Increment();
  return PublishTo(*published_pool_, published_suffix_).ok();
}

void ArchiverAgent::UnsubscribeAll() {
  for (auto& [gw, id] : subscriptions_) {
    (void)gw->Unsubscribe(id);
  }
  subscriptions_.clear();
}

}  // namespace jamm::consumers
