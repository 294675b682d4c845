#include "archive/archive.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace jamm::archive {

namespace {

struct ArchiveTelemetry {
  telemetry::Counter& ingested;
  telemetry::Counter& dropped;
  telemetry::Counter& seals;
  telemetry::Counter& query_calls;
  telemetry::Counter& segments_scanned;
  telemetry::Counter& segments_pruned;
  telemetry::Counter& bytes_scanned;
  telemetry::Counter& records_decoded;
  telemetry::Counter& records_skipped;
  telemetry::Counter& compressed_segments;
  telemetry::Counter& load_skipped;
  telemetry::Counter& saves;
  telemetry::Histogram& seal_records;  // records per sealed segment
  telemetry::Histogram& query_us;
  telemetry::Histogram& save_us;
};

ArchiveTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ArchiveTelemetry t{m.counter("archive.ingested"),
                            m.counter("archive.dropped"),
                            m.counter("archive.seals"),
                            m.counter("archive.query.calls"),
                            m.counter("archive.query.segments_scanned"),
                            m.counter("archive.query.segments_pruned"),
                            m.counter("archive.query.bytes_scanned"),
                            m.counter("archive.query.records_decoded"),
                            m.counter("archive.query.records_skipped"),
                            m.counter("archive.compress.segments"),
                            m.counter("archive.load.segments_skipped"),
                            m.counter("archive.saves"),
                            m.histogram("archive.seal.records"),
                            m.histogram("archive.query_us"),
                            m.histogram("archive.save_us")};
  return t;
}

/// Process-wide round-robin thread index: thread k (in first-use order)
/// always maps to stripe k % stripes, so single-threaded runs are fully
/// deterministic (everything lands on stripe 0) and N ingest threads
/// spread evenly.
std::size_t ThreadOrdinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

EventArchive::EventArchive(std::string name, std::uint64_t sampling_seed,
                           SegmentConfig config)
    : name_(std::move(name)),
      config_(config),
      shared_(std::make_unique<Shared>()) {
  if (config_.stripes == 0) config_.stripes = 1;
  if (config_.max_records == 0) config_.max_records = 1;
  stripes_.reserve(config_.stripes);
  for (std::size_t i = 0; i < config_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    // Distinct per-stripe streams, deterministic for a given seed.
    stripes_.back()->rng.Seed(sampling_seed + 0x9E3779B97F4A7C15ull * i);
  }
}

void EventArchive::SetSamplingPolicy(double normal_fraction,
                                     bool keep_abnormal) {
  normal_fraction_ = std::min(1.0, std::max(0.0, normal_fraction));
  keep_abnormal_ = keep_abnormal;
}

bool EventArchive::IsAbnormal(ulm::Symbol lvl) {
  static const std::array<ulm::Symbol, 4> kAbnormal = {
      ulm::InternSymbol(ulm::level::kError),
      ulm::InternSymbol(ulm::level::kWarning),
      ulm::InternSymbol(ulm::level::kAlert),
      ulm::InternSymbol(ulm::level::kEmergency)};
  return lvl == kAbnormal[0] || lvl == kAbnormal[1] || lvl == kAbnormal[2] ||
         lvl == kAbnormal[3];
}

EventArchive::Stripe& EventArchive::StripeForThisThread() const {
  return *stripes_[ThreadOrdinal() % stripes_.size()];
}

std::shared_ptr<Segment> EventArchive::NewSegment() {
  // Caller holds a stripe lock; id assignment takes shared_->mu (the
  // stripe-before-shared lock order used everywhere).
  auto segment = std::make_shared<Segment>();
  // Pre-sizes the tail chunk's field vector and value arena so the
  // per-record Append path settles into append-only writes.
  segment->append_reserve = std::min<std::size_t>(config_.max_records, 65536);
  std::lock_guard lock(shared_->mu);
  segment->id = shared_->next_segment_id++;
  return segment;
}

void EventArchive::SealLocked(Stripe& stripe) {
  auto& tm = Instruments();
  tm.seals.Increment();
  tm.seal_records.Record(stripe.active->size());
  // Compress-on-seal happens here, while the stripe lock still makes the
  // segment private — queries only see it once it lands in the sealed
  // list below.
  if (config_.compress_sealed) {
    stripe.active->Compress();
    tm.compressed_segments.Increment();
  }
  std::lock_guard lock(shared_->mu);
  shared_->sealed.push_back(std::move(stripe.active));
  ++shared_->seal_count;
  stripe.active.reset();
}

void EventArchive::Ingest(const ulm::RecordView& view) {
  auto& tm = Instruments();
  tm.ingested.Increment();
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  ++stripe.ingested;
  // Order matters twice over: with sampling off (the common case) the
  // first clause short-circuits past the IsAbnormal level compares, and
  // with sampling on, IsAbnormal-then-Chance preserves the per-stripe rng
  // stream the seed sampling tests pin down (IngestBatch draws the same).
  const bool keep = normal_fraction_ >= 1.0 ||
                    (keep_abnormal_ && IsAbnormal(view.lvl_sym())) ||
                    stripe.rng.Chance(normal_fraction_);
  if (!keep) {
    ++stripe.dropped;
    tm.dropped.Increment();
    return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->Append(view);
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

void EventArchive::IngestBatch(ulm::FlatBatch&& batch) {
  if (batch.empty()) return;
  auto& tm = Instruments();
  tm.ingested.Add(batch.size());
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  stripe.ingested += batch.size();
  if (normal_fraction_ < 1.0) {
    // Sampling on: per-record keep decisions, in batch order so the
    // per-stripe rng stream matches record-at-a-time ingest exactly.
    ulm::FlatBatch kept;
    kept.Reserve(batch.size(), batch.value_bytes());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ulm::RecordView view = batch.View(i);
      const bool keep = (keep_abnormal_ && IsAbnormal(view.lvl_sym())) ||
                        stripe.rng.Chance(normal_fraction_);
      if (keep) {
        // Cannot overflow: the kept subset is no larger than `batch`,
        // which already fit one arena.
        (void)kept.Append(view);
      } else {
        ++stripe.dropped;
        tm.dropped.Increment();
      }
    }
    batch = std::move(kept);
    if (batch.empty()) return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->AppendFlatFrame(std::move(batch));
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

std::size_t EventArchive::SealActive() {
  std::size_t sealed = 0;
  for (auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) {
      SealLocked(*stripe);
      ++sealed;
    }
  }
  return sealed;
}

std::size_t EventArchive::CompressSealed() {
  auto& tm = Instruments();
  std::vector<std::shared_ptr<const Segment>> snapshot;
  {
    std::lock_guard lock(shared_->mu);
    snapshot = shared_->sealed;
  }
  std::size_t compressed = 0;
  for (const auto& segment : snapshot) {
    if (segment->empty() || !segment->compressed.empty()) continue;
    auto copy = std::make_shared<Segment>(*segment);
    copy->Compress();
    std::lock_guard lock(shared_->mu);
    for (auto& slot : shared_->sealed) {
      if (slot.get() == segment.get()) {
        slot = std::move(copy);
        ++compressed;
        tm.compressed_segments.Increment();
        break;
      }
    }
  }
  return compressed;
}

std::size_t EventArchive::StorageBytes() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) total += stripe->active->StorageBytes();
  }
  std::lock_guard lock(shared_->mu);
  for (const auto& segment : shared_->sealed) total += segment->StorageBytes();
  return total;
}

std::size_t EventArchive::IndexBytes() const {
  // Active segments are never compressed, so only the sealed ones count.
  std::lock_guard lock(shared_->mu);
  std::size_t total = 0;
  for (const auto& segment : shared_->sealed) {
    total += segment->block_index().MemoryBytes();
  }
  return total;
}

// ---------------------------------------------------------------- queries

void EventArchive::NoteQueryStats(const QueryStats& stats,
                                  std::size_t decoded,
                                  std::size_t skipped) const {
  auto& tm = Instruments();
  tm.query_calls.Increment();
  tm.segments_scanned.Add(stats.segments_scanned);
  tm.segments_pruned.Add(stats.segments_pruned);
  tm.bytes_scanned.Add(stats.bytes_scanned);
  tm.records_decoded.Add(decoded);
  tm.records_skipped.Add(skipped);
}

ulm::FlatBatch EventArchive::Collect(const ScanFilter& filter,
                                    QueryStats* stats) const {
  telemetry::ScopedTimer timer(&Instruments().query_us);
  QueryStats local;

  // One per-segment partial = that segment's matches; ScanPartials hands
  // them back in segment-id order (and dedupes a segment sealed
  // mid-query), so concatenation + stable sort reproduces the
  // deterministic time-then-id-then-arrival order.
  std::vector<ulm::FlatBatch> groups = ScanPartials<ulm::FlatBatch>(
      filter,
      [](ulm::FlatBatch& hits, const ulm::RecordView& view) {
        (void)hits.Append(view);
      },
      &local);

  ulm::FlatBatch out;
  if (!groups.empty()) out = std::move(groups.front());
  for (std::size_t g = 1; g < groups.size(); ++g) (void)out.Append(groups[g]);
  // Stable: ties keep segment-id-then-arrival order, so the same query
  // yields byte-identical results before and after a Save/Load round trip.
  out.SortByTime();
  local.records_returned = out.size();
  if (stats) *stats = local;
  return out;
}

ulm::FlatBatch EventArchive::QueryRange(TimePoint t0, TimePoint t1,
                                        QueryStats* stats) const {
  return Collect(ScanFilter(t0, t1), stats);
}

ulm::FlatBatch EventArchive::QueryEvents(const std::string& event_glob,
                                         TimePoint t0, TimePoint t1,
                                         QueryStats* stats) const {
  return Collect(ScanFilter(t0, t1, event_glob), stats);
}

ulm::FlatBatch EventArchive::QueryHost(const std::string& host, TimePoint t0,
                                       TimePoint t1, QueryStats* stats) const {
  ScanFilter filter(t0, t1);
  filter.SetHost(host);
  return Collect(filter, stats);
}

// ------------------------------------------------------------ persistence

std::string EventArchive::SaveToBytes() const {
  // Snapshot every segment: sealed as shared pointers, actives as copies
  // made under their stripe locks. Blocks are written in segment-id
  // order, which a Load preserves — so save → load → save is
  // byte-identical.
  std::vector<std::shared_ptr<const Segment>> segments;
  {
    std::lock_guard lock(shared_->mu);
    segments = shared_->sealed;
  }
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) {
      segments.push_back(std::make_shared<const Segment>(*stripe->active));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  std::string out;
  AppendFileHeader(out, static_cast<std::uint32_t>(segments.size()));
  for (const auto& segment : segments) AppendSegmentBlock(*segment, out);
  return out;
}

Status EventArchive::SaveTo(const std::string& path) const {
  auto& tm = Instruments();
  tm.saves.Increment();
  telemetry::ScopedTimer save_timer(&tm.save_us);
  const std::string bytes = SaveToBytes();
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::Unavailable("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Unavailable("write failed: " + path);
  return Status::Ok();
}

Result<EventArchive> EventArchive::LoadFromBytes(std::string name,
                                                 std::string_view data,
                                                 std::uint64_t sampling_seed,
                                                 SegmentConfig config) {
  auto promised = ReadFileHeader(data);
  if (!promised.ok()) return promised.status();

  EventArchive archive(std::move(name), sampling_seed, config);
  LoadStats stats;
  std::set<std::uint64_t> seen_ids;
  std::size_t offset = kFileHeaderBytes;
  while (offset < data.size()) {
    Segment segment;
    const BlockOutcome outcome = ReadSegmentBlock(data, &offset, &segment);
    if (outcome == BlockOutcome::kTruncated) {
      stats.truncated = true;
      break;
    }
    if (outcome == BlockOutcome::kSkipped) {
      ++stats.segments_skipped;
      continue;
    }
    // Segment ids are unique by construction; a duplicate means the block
    // is a corrupt echo of another — skip it rather than shadow a
    // legitimate segment in the id-keyed query merge.
    if (!seen_ids.insert(segment.id).second) {
      ++stats.segments_skipped;
      continue;
    }
    ++stats.segments_loaded;
    auto& shared = *archive.shared_;
    shared.loaded_records += segment.size();
    shared.next_segment_id = std::max(shared.next_segment_id, segment.id + 1);
    shared.sealed.push_back(std::make_shared<const Segment>(std::move(segment)));
  }
  // The header promised a block count; fewer (or more) readable blocks
  // means the tail was lost even if every byte present parsed cleanly.
  if (stats.segments_loaded + stats.segments_skipped != *promised) {
    stats.truncated = true;
  }
  Instruments().load_skipped.Add(stats.segments_skipped);
  archive.load_stats_ = stats;
  return archive;
}

Result<EventArchive> EventArchive::LoadFrom(const std::string& name,
                                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("archive file not found: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadFromBytes(name, buf.str());
}

// ------------------------------------------------------------------ stats

std::size_t EventArchive::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) total += stripe->active->size();
  }
  std::lock_guard lock(shared_->mu);
  for (const auto& segment : shared_->sealed) total += segment->size();
  return total;
}

std::uint64_t EventArchive::ingested() const {
  std::uint64_t total;
  {
    std::lock_guard lock(shared_->mu);
    total = shared_->loaded_records;
  }
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->ingested;
  }
  return total;
}

std::uint64_t EventArchive::dropped() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->dropped;
  }
  return total;
}

std::uint64_t EventArchive::seal_count() const {
  std::lock_guard lock(shared_->mu);
  return shared_->seal_count;
}

std::size_t EventArchive::segment_count() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) ++total;
  }
  std::lock_guard lock(shared_->mu);
  return total + shared_->sealed.size();
}

std::pair<TimePoint, TimePoint> EventArchive::TimeSpan() const {
  bool any = false;
  TimePoint lo = 0, hi = 0;
  auto fold = [&](const Segment& segment) {
    if (segment.empty()) return;
    if (!any) {
      lo = segment.min_ts;
      hi = segment.max_ts;
      any = true;
      return;
    }
    lo = std::min(lo, segment.min_ts);
    hi = std::max(hi, segment.max_ts);
  };
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) fold(*stripe->active);
  }
  std::vector<std::shared_ptr<const Segment>> sealed;
  {
    std::lock_guard lock(shared_->mu);
    sealed = shared_->sealed;
  }
  for (const auto& segment : sealed) fold(*segment);
  return {lo, hi};
}

std::string EventArchive::ContentsSummary() const {
  // Keyed by the interned name's characters (stable for the process
  // lifetime), so the summary stays alphabetical as before.
  std::map<std::string_view, std::uint64_t> merged;
  auto fold = [&](const Segment& segment) {
    for (const auto& [sym, count] : segment.event_counts) {
      merged[ulm::SymbolName(sym)] += count;
    }
  };
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) fold(*stripe->active);
  }
  std::vector<std::shared_ptr<const Segment>> sealed;
  {
    std::lock_guard lock(shared_->mu);
    sealed = shared_->sealed;
  }
  for (const auto& segment : sealed) fold(*segment);
  std::string out;
  for (const auto& [event_name, count] : merged) {
    if (!out.empty()) out += ' ';
    out += event_name;
    out += "(" + std::to_string(count) + ")";
  }
  return out;
}

}  // namespace jamm::archive
