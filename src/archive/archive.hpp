// Event archive (paper §2.2): "It is important to archive event data in
// order to provide the ability to do historical analysis of system
// performance... While it may not be desirable to archive all monitoring
// data, it is necessary to archive a good sampling of both 'normal' and
// 'abnormal' system operation."
//
// ISSUE 5 rebuilt this as a segmented, time-partitioned store:
//
//   * ingest appends into lock-striped active segments, so multiple
//     ArchiverAgents (threads) ingest concurrently without contending;
//   * a segment seals when it hits a record-count or time-span bound;
//     sealed segments are immutable and carry min/max-time, event-name,
//     and host indexes, so QueryRange/QueryEvents/QueryHost prune to
//     covering segments instead of scanning everything;
//   * persistence is per-segment with checksummed headers (segment.hpp):
//     a corrupt segment is skipped on load, never fatal, and partial
//     loads are reported, never silent.
//
// Ingest-time sampling is unchanged from the seed: abnormal events
// (Error/Warning/Alert/Emergency) are always kept, normal events are kept
// at a configurable fraction (deterministic for a given seed).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "archive/segment.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "ulm/flat.hpp"

namespace jamm::archive {

/// Active-segment sealing bounds and the ingest lock-stripe count.
/// Configure before concurrent use; not thread-safe to change mid-ingest.
struct SegmentConfig {
  /// Seal when the active segment holds this many records.
  std::size_t max_records = 8192;
  /// Seal when the active segment's record-timestamp span reaches this.
  Duration max_span = kHour;
  /// Independent ingest stripes (each with its own lock and active
  /// segment). Threads are spread round-robin across stripes.
  std::size_t stripes = 8;
  /// Compress segments as they seal (ISSUE 8): the flat chunks are
  /// replaced by a dictionary + delta-varint blob; pruning indexes stay
  /// resident, queries decode the blocks of covering segments that can
  /// hold a match, handing passing records straight to their fold.
  /// Off by default — flip it (or call CompressSealed) when the archive
  /// is read rarely enough that decode-on-scan beats resident bytes.
  bool compress_sealed = false;
};

/// Per-query pruning accounting (pass to any Query* to collect it).
struct QueryStats {
  std::size_t segments_total = 0;    // segments considered
  std::size_t segments_scanned = 0;  // covering segments actually read
  std::size_t segments_pruned = 0;   // skipped via min/max-time, event, host
  std::size_t records_returned = 0;
  /// Stored bytes of the segments actually scanned (Segment::StorageBytes:
  /// blob size for compressed segments, chunk footprint otherwise) — the
  /// pushdown economy measure: how much resting data this query touched.
  std::size_t bytes_scanned = 0;
};

/// What LoadFrom managed to read. The archive is complete only when
/// `ok()` — otherwise some segments were corrupt (skipped) or the file
/// was cut short (truncated), and callers must not treat the loaded data
/// as the whole archive.
struct LoadStats {
  std::size_t segments_loaded = 0;
  std::size_t segments_skipped = 0;  // corrupt blocks resynchronized past
  bool truncated = false;            // trailing bytes unreadable or missing

  bool ok() const { return segments_skipped == 0 && !truncated; }
};

class EventArchive {
 public:
  explicit EventArchive(std::string name, std::uint64_t sampling_seed = 1,
                        SegmentConfig config = {});

  EventArchive(EventArchive&&) = default;
  EventArchive& operator=(EventArchive&&) = default;

  const std::string& name() const { return name_; }
  const SegmentConfig& config() const { return config_; }

  /// Keep `normal_fraction` (0..1] of normal events; abnormal events
  /// (LVL in {Error, Warning, Alert, Emergency}) are always kept when
  /// `keep_abnormal` (default). Default policy keeps everything.
  /// Configure before concurrent ingest begins.
  void SetSamplingPolicy(double normal_fraction, bool keep_abnormal = true);

  /// Store (subject to sampling). Never fails on policy drops — a dropped
  /// event is policy, not an error. Thread-safe: concurrent callers land
  /// on distinct lock stripes. The keep decision is symbol compares and
  /// the kept record is one arena copy.
  void Ingest(const ulm::RecordView& view);

  /// Batched ingest — the archiver's production path, since the gateway
  /// delivers events in batched frames (ISSUE 3). One stripe-lock
  /// acquisition covers the whole batch, whose arena is spliced into the
  /// active segment in O(1) when sampling is off
  /// (no per-record work at all); sampling applies per record in batch
  /// order, with keep decisions drawn from the same per-stripe rng stream
  /// as Ingest, so batched and record-at-a-time ingest of the same
  /// records keep exactly the same ones. `batch` is left empty. The
  /// segment seals after the batch lands, so the record-count bound is
  /// "at least" here. Thread-safe.
  void IngestBatch(ulm::FlatBatch&& batch);

  /// Seal every non-empty active segment now (flush before save/handoff);
  /// returns segments sealed. Thread-safe.
  std::size_t SealActive();

  /// Compress every sealed, still-uncompressed segment (copy-swap:
  /// in-flight queries keep their snapshot); returns segments compressed.
  /// Thread-safe against concurrent ingest and queries.
  std::size_t CompressSealed();

  /// Total resting bytes across all segments (Segment::StorageBytes) —
  /// the numerator/denominator of the compression-ratio bench gate.
  std::size_t StorageBytes() const;
  /// Resident bytes of the compressed segments' block indexes
  /// (BlockIndex::MemoryBytes), held beside StorageBytes.
  std::size_t IndexBytes() const;

  // -------------------------------------------------------------- queries
  //
  // All queries are thread-safe, return one flat batch of records
  // time-ordered (ties broken deterministically by segment id, then
  // in-segment order), and prune non-covering segments via the
  // per-segment indexes.

  /// All stored records with t0 <= ts < t1.
  ulm::FlatBatch QueryRange(TimePoint t0, TimePoint t1,
                            QueryStats* stats = nullptr) const;
  /// Range narrowed by NL.EVNT glob ("" = all).
  ulm::FlatBatch QueryEvents(const std::string& event_glob, TimePoint t0,
                             TimePoint t1, QueryStats* stats = nullptr) const;
  /// Range narrowed by host.
  ulm::FlatBatch QueryHost(const std::string& host, TimePoint t0, TimePoint t1,
                           QueryStats* stats = nullptr) const;

  // ---------------------------------------------------------- persistence

  /// Serialize every segment (sealed + active) — see segment.hpp for the
  /// checksummed per-segment wire format.
  std::string SaveToBytes() const;
  Status SaveTo(const std::string& path) const;

  /// Load an archive image. Corrupt segments are skipped, a truncated
  /// tail stops the load; both are reported via load_stats(), so partial
  /// data is never silently presented as complete. A malformed file
  /// header is an error. All loaded segments arrive sealed.
  static Result<EventArchive> LoadFromBytes(std::string name,
                                            std::string_view data,
                                            std::uint64_t sampling_seed = 1,
                                            SegmentConfig config = {});
  static Result<EventArchive> LoadFrom(const std::string& name,
                                       const std::string& path);

  /// Stats from the LoadFrom that produced this archive (all-ok for an
  /// archive born empty).
  const LoadStats& load_stats() const { return load_stats_; }

  // -------------------------------------------------------------- stats

  /// Records currently stored (after sampling).
  std::size_t size() const;
  std::uint64_t ingested() const;
  std::uint64_t dropped() const;
  /// Lifetime seals (the archiver refreshes its directory entry on this).
  std::uint64_t seal_count() const;
  /// Sealed segments + non-empty active segments.
  std::size_t segment_count() const;
  /// [min, max] record timestamp over all segments ({0, 0} when empty).
  std::pair<TimePoint, TimePoint> TimeSpan() const;

  /// "EVNT_A(120) EVNT_B(3) ..." — fills the archive directory entry's
  /// contents attribute ("creates an archive directory service entry
  /// indicating the contents of the archive").
  std::string ContentsSummary() const;

 private:
  /// One ingest stripe: its own lock, active segment, sampling rng, and
  /// counters, so concurrent ingest threads do not contend.
  struct Stripe {
    mutable std::mutex mu;
    std::shared_ptr<Segment> active;  // null until first kept record
    Rng rng;
    std::uint64_t ingested = 0;
    std::uint64_t dropped = 0;
  };

  /// Shared sealed-segment state. Lock order: Stripe::mu before
  /// Shared::mu (sealing nests); queries take them one at a time.
  struct Shared {
    mutable std::mutex mu;
    std::vector<std::shared_ptr<const Segment>> sealed;
    std::uint64_t seal_count = 0;
    std::uint64_t next_segment_id = 0;
    std::uint64_t loaded_records = 0;  // base for ingested() after a load
  };

  /// The ingest keep decision is four 4-byte compares against the
  /// pre-interned abnormal level symbols.
  static bool IsAbnormal(ulm::Symbol lvl);

  Stripe& StripeForThisThread() const;
  /// Move the stripe's active segment to the sealed list. Caller holds
  /// stripe.mu; takes shared_->mu nested.
  void SealLocked(Stripe& stripe);
  std::shared_ptr<Segment> NewSegment();
  /// Shared query walk: collect the records that pass `filter` from every
  /// covering segment, merged time-ordered.
  ulm::FlatBatch Collect(const ScanFilter& filter, QueryStats* stats) const;

  /// Telemetry fold for one query walk (implemented in the .cpp, where
  /// the instruments live): its stats plus the records the scanned
  /// segments handed to it and skipped.
  void NoteQueryStats(const QueryStats& stats, std::size_t decoded,
                      std::size_t skipped) const;

  /// The generic two-phase segment walk every query — record collection
  /// and the analysis engine's pushed-down partials alike — is built on:
  /// visit actives under their stripe locks, then the sealed snapshot.
  /// Each segment `filter` covers gets one Partial, and `fold(partial,
  /// view)` runs on each of its records that pass `filter`. A segment
  /// active in phase one and sealed before phase two is skipped in phase
  /// two, so nothing ingested before the walk began is missed,
  /// duplicated, or double-counted in the stats. Returns the scanned
  /// partials in segment-id order (the deterministic merge order) and
  /// fills everything in `stats` except records_returned.
  template <typename Partial, typename FoldFn>
  std::vector<Partial> ScanPartials(const ScanFilter& filter,
                                    const FoldFn& fold,
                                    QueryStats* stats) const {
    struct Scanned {
      std::uint64_t id;
      Partial partial;
    };
    std::vector<Scanned> scanned;
    std::vector<std::uint64_t> active_ids;
    QueryStats local;
    std::size_t decoded = 0, walked = 0;
    auto visit = [&](const Segment& segment) {
      ++local.segments_total;
      if (!filter.Covers(segment)) {
        ++local.segments_pruned;
        return;
      }
      ++local.segments_scanned;
      local.bytes_scanned += segment.StorageBytes();
      walked += segment.size();
      Partial partial{};
      decoded += segment.ForEachView(
          filter, [&](const ulm::RecordView& view) { fold(partial, view); });
      scanned.push_back({segment.id, std::move(partial)});
    };
    for (const auto& stripe : stripes_) {
      std::lock_guard lock(stripe->mu);
      if (stripe->active && !stripe->active->empty()) {
        active_ids.push_back(stripe->active->id);
        visit(*stripe->active);
      }
    }
    std::vector<std::shared_ptr<const Segment>> sealed;
    {
      std::lock_guard lock(shared_->mu);
      sealed = shared_->sealed;
    }
    for (const auto& segment : sealed) {
      if (std::find(active_ids.begin(), active_ids.end(), segment->id) ==
          active_ids.end()) {
        visit(*segment);
      }
    }

    std::sort(scanned.begin(), scanned.end(),
              [](const Scanned& a, const Scanned& b) { return a.id < b.id; });
    std::vector<Partial> out;
    out.reserve(scanned.size());
    for (auto& s : scanned) out.push_back(std::move(s.partial));
    NoteQueryStats(local, decoded, walked - decoded);
    if (stats) *stats = local;
    return out;
  }

  /// The analysis engine (analysis.hpp) runs its pushed-down partial
  /// scans through ScanPartials directly.
  friend class AnalysisEngine;

  std::string name_;
  SegmentConfig config_;
  double normal_fraction_ = 1.0;
  bool keep_abnormal_ = true;
  LoadStats load_stats_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace jamm::archive
