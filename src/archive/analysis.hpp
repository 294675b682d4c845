// Archive analysis engine (ISSUE 8, ROADMAP item 5): server-side
// NetLogger-style analysis primitives over the segmented event archive —
// the paper's "historical analysis of system performance" made concrete
// as the three nlv primitives plus an aggregate:
//
//   * lifelines — an object's path through the system, reconstructed by
//     joining records on their TRACE.ID (or any configured id fields) and
//     ordering the hops in time;
//   * loadlines — a continuous series downsampled onto a fixed time grid:
//     per-bucket count/mean/min/max/percentile over a numeric field;
//   * points — scatter extraction of (timestamp, value) samples;
//   * aggregate — per-event-name summary rows (count/sum/mean/min/max/
//     p50/p95 of a numeric field).
//
// All four run INSIDE the archive process (pushed down), walking only
// covering segments via the zone-map indexes, and return summaries
// instead of raw records — QueryStats::bytes_scanned makes the economy
// measurable. Results are deterministic: element order is time, then
// segment id, then arrival (the archive's canonical query order); value
// statistics are computed over ascending-sorted value vectors (canonical
// summation order, nearest-rank percentiles), so the same archive
// contents yield bit-identical statistics regardless of segment layout,
// compression state, or Save/Load round trips — which is what lets the
// property tests demand byte-identical parity with a brute-force scan.
//
// Symbol lifetime: the engine compiles the spec's event/host/field names
// to interned Symbols with FindSymbol (never Intern — query strings must
// not grow the process-wide table); a name the process never interned
// matches nothing. Hop strings in results are copies, not views, so they
// outlive the query.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"

namespace jamm::archive {

/// One hop of a lifeline: where/what/when, plus the record's SPAN.ID (""
/// when absent) so consumers can correlate with per-hop traces.
struct LifelineHop {
  TimePoint ts = 0;
  std::string event;
  std::string host;
  std::string prog;
  std::string span;
};

/// One reconstructed lifeline: every matching hop carrying `object_id`,
/// time-ordered.
struct TraceLifeline {
  std::string object_id;
  std::vector<LifelineHop> hops;
};

/// One loadline grid bucket (sparse: only non-empty buckets are emitted).
/// `count` is matching records in [bucket_start, bucket_start + bucket);
/// the value statistics cover the subset whose value field parsed as a
/// double other than NaN (`value_count` of them; all zero when none did).
struct LoadBucket {
  TimePoint bucket_start = 0;
  std::uint64_t count = 0;
  std::uint64_t value_count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double pct = 0;  // the spec's percentile (default p95), nearest-rank
};

/// One scatter point: a matching record's timestamp and (when the value
/// field parsed to a number other than NaN) its value.
struct PointSample {
  TimePoint ts = 0;
  bool has_value = false;
  double value = 0;
};

/// One aggregate row: summary of every matching record sharing an event
/// name. Value statistics as in LoadBucket.
struct AggRow {
  std::string event;
  std::uint64_t count = 0;
  std::uint64_t value_count = 0;
  double sum = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
};

/// What to analyze. Encodes to/from the arch.query `predicate` slot as
/// space-separated key=value tokens (values are ULM tokens — no spaces).
struct AnalysisSpec {
  /// NL.EVNT glob filter ("" = all events).
  std::string event_glob;
  /// Exact host filter ("" = all hosts).
  std::string host;
  /// Numeric field for loadline/point/agg value statistics ("" = counts
  /// only; lifelines ignore it).
  std::string value_field;
  /// Fields whose values (joined with '|') identify a lifeline's object.
  std::vector<std::string> id_fields = {"TRACE.ID"};
  /// Loadline grid width (clamped to >= 1 microsecond).
  Duration bucket = kSecond;
  /// Loadline percentile, 0..100 (nearest-rank).
  int percentile = 95;
};

/// "event=<glob> host=<h> field=<f> id=<a,b> bucket=<usec> pct=<p>" —
/// only non-default keys are emitted, so a default spec encodes to "".
std::string EncodeAnalysisSpec(const AnalysisSpec& spec);
/// Inverse; rejects unknown keys, malformed tokens, and out-of-range
/// bucket/pct so a garbled predicate errors instead of silently matching
/// everything.
Result<AnalysisSpec> ParseAnalysisSpec(std::string_view text);

/// Nearest-rank percentile (`pct` in 0..100) of an ascending-sorted
/// vector; 0 when empty. The one percentile definition every analysis
/// statistic uses.
double NearestRank(const std::vector<double>& sorted, int pct);

/// Below this many values SortValues is std::sort itself.
inline constexpr std::size_t kSortValuesRadixMin = 256;

/// Sort NaN-free `values` ascending: the one value ordering of the
/// loadline and aggregate statistics. Below kSortValuesRadixMin values it
/// is std::sort, byte for byte. From there it takes linear time, an LSD
/// radix sort on order-preserving 64-bit keys that skips the byte digits
/// every key shares, and gives std::sort's order except between -0 and
/// +0: they compare equal, so std::sort may leave them in either order
/// (its choice depends on the input order), while the radix sort always
/// puts -0 first. Sums are unchanged by that; a minimum, maximum or
/// percentile that falls on a run of zeros holding both signs may print
/// "-0" where std::sort's order gave "0", or the reverse.
void SortValues(std::vector<double>& values);

/// The pushdown engine. Borrows the archive (must outlive the engine);
/// every method is thread-safe against concurrent ingest, sealing and
/// compression, with the same nothing-missed /
/// nothing-duplicated guarantee as the record queries (it runs on the
/// archive's two-phase deduped segment walk).
class AnalysisEngine {
 public:
  explicit AnalysisEngine(const EventArchive& archive) : archive_(archive) {}

  /// Lifelines of every object with at least one matching hop in
  /// [t0, t1), ordered by object id; hops time-ordered. `records_returned`
  /// in `stats` counts hops.
  std::vector<TraceLifeline> Lifelines(const AnalysisSpec& spec, TimePoint t0,
                                       TimePoint t1,
                                       QueryStats* stats = nullptr) const;
  /// Sparse loadline over the grid t0 + k*spec.bucket, ascending.
  std::vector<LoadBucket> Loadline(const AnalysisSpec& spec, TimePoint t0,
                                   TimePoint t1,
                                   QueryStats* stats = nullptr) const;
  /// Scatter points, time-ordered.
  std::vector<PointSample> Points(const AnalysisSpec& spec, TimePoint t0,
                                  TimePoint t1,
                                  QueryStats* stats = nullptr) const;
  /// Per-event summary rows, ordered by event name.
  std::vector<AggRow> Aggregate(const AnalysisSpec& spec, TimePoint t0,
                                TimePoint t1,
                                QueryStats* stats = nullptr) const;

 private:
  const EventArchive& archive_;
};

// ------------------------------------------------- wire element codecs
//
// Each analysis element marshals to one string (nested rpc::EncodeStrings
// lists; doubles as "%.17g" prints them, which round-trips exactly), so
// the rpc service pages over elements the same way the record queries
// page over records. The encoders append the element's bytes to `out`,
// formatting numbers on the stack, so a page of elements is encoded into
// one buffer. Decoders are total: any malformed element is an error,
// never a partial struct.

void AppendLifeline(std::string& out, const TraceLifeline& lifeline);
Result<TraceLifeline> DecodeLifeline(std::string_view data);
void AppendLoadBucket(std::string& out, const LoadBucket& bucket);
Result<LoadBucket> DecodeLoadBucket(std::string_view data);
void AppendPointSample(std::string& out, const PointSample& point);
Result<PointSample> DecodePointSample(std::string_view data);
void AppendAggRow(std::string& out, const AggRow& row);
Result<AggRow> DecodeAggRow(std::string_view data);

/// QueryStats as a marshalled 5-list (total, scanned, pruned, returned,
/// bytes) — the 4th part of an analysis arch.query reply.
std::string EncodeQueryStats(const QueryStats& stats);
Result<QueryStats> DecodeQueryStats(std::string_view data);

}  // namespace jamm::archive
