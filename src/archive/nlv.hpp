// Offline nlv views (paper §4.5, Figure 2). nlv draws three graph species
// from a merged event log — lifelines (an object's path through the
// system; the slope exposes latency), loadlines (a continuous scaled
// curve such as CPU load) and points (single occurrences such as TCP
// retransmits, optionally scaled by a value as in Figure 3).
//
// The extraction itself is the archive's AnalysisEngine (analysis.hpp):
// an offline record log is loaded into a private in-memory EventArchive
// (OfflineLog) and queried like any archive, so a live archive query and
// an offline analysis of the same records give the same answer. What
// lives here is only the post-processing the engine does not do: the text
// renderer, from→to latency along lifelines, 1-D clustering (Figure 3), gap
// detection and retransmit correlation (Figure 7), and zero-filled rate
// curves (§6 frame rate).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "common/clock.hpp"
#include "ulm/flat.hpp"

namespace jamm::archive {

/// A record log (a merged NetLogger file, an application's event list)
/// held in a private in-memory archive that keeps every record. Queries
/// cover the whole log: [first timestamp, last timestamp + 1).
class OfflineLog {
 public:
  explicit OfflineLog(ulm::FlatBatch records);
  OfflineLog(const OfflineLog&) = delete;
  OfflineLog& operator=(const OfflineLog&) = delete;

  /// Records named `event`, time-ordered, valued by `value_field` when it
  /// is given and parses as a number other than NaN.
  std::vector<PointSample> Points(const std::string& event,
                                  const std::string& value_field = "") const;
  /// Lifelines joined on `id_fields` (values joined with '|'), ordered by
  /// object id; a record with every id field absent joins none.
  std::vector<TraceLifeline> Lifelines(
      std::vector<std::string> id_fields) const;

 private:
  EventArchive archive_;
  AnalysisEngine engine_;
  TimePoint t0_ = 0;
  TimePoint t1_ = 0;
};

// ----------------------------------------------------------- renderer

/// Character-canvas nlv: time on the x-axis across [t0, t1), labeled rows
/// on the y-axis. The original nlv is a Tk GUI; this draws the same three
/// primitives as text.
class NlvRenderer {
 public:
  NlvRenderer(TimePoint t0, TimePoint t1, int width = 100);

  /// Point primitive: one row, a mark per occurrence.
  void AddPointRow(const std::string& label,
                   const std::vector<PointSample>& points, char mark = 'X');

  /// Loadline primitive: one row rendered as a density sparkline, valued
  /// samples scaled between the series min and max (samples without a
  /// finite value are skipped).
  void AddLoadlineRow(const std::string& label,
                      const std::vector<PointSample>& series);

  /// Lifeline primitive: one row per event name (given bottom-up as in
  /// nlv); each lifeline marks its hops; steeper = faster.
  void AddLifelines(const std::vector<std::string>& event_rows,
                    const std::vector<TraceLifeline>& lifelines);

  /// Full chart with y labels and an x-axis ruler in seconds.
  std::string Render() const;

 private:
  int ColumnFor(TimePoint ts) const;

  struct Row {
    std::string label;
    std::string cells;
  };

  TimePoint t0_, t1_;
  int width_;
  std::vector<Row> rows_;  // rendered top-down
};

// ------------------------------------------------------ post-processing

struct LatencyStats {
  std::size_t count = 0;
  double mean_s = 0, min_s = 0, max_s = 0, p50_s = 0, p95_s = 0;
};

/// Latency of the `from_event` → `to_event` segment across lifelines
/// (first `from` hop, then the first `to` hop after it); percentiles are
/// nearest-rank, as in the engine.
LatencyStats SegmentLatency(const std::vector<TraceLifeline>& lifelines,
                            const std::string& from_event,
                            const std::string& to_event);

/// Occurrences per second in fixed buckets across [t0, t1), empty buckets
/// included — frame-rate curves. Each result is valued at its bucket's
/// midpoint.
std::vector<PointSample> RatePerSecond(const std::vector<PointSample>& points,
                                       TimePoint t0, TimePoint t1,
                                       Duration bucket);

/// 1-D k-means for the Figure-3 "clustering of the data around two
/// distinct values" observation. Returns sorted cluster centers;
/// deterministic (quantile initialization, bounded iteration count).
std::vector<double> FindClusters1D(const std::vector<double>& values,
                                   std::size_t k);

/// Fraction of samples within `radius` of their nearest center; ~1.0
/// means tight clustering.
double ClusterTightness(const std::vector<double>& values,
                        const std::vector<double>& centers, double radius);

struct Gap {
  TimePoint start = 0;
  TimePoint end = 0;
};

/// Intervals of silence (>= min_gap) between consecutive time-ordered
/// points — the Figure-7 "large gap with no data being received".
std::vector<Gap> FindGaps(const std::vector<PointSample>& points,
                          Duration min_gap);

/// How many of `points` fall inside any gap widened by `slack` on both
/// sides — correlates TCP retransmit points with frame-arrival gaps.
std::size_t CountPointsInGaps(const std::vector<PointSample>& points,
                              const std::vector<Gap>& gaps, Duration slack);

}  // namespace jamm::archive
