#include "archive/nlv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace jamm::archive {

// ---------------------------------------------------------- offline log

OfflineLog::OfflineLog(ulm::FlatBatch records)
    : archive_("offline-log"), engine_(archive_) {
  archive_.IngestBatch(std::move(records));
  const auto [first, last] = archive_.TimeSpan();
  t0_ = first;
  t1_ = last + 1;
}

std::vector<PointSample> OfflineLog::Points(
    const std::string& event, const std::string& value_field) const {
  AnalysisSpec spec;
  spec.event_glob = event;
  spec.value_field = value_field;
  return engine_.Points(spec, t0_, t1_);
}

std::vector<TraceLifeline> OfflineLog::Lifelines(
    std::vector<std::string> id_fields) const {
  AnalysisSpec spec;
  spec.id_fields = std::move(id_fields);
  return engine_.Lifelines(spec, t0_, t1_);
}

// ------------------------------------------------------------- renderer

namespace {
constexpr char kLoadRamp[] = " .:-=+*#%@";
constexpr int kRampMax = 9;
}  // namespace

NlvRenderer::NlvRenderer(TimePoint t0, TimePoint t1, int width)
    : t0_(t0), t1_(std::max(t1, t0 + 1)), width_(std::max(width, 10)) {}

int NlvRenderer::ColumnFor(TimePoint ts) const {
  if (ts < t0_ || ts >= t1_) return -1;
  const double frac = static_cast<double>(ts - t0_) /
                      static_cast<double>(t1_ - t0_);
  const int col = static_cast<int>(frac * width_);
  return std::min(col, width_ - 1);
}

void NlvRenderer::AddPointRow(const std::string& label,
                              const std::vector<PointSample>& points,
                              char mark) {
  Row row{label, std::string(static_cast<std::size_t>(width_), ' ')};
  for (const auto& p : points) {
    const int col = ColumnFor(p.ts);
    if (col >= 0) row.cells[static_cast<std::size_t>(col)] = mark;
  }
  rows_.push_back(std::move(row));
}

void NlvRenderer::AddLoadlineRow(const std::string& label,
                                 const std::vector<PointSample>& series) {
  Row row{label, std::string(static_cast<std::size_t>(width_), ' ')};
  auto drawable = [](const PointSample& p) {
    return p.has_value && std::isfinite(p.value);
  };
  bool any = false;
  double lo = 0, hi = 0;
  for (const auto& p : series) {
    if (!drawable(p)) continue;
    lo = any ? std::min(lo, p.value) : p.value;
    hi = any ? std::max(hi, p.value) : p.value;
    any = true;
  }
  const double span = hi > lo ? hi - lo : 1.0;
  // Per column keep the max ramp level so bursts stay visible.
  for (const auto& p : series) {
    if (!drawable(p)) continue;
    const int col = ColumnFor(p.ts);
    if (col < 0) continue;
    // fmax drops a NaN from an overflowed span; the clamp keeps the index
    // on the ramp.
    const double frac = std::fmin(std::fmax((p.value - lo) / span, 0.0), 1.0);
    const int level = 1 + static_cast<int>(frac * (kRampMax - 1));
    char& cell = row.cells[static_cast<std::size_t>(col)];
    const int existing =
        cell == ' ' ? 0 : static_cast<int>(std::string(kLoadRamp).find(cell));
    if (level > existing) cell = kLoadRamp[level];
  }
  rows_.push_back(std::move(row));
}

void NlvRenderer::AddLifelines(const std::vector<std::string>& event_rows,
                               const std::vector<TraceLifeline>& lifelines) {
  // nlv stacks event names bottom-up; the canvas renders top-down, so
  // reverse. One mark per hop; successive lifelines cycle through mark
  // characters so individual object paths stay traceable.
  std::vector<Row> grid;
  grid.reserve(event_rows.size());
  for (auto it = event_rows.rbegin(); it != event_rows.rend(); ++it) {
    grid.push_back({*it, std::string(static_cast<std::size_t>(width_), ' ')});
  }
  auto row_for = [&](const std::string& name) -> Row* {
    for (auto& row : grid) {
      if (row.label == name) return &row;
    }
    return nullptr;
  };
  constexpr char kMarks[] = "ox+*%&";
  std::size_t line_idx = 0;
  for (const auto& line : lifelines) {
    const char mark = kMarks[line_idx++ % (sizeof(kMarks) - 1)];
    for (const auto& hop : line.hops) {
      Row* row = row_for(hop.event);
      if (!row) continue;
      const int col = ColumnFor(hop.ts);
      if (col >= 0) row->cells[static_cast<std::size_t>(col)] = mark;
    }
  }
  for (auto& row : grid) rows_.push_back(std::move(row));
}

std::string NlvRenderer::Render() const {
  std::size_t label_width = 0;
  for (const auto& row : rows_) {
    label_width = std::max(label_width, row.label.size());
  }
  std::string out;
  for (const auto& row : rows_) {
    std::string label = row.label;
    label.resize(label_width, ' ');
    out += label + " |" + row.cells + "|\n";
  }
  // x-axis ruler in seconds relative to t0.
  std::string axis(static_cast<std::size_t>(width_), '-');
  out += std::string(label_width, ' ') + " +" + axis + "+\n";
  std::string ticks = std::string(label_width, ' ') + "  0s";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fs", ToSeconds(t1_ - t0_));
  const std::string end_tick(buf);
  const std::size_t total = label_width + 2 + static_cast<std::size_t>(width_);
  if (ticks.size() + end_tick.size() < total) {
    ticks += std::string(total - ticks.size() - end_tick.size(), ' ');
  }
  out += ticks + end_tick + "\n";
  return out;
}

// ------------------------------------------------------ post-processing

LatencyStats SegmentLatency(const std::vector<TraceLifeline>& lifelines,
                            const std::string& from_event,
                            const std::string& to_event) {
  std::vector<double> latencies;
  for (const auto& line : lifelines) {
    TimePoint from_ts = -1;
    for (const auto& hop : line.hops) {
      if (from_ts < 0 && hop.event == from_event) {
        from_ts = hop.ts;
      } else if (from_ts >= 0 && hop.event == to_event) {
        latencies.push_back(ToSeconds(hop.ts - from_ts));
        break;
      }
    }
  }
  LatencyStats s;
  s.count = latencies.size();
  if (latencies.empty()) return s;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0;
  for (double v : latencies) sum += v;
  s.mean_s = sum / static_cast<double>(latencies.size());
  s.min_s = latencies.front();
  s.max_s = latencies.back();
  s.p50_s = NearestRank(latencies, 50);
  s.p95_s = NearestRank(latencies, 95);
  return s;
}

std::vector<PointSample> RatePerSecond(const std::vector<PointSample>& points,
                                       TimePoint t0, TimePoint t1,
                                       Duration bucket) {
  if (bucket <= 0 || t1 <= t0) return {};
  const std::size_t nbuckets =
      static_cast<std::size_t>((t1 - t0 + bucket - 1) / bucket);
  std::vector<std::size_t> counts(nbuckets, 0);
  for (const auto& p : points) {
    if (p.ts < t0 || p.ts >= t1) continue;
    counts[static_cast<std::size_t>((p.ts - t0) / bucket)]++;
  }
  std::vector<PointSample> out;
  out.reserve(nbuckets);
  const double bucket_s = ToSeconds(bucket);
  for (std::size_t i = 0; i < nbuckets; ++i) {
    PointSample rate;
    rate.ts = t0 + static_cast<Duration>(i) * bucket + bucket / 2;
    rate.has_value = true;
    rate.value = static_cast<double>(counts[i]) / bucket_s;
    out.push_back(rate);
  }
  return out;
}

std::vector<double> FindClusters1D(const std::vector<double>& values,
                                   std::size_t k) {
  if (values.empty() || k == 0) return {};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  k = std::min(k, sorted.size());
  // Quantile initialization makes the result deterministic and
  // well-spread: center i starts at the (i + 0.5) / k quantile.
  std::vector<double> centers(k);
  for (std::size_t i = 0; i < k; ++i) {
    centers[i] = sorted[(2 * i + 1) * sorted.size() / (2 * k)];
  }
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> sums(k, 0);
    std::vector<std::size_t> counts(k, 0);
    for (double v : sorted) {
      std::size_t best = 0;
      double best_d = std::abs(v - centers[0]);
      for (std::size_t c = 1; c < k; ++c) {
        const double d = std::abs(v - centers[c]);
        if (d < best_d) {
          best = c;
          best_d = d;
        }
      }
      sums[best] += v;
      counts[best]++;
    }
    bool changed = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      const double next = sums[c] / static_cast<double>(counts[c]);
      if (std::abs(next - centers[c]) > 1e-9) changed = true;
      centers[c] = next;
    }
    if (!changed) break;
  }
  std::sort(centers.begin(), centers.end());
  return centers;
}

double ClusterTightness(const std::vector<double>& values,
                        const std::vector<double>& centers, double radius) {
  if (values.empty() || centers.empty()) return 0;
  std::size_t close = 0;
  for (double v : values) {
    for (double c : centers) {
      if (std::abs(v - c) <= radius) {
        ++close;
        break;
      }
    }
  }
  return static_cast<double>(close) / static_cast<double>(values.size());
}

std::vector<Gap> FindGaps(const std::vector<PointSample>& points,
                          Duration min_gap) {
  std::vector<Gap> out;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].ts - points[i - 1].ts >= min_gap) {
      out.push_back({points[i - 1].ts, points[i].ts});
    }
  }
  return out;
}

std::size_t CountPointsInGaps(const std::vector<PointSample>& points,
                              const std::vector<Gap>& gaps, Duration slack) {
  std::size_t n = 0;
  for (const auto& p : points) {
    for (const Gap& g : gaps) {
      if (p.ts >= g.start - slack && p.ts <= g.end + slack) {
        ++n;
        break;
      }
    }
  }
  return n;
}

}  // namespace jamm::archive
