#include "archive/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/strings.hpp"
#include "rpc/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jamm::archive {

namespace {

struct AnalysisTelemetry {
  telemetry::Counter& calls;
  telemetry::Histogram& query_us;
};

AnalysisTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static AnalysisTelemetry t{m.counter("archive.analysis.calls"),
                             m.histogram("archive.analysis.query_us")};
  return t;
}

/// The spec's record predicates as the scan filter every engine query
/// pushes into the segment walk.
ScanFilter SpecFilter(const AnalysisSpec& spec, TimePoint t0, TimePoint t1) {
  ScanFilter filter(t0, t1, spec.event_glob);
  if (!spec.host.empty()) filter.SetHost(spec.host);
  return filter;
}

/// What the scan filter cannot express, compiled to symbols: the id, value
/// and span fields. FindSymbol, never Intern: a field name the process
/// never interned is on no record.
struct Compiled {
  std::optional<ulm::Symbol> value_sym;
  std::optional<ulm::Symbol> span_sym;
  std::vector<std::optional<ulm::Symbol>> id_syms;

  explicit Compiled(const AnalysisSpec& s) {
    if (!s.value_field.empty()) value_sym = ulm::FindSymbol(s.value_field);
    span_sym = ulm::FindSymbol(telemetry::field::kSpanId);
    id_syms.reserve(s.id_fields.size());
    for (const auto& f : s.id_fields) id_syms.push_back(ulm::FindSymbol(f));
  }

  /// The lifeline join key: the id fields' values joined with '|'. Empty
  /// (= not part of any lifeline) when every id field is absent or empty.
  std::string ObjectId(const ulm::RecordView& view) const {
    std::string id;
    bool any = false;
    for (std::size_t i = 0; i < id_syms.size(); ++i) {
      if (i > 0) id += '|';
      if (!id_syms[i]) continue;
      const auto value = view.GetField(*id_syms[i]);
      if (value && !value->empty()) {
        id += *value;
        any = true;
      }
    }
    return any ? id : std::string();
  }

  /// Value extraction for loadline/point/agg: present only when the spec
  /// names a field and it parses as a double (same ParseDouble semantics
  /// as Record::GetDouble, which the brute-force parity tests use). A NaN
  /// ("VAL=nan" parses) is no value: it has no place in the sorted order
  /// the statistics are computed over.
  std::optional<double> Value(const ulm::RecordView& view) const {
    if (!value_sym) return std::nullopt;
    auto parsed = view.GetDouble(*value_sym);
    if (!parsed.ok() || std::isnan(*parsed)) return std::nullopt;
    return *parsed;
  }
};

/// Canonical sum: ascending order, so the result is bit-identical no
/// matter how the values were partitioned across segments.
double AscendingSum(const std::vector<double>& sorted) {
  double sum = 0;
  for (double v : sorted) sum += v;
  return sum;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<std::uint64_t> ParseU64(const std::string& text, const char* what) {
  auto value = ParseInt(text);
  if (!value.ok() || *value < 0) {
    return Status::ParseError(std::string("analysis: bad ") + what + " '" +
                              text + "'");
  }
  return static_cast<std::uint64_t>(*value);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, int pct) {
  if (sorted.empty()) return 0;
  if (pct <= 0) return sorted.front();
  std::size_t rank =
      (static_cast<std::size_t>(pct) * sorted.size() + 99) / 100;
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

// ------------------------------------------------------------- spec codec

std::string EncodeAnalysisSpec(const AnalysisSpec& spec) {
  std::string out;
  auto put = [&](std::string_view key, std::string_view value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  if (!spec.event_glob.empty()) put("event", spec.event_glob);
  if (!spec.host.empty()) put("host", spec.host);
  if (!spec.value_field.empty()) put("field", spec.value_field);
  if (spec.id_fields != AnalysisSpec{}.id_fields) {
    std::string joined;
    for (const auto& f : spec.id_fields) {
      if (!joined.empty()) joined += ',';
      joined += f;
    }
    put("id", joined);
  }
  if (spec.bucket != AnalysisSpec{}.bucket) {
    put("bucket", std::to_string(spec.bucket));
  }
  if (spec.percentile != AnalysisSpec{}.percentile) {
    put("pct", std::to_string(spec.percentile));
  }
  return out;
}

Result<AnalysisSpec> ParseAnalysisSpec(std::string_view text) {
  AnalysisSpec spec;
  for (const auto& token : Split(text, ' ')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("analysis spec: bad token '" + token +
                                     "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "event") {
      spec.event_glob = value;
    } else if (key == "host") {
      spec.host = value;
    } else if (key == "field") {
      spec.value_field = value;
    } else if (key == "id") {
      spec.id_fields.clear();
      for (const auto& f : Split(value, ',')) {
        if (f.empty()) {
          return Status::InvalidArgument("analysis spec: empty id field");
        }
        spec.id_fields.push_back(f);
      }
      if (spec.id_fields.empty()) {
        return Status::InvalidArgument("analysis spec: empty id list");
      }
    } else if (key == "bucket") {
      auto parsed = ParseInt(value);
      if (!parsed.ok() || *parsed <= 0) {
        return Status::InvalidArgument("analysis spec: bad bucket '" + value +
                                       "'");
      }
      spec.bucket = *parsed;
    } else if (key == "pct") {
      auto parsed = ParseInt(value);
      if (!parsed.ok() || *parsed < 0 || *parsed > 100) {
        return Status::InvalidArgument("analysis spec: bad pct '" + value +
                                       "'");
      }
      spec.percentile = static_cast<int>(*parsed);
    } else {
      return Status::InvalidArgument("analysis spec: unknown key '" + key +
                                     "'");
    }
  }
  return spec;
}

// ----------------------------------------------------------------- engine

std::vector<TraceLifeline> AnalysisEngine::Lifelines(const AnalysisSpec& spec,
                                                     TimePoint t0, TimePoint t1,
                                                     QueryStats* stats) const {
  auto& tm = Instruments();
  tm.calls.Increment();
  telemetry::ScopedTimer timer(&tm.query_us);
  const Compiled c(spec);

  // Per-segment partial: (object id, hop) pairs in arrival order. The
  // id-ordered partials concatenated and stable-sorted by timestamp
  // reproduce the archive's canonical time/segment-id/arrival order, so
  // each lifeline's hop sequence is exactly the brute-force one.
  using Hops = std::vector<std::pair<std::string, LifelineHop>>;
  QueryStats local;
  auto partials = archive_.ScanPartials<Hops>(
      SpecFilter(spec, t0, t1),
      [&](Hops& hops, const ulm::RecordView& view) {
        std::string id = c.ObjectId(view);
        if (id.empty()) return;
        LifelineHop hop;
        hop.ts = view.timestamp();
        hop.event = std::string(view.event_name());
        hop.host = std::string(view.host());
        hop.prog = std::string(view.prog());
        if (c.span_sym) {
          hop.span = std::string(view.GetField(*c.span_sym).value_or(""));
        }
        hops.emplace_back(std::move(id), std::move(hop));
      },
      &local);

  Hops all;
  for (auto& hops : partials) {
    all.insert(all.end(), std::make_move_iterator(hops.begin()),
               std::make_move_iterator(hops.end()));
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second.ts < b.second.ts;
  });

  std::map<std::string, TraceLifeline> traces;  // ordered by object id
  for (auto& [id, hop] : all) {
    TraceLifeline& trace = traces[id];
    if (trace.object_id.empty()) trace.object_id = id;
    trace.hops.push_back(std::move(hop));
  }
  local.records_returned = all.size();
  if (stats) *stats = local;
  std::vector<TraceLifeline> out;
  out.reserve(traces.size());
  for (auto& [id, trace] : traces) {
    (void)id;
    out.push_back(std::move(trace));
  }
  return out;
}

std::vector<LoadBucket> AnalysisEngine::Loadline(const AnalysisSpec& spec,
                                                 TimePoint t0, TimePoint t1,
                                                 QueryStats* stats) const {
  auto& tm = Instruments();
  tm.calls.Increment();
  telemetry::ScopedTimer timer(&tm.query_us);
  const Compiled c(spec);
  const Duration width = std::max<Duration>(1, spec.bucket);

  struct Partial {
    std::uint64_t count = 0;
    std::vector<double> values;
  };
  using Grid = std::map<std::int64_t, Partial>;
  QueryStats local;
  auto partials = archive_.ScanPartials<Grid>(
      SpecFilter(spec, t0, t1),
      [&](Grid& grid, const ulm::RecordView& view) {
        Partial& bucket = grid[(view.timestamp() - t0) / width];
        ++bucket.count;
        if (const auto value = c.Value(view)) {
          bucket.values.push_back(*value);
        }
      },
      &local);

  Grid merged;
  for (auto& grid : partials) {
    for (auto& [idx, partial] : grid) {
      Partial& into = merged[idx];
      into.count += partial.count;
      into.values.insert(into.values.end(), partial.values.begin(),
                         partial.values.end());
    }
  }
  std::vector<LoadBucket> out;
  out.reserve(merged.size());
  for (auto& [idx, partial] : merged) {
    LoadBucket bucket;
    bucket.bucket_start = t0 + idx * width;
    bucket.count = partial.count;
    local.records_returned += partial.count;
    if (!partial.values.empty()) {
      std::sort(partial.values.begin(), partial.values.end());
      bucket.value_count = partial.values.size();
      bucket.min = partial.values.front();
      bucket.max = partial.values.back();
      bucket.mean = AscendingSum(partial.values) /
                    static_cast<double>(partial.values.size());
      bucket.pct = NearestRank(partial.values, spec.percentile);
    }
    out.push_back(bucket);
  }
  if (stats) *stats = local;
  return out;
}

std::vector<PointSample> AnalysisEngine::Points(const AnalysisSpec& spec,
                                                TimePoint t0, TimePoint t1,
                                                QueryStats* stats) const {
  auto& tm = Instruments();
  tm.calls.Increment();
  telemetry::ScopedTimer timer(&tm.query_us);
  const Compiled c(spec);

  using Samples = std::vector<PointSample>;
  QueryStats local;
  auto partials = archive_.ScanPartials<Samples>(
      SpecFilter(spec, t0, t1),
      [&](Samples& samples, const ulm::RecordView& view) {
        PointSample point;
        point.ts = view.timestamp();
        if (const auto value = c.Value(view)) {
          point.has_value = true;
          point.value = *value;
        }
        samples.push_back(point);
      },
      &local);

  Samples out;
  for (auto& samples : partials) {
    out.insert(out.end(), samples.begin(), samples.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PointSample& a, const PointSample& b) {
                     return a.ts < b.ts;
                   });
  local.records_returned = out.size();
  if (stats) *stats = local;
  return out;
}

std::vector<AggRow> AnalysisEngine::Aggregate(const AnalysisSpec& spec,
                                              TimePoint t0, TimePoint t1,
                                              QueryStats* stats) const {
  auto& tm = Instruments();
  tm.calls.Increment();
  telemetry::ScopedTimer timer(&tm.query_us);
  const Compiled c(spec);

  struct Partial {
    std::uint64_t count = 0;
    std::vector<double> values;
  };
  using Groups = std::map<std::string, Partial>;  // keyed by event name
  QueryStats local;
  auto partials = archive_.ScanPartials<Groups>(
      SpecFilter(spec, t0, t1),
      [&](Groups& groups, const ulm::RecordView& view) {
        Partial& group = groups[std::string(view.event_name())];
        ++group.count;
        if (const auto value = c.Value(view)) {
          group.values.push_back(*value);
        }
      },
      &local);

  Groups merged;
  for (auto& groups : partials) {
    for (auto& [event, partial] : groups) {
      Partial& into = merged[event];
      into.count += partial.count;
      into.values.insert(into.values.end(), partial.values.begin(),
                         partial.values.end());
    }
  }
  std::vector<AggRow> out;
  out.reserve(merged.size());
  for (auto& [event, partial] : merged) {
    AggRow row;
    row.event = event;
    row.count = partial.count;
    local.records_returned += partial.count;
    if (!partial.values.empty()) {
      std::sort(partial.values.begin(), partial.values.end());
      row.value_count = partial.values.size();
      row.min = partial.values.front();
      row.max = partial.values.back();
      row.sum = AscendingSum(partial.values);
      row.mean = row.sum / static_cast<double>(partial.values.size());
      row.p50 = NearestRank(partial.values, 50);
      row.p95 = NearestRank(partial.values, 95);
    }
    out.push_back(std::move(row));
  }
  if (stats) *stats = local;
  return out;
}

// ------------------------------------------------- wire element codecs

std::string EncodeLifeline(const TraceLifeline& lifeline) {
  std::vector<std::string> parts;
  parts.reserve(1 + lifeline.hops.size());
  parts.push_back(lifeline.object_id);
  for (const auto& hop : lifeline.hops) {
    parts.push_back(rpc::EncodeStrings({std::to_string(hop.ts), hop.event,
                                        hop.host, hop.prog, hop.span}));
  }
  return rpc::EncodeStrings(parts);
}

Result<TraceLifeline> DecodeLifeline(std::string_view data) {
  auto parts = rpc::DecodeStrings(data);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return Status::ParseError("lifeline: empty element");
  TraceLifeline lifeline;
  lifeline.object_id = (*parts)[0];
  lifeline.hops.reserve(parts->size() - 1);
  for (std::size_t i = 1; i < parts->size(); ++i) {
    auto fields = rpc::DecodeStrings((*parts)[i]);
    if (!fields.ok()) return fields.status();
    if (fields->size() != 5) {
      return Status::ParseError("lifeline hop wants 5 parts, got " +
                                std::to_string(fields->size()));
    }
    auto ts = ParseInt((*fields)[0]);
    if (!ts.ok()) return Status::ParseError("lifeline hop: bad timestamp");
    LifelineHop hop;
    hop.ts = *ts;
    hop.event = std::move((*fields)[1]);
    hop.host = std::move((*fields)[2]);
    hop.prog = std::move((*fields)[3]);
    hop.span = std::move((*fields)[4]);
    lifeline.hops.push_back(std::move(hop));
  }
  return lifeline;
}

std::string EncodeLoadBucket(const LoadBucket& bucket) {
  return rpc::EncodeStrings(
      {std::to_string(bucket.bucket_start), std::to_string(bucket.count),
       std::to_string(bucket.value_count), FormatDouble(bucket.mean),
       FormatDouble(bucket.min), FormatDouble(bucket.max),
       FormatDouble(bucket.pct)});
}

Result<LoadBucket> DecodeLoadBucket(std::string_view data) {
  auto parts = rpc::DecodeStrings(data);
  if (!parts.ok()) return parts.status();
  if (parts->size() != 7) {
    return Status::ParseError("load bucket wants 7 parts, got " +
                              std::to_string(parts->size()));
  }
  LoadBucket bucket;
  auto start = ParseInt((*parts)[0]);
  if (!start.ok()) return Status::ParseError("load bucket: bad start");
  bucket.bucket_start = *start;
  auto count = ParseU64((*parts)[1], "bucket count");
  if (!count.ok()) return count.status();
  bucket.count = *count;
  auto vcount = ParseU64((*parts)[2], "bucket value count");
  if (!vcount.ok()) return vcount.status();
  bucket.value_count = *vcount;
  double* doubles[] = {&bucket.mean, &bucket.min, &bucket.max, &bucket.pct};
  for (std::size_t i = 0; i < 4; ++i) {
    auto parsed = ParseDouble((*parts)[i + 3]);
    if (!parsed.ok()) return Status::ParseError("load bucket: bad value");
    *doubles[i] = *parsed;
  }
  return bucket;
}

std::string EncodePointSample(const PointSample& point) {
  return rpc::EncodeStrings({std::to_string(point.ts),
                             point.has_value ? "1" : "0",
                             FormatDouble(point.value)});
}

Result<PointSample> DecodePointSample(std::string_view data) {
  auto parts = rpc::DecodeStrings(data);
  if (!parts.ok()) return parts.status();
  if (parts->size() != 3) {
    return Status::ParseError("point wants 3 parts, got " +
                              std::to_string(parts->size()));
  }
  PointSample point;
  auto ts = ParseInt((*parts)[0]);
  if (!ts.ok()) return Status::ParseError("point: bad timestamp");
  point.ts = *ts;
  if ((*parts)[1] == "1") {
    point.has_value = true;
  } else if ((*parts)[1] != "0") {
    return Status::ParseError("point: bad has_value flag");
  }
  auto value = ParseDouble((*parts)[2]);
  if (!value.ok()) return Status::ParseError("point: bad value");
  point.value = *value;
  return point;
}

std::string EncodeAggRow(const AggRow& row) {
  return rpc::EncodeStrings(
      {row.event, std::to_string(row.count), std::to_string(row.value_count),
       FormatDouble(row.sum), FormatDouble(row.mean), FormatDouble(row.min),
       FormatDouble(row.max), FormatDouble(row.p50), FormatDouble(row.p95)});
}

Result<AggRow> DecodeAggRow(std::string_view data) {
  auto parts = rpc::DecodeStrings(data);
  if (!parts.ok()) return parts.status();
  if (parts->size() != 9) {
    return Status::ParseError("agg row wants 9 parts, got " +
                              std::to_string(parts->size()));
  }
  AggRow row;
  row.event = (*parts)[0];
  auto count = ParseU64((*parts)[1], "agg count");
  if (!count.ok()) return count.status();
  row.count = *count;
  auto vcount = ParseU64((*parts)[2], "agg value count");
  if (!vcount.ok()) return vcount.status();
  row.value_count = *vcount;
  double* doubles[] = {&row.sum, &row.mean, &row.min,
                       &row.max, &row.p50,  &row.p95};
  for (std::size_t i = 0; i < 6; ++i) {
    auto parsed = ParseDouble((*parts)[i + 3]);
    if (!parsed.ok()) return Status::ParseError("agg row: bad value");
    *doubles[i] = *parsed;
  }
  return row;
}

std::string EncodeQueryStats(const QueryStats& stats) {
  return rpc::EncodeStrings({std::to_string(stats.segments_total),
                             std::to_string(stats.segments_scanned),
                             std::to_string(stats.segments_pruned),
                             std::to_string(stats.records_returned),
                             std::to_string(stats.bytes_scanned)});
}

Result<QueryStats> DecodeQueryStats(std::string_view data) {
  auto parts = rpc::DecodeStrings(data);
  if (!parts.ok()) return parts.status();
  if (parts->size() != 5) {
    return Status::ParseError("query stats wants 5 parts, got " +
                              std::to_string(parts->size()));
  }
  QueryStats stats;
  std::size_t* fields[] = {&stats.segments_total, &stats.segments_scanned,
                           &stats.segments_pruned, &stats.records_returned,
                           &stats.bytes_scanned};
  const char* names[] = {"segments_total", "segments_scanned",
                         "segments_pruned", "records_returned",
                         "bytes_scanned"};
  for (std::size_t i = 0; i < 5; ++i) {
    auto parsed = ParseU64((*parts)[i], names[i]);
    if (!parsed.ok()) return parsed.status();
    *fields[i] = static_cast<std::size_t>(*parsed);
  }
  return stats;
}

}  // namespace jamm::archive
