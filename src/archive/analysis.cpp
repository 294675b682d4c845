#include "archive/analysis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <map>
#include <utility>

#include "common/strings.hpp"
#include "rpc/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "ulm/binary.hpp"

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
    const auto text = view.GetField(*value_sym);
    if (!text) return std::nullopt;
    auto parsed = ParseDouble(*text);
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

/// A number's wire text, formatted on the stack: integers in decimal as
/// std::to_string writes them, doubles as "%.17g" prints them.
class NumText {
 public:
  explicit NumText(std::int64_t v) { Done(std::to_chars(buf_, End(), v)); }
  explicit NumText(std::uint64_t v) { Done(std::to_chars(buf_, End(), v)); }
  explicit NumText(double v) {
    Done(std::to_chars(buf_, End(), v, std::chars_format::general, 17));
  }
  operator std::string_view() const { return {buf_, len_}; }

 private:
  char* End() { return buf_ + sizeof(buf_); }
  void Done(std::to_chars_result r) {
    len_ = static_cast<std::size_t>(r.ptr - buf_);
  }
  // "%.17g" is at most 24 characters ("-1.2345678901234567e-308").
  char buf_[32] = {};
  std::size_t len_ = 0;
};

std::size_t VarintBytes(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Append `parts` as an element of an outer marshalled list: its length,
/// then the list itself.
void PutNestedList(std::string& out,
                   std::initializer_list<std::string_view> parts) {
  std::size_t bytes = VarintBytes(parts.size());
  for (std::string_view part : parts) {
    bytes += VarintBytes(part.size()) + part.size();
  }
  ulm::detail::PutVarint(out, bytes);
  rpc::AppendStrings(out, parts);
}

/// Order-preserving key of a non-NaN double: unsigned key order is the
/// numeric order, with -0 just below +0.
std::uint64_t OrderKey(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits >> 63) ? ~bits : bits | (std::uint64_t{1} << 63);
}

double FromOrderKey(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) ? key & ~(std::uint64_t{1} << 63)
                                           : ~key);
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

void SortValues(std::vector<double>& values) {
  const std::size_t n = values.size();
  // The comparison sort is faster below the cutoff: the radix sort's
  // histograms and key copies cost a few microseconds whatever the size
  // (the two cross between 192 and 256 values on a 4-vCPU VM).
  if (n < kSortValuesRadixMin) {
    std::sort(values.begin(), values.end());
    return;
  }
  std::vector<std::uint64_t> keys(n), moved(n);
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = OrderKey(values[i]);
    keys[i] = key;
    for (int d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  for (int d = 0; d < 8; ++d) {
    auto& count = counts[d];
    const int shift = 8 * d;
    // A digit every key shares leaves the order as it is.
    if (count[(keys[0] >> shift) & 0xFF] == n) continue;
    std::size_t at = 0;
    for (std::size_t& c : count) {
      const std::size_t here = c;
      c = at;
      at += here;
    }
    for (const std::uint64_t key : keys) {
      moved[count[(key >> shift) & 0xFF]++] = key;
    }
    keys.swap(moved);
  }
  for (std::size_t i = 0; i < n; ++i) values[i] = FromOrderKey(keys[i]);
}

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
  const auto by_time = [](const auto& a, const auto& b) {
    return a.second.ts < b.second.ts;
  };
  if (!std::is_sorted(all.begin(), all.end(), by_time)) {
    std::stable_sort(all.begin(), all.end(), by_time);
  }

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
      SortValues(partial.values);
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
  const auto by_time = [](const PointSample& a, const PointSample& b) {
    return a.ts < b.ts;
  };
  if (!std::is_sorted(out.begin(), out.end(), by_time)) {
    std::stable_sort(out.begin(), out.end(), by_time);
  }
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

  // Groups keyed by event symbol in a flat vector: finding a record's
  // group is one 4-byte compare per group already met, so this suits the
  // few event names an agg window holds (every one of 733 agg queries in
  // a query_mixed run, seed 7, met exactly 4) and would cost
  // records x names over a window holding hundreds. Names are resolved
  // once, to order the merged rows.
  struct Group {
    ulm::Symbol event;
    std::uint64_t count = 0;
    std::vector<double> values;
  };
  using Groups = std::vector<Group>;
  auto find = [](Groups& groups, ulm::Symbol event) -> Group& {
    for (Group& group : groups) {
      if (group.event == event) return group;
    }
    return groups.emplace_back(Group{event, 0, {}});
  };
  QueryStats local;
  auto partials = archive_.ScanPartials<Groups>(
      SpecFilter(spec, t0, t1),
      [&](Groups& groups, const ulm::RecordView& view) {
        Group& group = find(groups, view.event_sym());
        ++group.count;
        if (const auto value = c.Value(view)) {
          group.values.push_back(*value);
        }
      },
      &local);

  Groups merged;
  for (auto& groups : partials) {
    for (Group& partial : groups) {
      Group& into = find(merged, partial.event);
      into.count += partial.count;
      if (into.values.empty()) {
        into.values = std::move(partial.values);
      } else {
        into.values.insert(into.values.end(), partial.values.begin(),
                           partial.values.end());
      }
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Group& a, const Group& b) {
    return ulm::SymbolName(a.event) < ulm::SymbolName(b.event);
  });
  std::vector<AggRow> out;
  out.reserve(merged.size());
  for (Group& group : merged) {
    AggRow row;
    row.event = std::string(ulm::SymbolName(group.event));
    row.count = group.count;
    local.records_returned += group.count;
    if (!group.values.empty()) {
      SortValues(group.values);
      row.value_count = group.values.size();
      row.min = group.values.front();
      row.max = group.values.back();
      row.sum = AscendingSum(group.values);
      row.mean = row.sum / static_cast<double>(group.values.size());
      row.p50 = NearestRank(group.values, 50);
      row.p95 = NearestRank(group.values, 95);
    }
    out.push_back(std::move(row));
  }
  if (stats) *stats = local;
  return out;
}

// ------------------------------------------------- wire element codecs

void AppendLifeline(std::string& out, const TraceLifeline& lifeline) {
  using ulm::detail::PutVarint;
  PutVarint(out, 1 + lifeline.hops.size());
  PutVarint(out, lifeline.object_id.size());
  out += lifeline.object_id;
  for (const auto& hop : lifeline.hops) {
    PutNestedList(out,
                  {NumText(hop.ts), hop.event, hop.host, hop.prog, hop.span});
  }
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

void AppendLoadBucket(std::string& out, const LoadBucket& bucket) {
  rpc::AppendStrings(out, {NumText(bucket.bucket_start), NumText(bucket.count),
                           NumText(bucket.value_count), NumText(bucket.mean),
                           NumText(bucket.min), NumText(bucket.max),
                           NumText(bucket.pct)});
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

void AppendPointSample(std::string& out, const PointSample& point) {
  rpc::AppendStrings(out, {NumText(point.ts), point.has_value ? "1" : "0",
                           NumText(point.value)});
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

void AppendAggRow(std::string& out, const AggRow& row) {
  rpc::AppendStrings(out, {row.event, NumText(row.count),
                           NumText(row.value_count), NumText(row.sum),
                           NumText(row.mean), NumText(row.min),
                           NumText(row.max), NumText(row.p50),
                           NumText(row.p95)});
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
