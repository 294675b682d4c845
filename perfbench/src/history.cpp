#include "history.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.hpp"
#include "trace.hpp"
#include "ulm/flat.hpp"

namespace perfbench {

using namespace jamm;  // NOLINT: bench brevity

const char* const History::kHopEvents[kHops] = {
    "APP_REQ_SEND", "APP_REQ_RECV", "APP_REP_SEND", "APP_REP_RECV"};

namespace {

constexpr Duration kHostOffset = 20 * kMillisecond;  // hosts <= 48
constexpr Duration kHopOffset = kMillisecond;
constexpr Duration kLoadBucket = 8 * kSecond;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t History::Mix(int host, int tick, int hop) const {
  return SplitMix(seed_ ^ SplitMix((static_cast<std::uint64_t>(host) << 40) ^
                                   (static_cast<std::uint64_t>(tick) << 8) ^
                                   static_cast<std::uint64_t>(hop)));
}

std::string History::HostName(int host) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "hist-%02d", host);
  return buf;
}

TimePoint History::Ts(int host, int tick, int hop) const {
  return TickStart(tick) + host * kHostOffset + hop * kHopOffset;
}

std::int64_t History::Val(int host, int tick, int hop) const {
  return static_cast<std::int64_t>(Mix(host, tick, hop) % 100000);
}

std::string History::TraceId(int host, int tick) const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Mix(host, tick, 99)));
  return buf;
}

void History::Preload(archive::EventArchive& archive) const {
  const std::size_t per_batch = archive.config().max_records;
  std::vector<ulm::Symbol> hosts;
  for (int h = 0; h < hosts_; ++h) hosts.push_back(ulm::InternSymbol(HostName(h)));
  ulm::Symbol events[kHops];
  for (int k = 0; k < kHops; ++k) events[k] = ulm::InternSymbol(kHopEvents[k]);
  const ulm::Symbol prog = ulm::InternSymbol("dpss");
  const ulm::Symbol lvl = ulm::InternSymbol("Usage");
  const ulm::Symbol trace = ulm::InternSymbol("TRACE.ID");
  const ulm::Symbol val = ulm::InternSymbol("VAL");

  ulm::FlatBatch batch;
  ulm::FlatRecord rec;
  for (int tick = 0; tick < ticks_; ++tick) {
    for (int h = 0; h < hosts_; ++h) {
      const std::string id = TraceId(h, tick);
      for (int hop = 0; hop < kHops; ++hop) {
        rec.Clear();
        rec.set_timestamp(Ts(h, tick, hop));
        rec.set_host_sym(hosts[static_cast<std::size_t>(h)]);
        rec.set_prog_sym(prog);
        rec.set_lvl_sym(lvl);
        rec.set_event_sym(events[hop]);
        rec.SetField(trace, std::string_view(id));
        rec.SetField(val, Val(h, tick, hop));
        (void)batch.Append(rec.View());
        if (batch.size() >= per_batch) {
          archive.IngestBatch(std::move(batch));
          batch = ulm::FlatBatch();
        }
      }
    }
  }
  if (!batch.empty()) archive.IngestBatch(std::move(batch));
  archive.SealActive();
}

const char* KindName(HistoryQuery::Kind kind) {
  switch (kind) {
    case HistoryQuery::Kind::kRange: return "range";
    case HistoryQuery::Kind::kEvents: return "events";
    case HistoryQuery::Kind::kHost: return "host";
    case HistoryQuery::Kind::kLifeline: return "lifeline";
    case HistoryQuery::Kind::kLoadline: return "loadline";
    case HistoryQuery::Kind::kPoint: return "point";
    case HistoryQuery::Kind::kAgg: return "agg";
  }
  return "?";
}

std::vector<HistoryQuery> MakeQueryMix(const History& history, std::size_t n,
                                       std::uint64_t seed) {
  using Kind = HistoryQuery::Kind;
  // kind, weight, window width range in ticks
  struct Mix {
    Kind kind;
    int weight;
    int min_ticks;
    int max_ticks;
  };
  static const Mix kMix[] = {
      {Kind::kRange, 1, 1, 4},        {Kind::kEvents, 2, 2, 8},
      {Kind::kHost, 2, 8, 64},        {Kind::kLifeline, 2, 8, 32},
      {Kind::kLoadline, 1, 32, 256},  {Kind::kPoint, 1, 2, 16},
      {Kind::kAgg, 1, 8, 128}};
  int total_weight = 0;
  for (const auto& m : kMix) total_weight += m.weight;
  Rng rng(seed ^ 0x51E5ull);
  std::vector<HistoryQuery> out;
  std::vector<bool> checked(std::size(kMix), false);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t pick = rng.Uniform(0, total_weight - 1);
    std::size_t m = 0;
    while (pick >= kMix[m].weight) pick -= kMix[m++].weight;
    HistoryQuery q;
    q.kind = kMix[m].kind;
    const int width = static_cast<int>(std::min<std::int64_t>(
        rng.Uniform(kMix[m].min_ticks, kMix[m].max_ticks),
        history.ticks()));
    q.tick0 = static_cast<int>(rng.Uniform(0, history.ticks() - width));
    q.tick1 = q.tick0 + width;
    q.host = static_cast<int>(rng.Uniform(0, history.hosts() - 1));
    q.check = !checked[m] || rng.Chance(0.25);
    checked[m] = true;
    out.push_back(q);
  }
  return out;
}

// --------------------------------------------------------------- references

namespace {

struct Expected {
  TimePoint ts;
  int host;
  int hop;
  std::int64_t val;
};

/// Records of [tick0, tick1) in archive order (time order: tick, host,
/// hop), narrowed by host (-1 = all) and hop mask.
std::vector<Expected> Window(const History& h, int tick0, int tick1, int host,
                             unsigned hop_mask) {
  std::vector<Expected> out;
  for (int t = tick0; t < tick1; ++t) {
    for (int x = 0; x < h.hosts(); ++x) {
      if (host >= 0 && x != host) continue;
      for (int hop = 0; hop < History::kHops; ++hop) {
        if ((hop_mask & (1u << hop)) == 0) continue;
        out.push_back({h.Ts(x, t, hop), x, hop, h.Val(x, t, hop)});
      }
    }
  }
  return out;
}

double NearestRank(const std::vector<double>& sorted, int pct) {
  if (sorted.empty()) return 0;
  std::size_t rank = (static_cast<std::size_t>(pct) * sorted.size() + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double AscendingSum(const std::vector<double>& sorted) {
  double sum = 0;
  for (double v : sorted) sum += v;
  return sum;
}

bool SameRecords(const History& h, const std::vector<ulm::Record>& got,
                 const std::vector<Expected>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& r = got[i];
    const auto& e = want[i];
    if (r.timestamp() != e.ts || r.host() != h.HostName(e.host) ||
        r.event_name() != History::kHopEvents[e.hop] ||
        r.GetField("VAL").value_or("") != std::to_string(e.val) ||
        r.GetField("TRACE.ID").value_or("") != h.TraceId(e.host,
            static_cast<int>((e.ts - h.start()) / kSecond))) {
      return false;
    }
  }
  return true;
}

SpanName SpanFor(HistoryQuery::Kind kind) {
  switch (kind) {
    case HistoryQuery::Kind::kRange: return SpanName::kQueryRange;
    case HistoryQuery::Kind::kEvents: return SpanName::kQueryEvents;
    case HistoryQuery::Kind::kHost: return SpanName::kQueryHost;
    case HistoryQuery::Kind::kLifeline: return SpanName::kQueryLifeline;
    case HistoryQuery::Kind::kLoadline: return SpanName::kQueryLoadline;
    case HistoryQuery::Kind::kPoint: return SpanName::kQueryPoint;
    case HistoryQuery::Kind::kAgg: return SpanName::kQueryAgg;
  }
  return SpanName::kQueryRange;
}

}  // namespace

QueryOutcome RunHistoryQuery(archive::ArchiveClient& client,
                             const History& history,
                             const HistoryQuery& q) {
  using Kind = HistoryQuery::Kind;
  QueryOutcome out;
  const TimePoint t0 = history.TickStart(q.tick0);
  const TimePoint t1 = history.TickStart(q.tick1);
  const std::string host = history.HostName(q.host);
  constexpr unsigned kAll = 0xF;

  // Issue the call (timed as one arch.query including all its pages).
  Result<std::vector<ulm::Record>> records = Status::Unimplemented("");
  Result<std::vector<archive::TraceLifeline>> lifelines =
      Status::Unimplemented("");
  Result<std::vector<archive::LoadBucket>> buckets = Status::Unimplemented("");
  Result<std::vector<archive::PointSample>> points = Status::Unimplemented("");
  Result<std::vector<archive::AggRow>> rows = Status::Unimplemented("");
  archive::AnalysisSpec spec;
  {
    ScopedSpan span(SpanFor(q.kind));
    const std::int64_t start = NowNs();
    switch (q.kind) {
      case Kind::kRange:
        records = client.QueryRange(t0, t1);
        break;
      case Kind::kEvents:
        records = client.QueryEvents("APP_REP_*", t0, t1);
        break;
      case Kind::kHost:
        records = client.QueryHost(host, t0, t1);
        break;
      case Kind::kLifeline:
        spec.host = host;
        lifelines = client.QueryLifelines(spec, t0, t1);
        break;
      case Kind::kLoadline:
        spec.host = host;
        spec.value_field = "VAL";
        spec.bucket = kLoadBucket;
        buckets = client.QueryLoadline(spec, t0, t1);
        break;
      case Kind::kPoint:
        spec.event_glob = "APP_REQ_SEND";
        spec.value_field = "VAL";
        points = client.QueryPoints(spec, t0, t1);
        break;
      case Kind::kAgg:
        spec.value_field = "VAL";
        rows = client.QueryAggregate(spec, t0, t1);
        break;
    }
    out.ms = static_cast<double>(NowNs() - start) / 1e6;
  }

  switch (q.kind) {
    case Kind::kRange:
    case Kind::kEvents:
    case Kind::kHost: {
      out.ok = records.ok();
      if (!out.ok || !q.check) break;
      const auto want =
          q.kind == Kind::kRange    ? Window(history, q.tick0, q.tick1, -1, kAll)
          : q.kind == Kind::kEvents ? Window(history, q.tick0, q.tick1, -1, 0xC)
                                    : Window(history, q.tick0, q.tick1, q.host,
                                             kAll);
      out.mismatch = !SameRecords(history, *records, want);
      break;
    }
    case Kind::kLifeline: {
      out.ok = lifelines.ok();
      if (!out.ok) break;
      out.has_stats = true;
      out.stats = client.last_query_stats();
      if (!q.check) break;
      std::map<std::string, int> want;  // object id → tick
      for (int t = q.tick0; t < q.tick1; ++t) {
        want[history.TraceId(q.host, t)] = t;
      }
      bool same = lifelines->size() == want.size();
      auto it = want.begin();
      for (std::size_t i = 0; same && i < lifelines->size(); ++i, ++it) {
        const auto& l = (*lifelines)[i];
        same = l.object_id == it->first && l.hops.size() == History::kHops;
        for (int hop = 0; same && hop < History::kHops; ++hop) {
          const auto& got = l.hops[static_cast<std::size_t>(hop)];
          same = got.ts == history.Ts(q.host, it->second, hop) &&
                 got.event == History::kHopEvents[hop] && got.host == host;
        }
      }
      out.mismatch = !same;
      break;
    }
    case Kind::kLoadline: {
      out.ok = buckets.ok();
      if (!out.ok) break;
      out.has_stats = true;
      out.stats = client.last_query_stats();
      if (!q.check) break;
      std::map<TimePoint, std::vector<double>> grid;
      for (const auto& e : Window(history, q.tick0, q.tick1, q.host, kAll)) {
        grid[t0 + (e.ts - t0) / kLoadBucket * kLoadBucket].push_back(
            static_cast<double>(e.val));
      }
      bool same = buckets->size() == grid.size();
      auto it = grid.begin();
      for (std::size_t i = 0; same && i < buckets->size(); ++i, ++it) {
        auto values = it->second;
        std::sort(values.begin(), values.end());
        const auto& b = (*buckets)[i];
        same = b.bucket_start == it->first && b.count == values.size() &&
               b.value_count == values.size() && b.min == values.front() &&
               b.max == values.back() &&
               b.mean == AscendingSum(values) / values.size() &&
               b.pct == NearestRank(values, spec.percentile);
      }
      out.mismatch = !same;
      break;
    }
    case Kind::kPoint: {
      out.ok = points.ok();
      if (!out.ok) break;
      out.has_stats = true;
      out.stats = client.last_query_stats();
      if (!q.check) break;
      const auto want = Window(history, q.tick0, q.tick1, -1, 0x1);
      bool same = points->size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        const auto& p = (*points)[i];
        same = p.ts == want[i].ts && p.has_value &&
               p.value == static_cast<double>(want[i].val);
      }
      out.mismatch = !same;
      break;
    }
    case Kind::kAgg: {
      out.ok = rows.ok();
      if (!out.ok) break;
      out.has_stats = true;
      out.stats = client.last_query_stats();
      if (!q.check) break;
      std::map<std::string, std::vector<double>> by_event;
      for (const auto& e : Window(history, q.tick0, q.tick1, -1, kAll)) {
        by_event[History::kHopEvents[e.hop]].push_back(
            static_cast<double>(e.val));
      }
      bool same = rows->size() == by_event.size();
      auto it = by_event.begin();
      for (std::size_t i = 0; same && i < rows->size(); ++i, ++it) {
        auto values = it->second;
        std::sort(values.begin(), values.end());
        const auto& r = (*rows)[i];
        const double sum = AscendingSum(values);
        same = r.event == it->first && r.count == values.size() &&
               r.value_count == values.size() && r.sum == sum &&
               r.mean == sum / values.size() && r.min == values.front() &&
               r.max == values.back() && r.p50 == NearestRank(values, 50) &&
               r.p95 == NearestRank(values, 95);
      }
      out.mismatch = !same;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
