#include "archive/query.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "telemetry/metrics.hpp"
#include "ulm/binary.hpp"

namespace jamm::archive {

namespace {

struct ServiceTelemetry {
  telemetry::Counter& calls;
  telemetry::Counter& errors;
  telemetry::Counter& pages;
  telemetry::Counter& records;
};

ServiceTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ServiceTelemetry t{m.counter("archive.service.calls"),
                            m.counter("archive.service.errors"),
                            m.counter("archive.service.pages"),
                            m.counter("archive.service.records")};
  return t;
}

Result<std::uint64_t> ParseNonNegative(const std::string& text,
                                       const char* what) {
  auto value = ParseInt(text);
  if (!value.ok() || *value < 0) {
    return Status::InvalidArgument(std::string("arch.query: bad ") + what +
                                   " '" + text + "'");
  }
  return static_cast<std::uint64_t>(*value);
}

/// The analysis reply [next, total, page, stats] for the elements
/// [offset, offset + limit) of `elements`. Only the page's elements are
/// encoded, each by `append` into one reused buffer.
template <typename T>
std::string AnalysisPage(const std::vector<T>& elements,
                         void (*append)(std::string&, const T&),
                         std::uint64_t offset, std::size_t limit,
                         const QueryStats& stats, ServiceTelemetry& t) {
  using ulm::detail::PutVarint;
  const std::size_t total = elements.size();
  const std::size_t begin = std::min<std::size_t>(offset, total);
  const std::size_t end = std::min(total, begin + limit);
  std::string page, element;
  PutVarint(page, end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    element.clear();
    append(element, elements[i]);
    PutVarint(page, element.size());
    page += element;
  }
  const std::string next =
      end < total && end > begin ? std::to_string(end) : std::string();
  t.pages.Increment();
  t.records.Add(end - begin);
  std::string reply;
  rpc::AppendStrings(reply, {next, std::to_string(total), page,
                             EncodeQueryStats(stats)});
  return reply;
}

}  // namespace

std::string ArchiveObjectName(const std::string& archive_name) {
  return "archive." + archive_name;
}

Result<std::string> ArchiveQueryService::Invoke(
    const std::string& method, const std::vector<std::string>& args) {
  auto& t = Instruments();
  t.calls.Increment();

  if (method == kStatsMethod) {
    const auto [span_min, span_max] = archive_.TimeSpan();
    return rpc::EncodeStrings({archive_.name(),
                               std::to_string(archive_.size()),
                               std::to_string(archive_.segment_count()),
                               std::to_string(archive_.ingested()),
                               std::to_string(archive_.dropped()),
                               std::to_string(span_min),
                               std::to_string(span_max),
                               archive_.ContentsSummary()});
  }
  if (method != kQueryMethod) {
    t.errors.Increment();
    return Status::NotFound("archive service: no method '" + method + "'");
  }
  if (args.size() < 4 || args.size() > 6) {
    t.errors.Increment();
    return Status::InvalidArgument(
        "arch.query wants [kind, t0, t1, predicate, offset?, limit?]");
  }

  const std::string& kind = args[0];
  auto t0 = ParseInt(args[1]);
  auto t1 = ParseInt(args[2]);
  if (!t0.ok() || !t1.ok()) {
    t.errors.Increment();
    return Status::InvalidArgument("arch.query: bad time bounds [" + args[1] +
                                   ", " + args[2] + ")");
  }
  const std::string& predicate = args[3];
  std::uint64_t offset = 0;
  if (args.size() > 4) {
    auto parsed = ParseNonNegative(args[4], "offset");
    if (!parsed.ok()) {
      t.errors.Increment();
      return parsed.status();
    }
    offset = *parsed;
  }
  std::size_t limit = kDefaultPageRecords;
  if (args.size() > 5 && !args[5].empty()) {
    auto parsed = ParseNonNegative(args[5], "limit");
    if (!parsed.ok()) {
      t.errors.Increment();
      return parsed.status();
    }
    if (*parsed > 0) {
      limit = std::min<std::size_t>(*parsed, kMaxPageRecords);
    }
  }

  // Analysis kinds (ISSUE 8): run the pushdown engine, encode the page's
  // elements, and append the server's QueryStats as a 4th reply part.
  if (kind == "lifeline" || kind == "loadline" || kind == "point" ||
      kind == "agg") {
    auto spec = ParseAnalysisSpec(predicate);
    if (!spec.ok()) {
      t.errors.Increment();
      return spec.status();
    }
    const AnalysisEngine engine(archive_);
    QueryStats qstats;
    if (kind == "lifeline") {
      return AnalysisPage(engine.Lifelines(*spec, *t0, *t1, &qstats),
                          AppendLifeline, offset, limit, qstats, t);
    }
    if (kind == "loadline") {
      return AnalysisPage(engine.Loadline(*spec, *t0, *t1, &qstats),
                          AppendLoadBucket, offset, limit, qstats, t);
    }
    if (kind == "point") {
      return AnalysisPage(engine.Points(*spec, *t0, *t1, &qstats),
                          AppendPointSample, offset, limit, qstats, t);
    }
    return AnalysisPage(engine.Aggregate(*spec, *t0, *t1, &qstats),
                        AppendAggRow, offset, limit, qstats, t);
  }

  ulm::FlatBatch rows;
  if (kind == "range") {
    rows = archive_.QueryRange(*t0, *t1);
  } else if (kind == "events") {
    rows = archive_.QueryEvents(predicate, *t0, *t1);
  } else if (kind == "host") {
    rows = archive_.QueryHost(predicate, *t0, *t1);
  } else {
    t.errors.Increment();
    return Status::InvalidArgument("arch.query: unknown kind '" + kind + "'");
  }

  // Page [offset, offset + limit) of the deterministic full result,
  // encoded straight from the result's views. The query order is stable
  // across calls (time, then segment id, then in-segment order), so
  // successive pages tile without gaps or overlap as long as no record
  // lands inside the window mid-pagination.
  const std::size_t total = rows.size();
  std::string batch;
  std::size_t end = offset >= total
                        ? static_cast<std::size_t>(offset)
                        : std::min(total, static_cast<std::size_t>(offset) +
                                              limit);
  for (std::size_t i = offset; i < end; ++i) rows.View(i).EncodeBinary(batch);
  const std::string next =
      end < total ? std::to_string(end) : std::string();
  t.pages.Increment();
  t.records.Add(end > offset ? end - offset : 0);
  return rpc::EncodeStrings({next, std::to_string(total), std::move(batch)});
}

Status RegisterArchiveService(rpc::Registry& registry,
                              const EventArchive& archive) {
  return registry.RegisterResident(
      ArchiveObjectName(archive.name()),
      std::make_shared<ArchiveQueryService>(archive));
}

ArchiveClient::ArchiveClient(rpc::RpcClient::Dialer dialer,
                             std::string object_name,
                             resilience::RetryPolicy policy,
                             const Clock* clock)
    : rpc_(std::move(dialer), policy, clock),
      object_(std::move(object_name)) {}

Result<std::vector<ulm::Record>> ArchiveClient::QueryRange(TimePoint t0,
                                                           TimePoint t1) {
  return Query("range", "", t0, t1);
}

Result<std::vector<ulm::Record>> ArchiveClient::QueryEvents(
    const std::string& event_glob, TimePoint t0, TimePoint t1) {
  return Query("events", event_glob, t0, t1);
}

Result<std::vector<ulm::Record>> ArchiveClient::QueryHost(
    const std::string& host, TimePoint t0, TimePoint t1) {
  return Query("host", host, t0, t1);
}

Result<std::vector<ulm::Record>> ArchiveClient::Query(
    const std::string& kind, const std::string& predicate, TimePoint t0,
    TimePoint t1) {
  std::vector<ulm::Record> out;
  std::uint64_t offset = 0;
  while (true) {
    auto reply = rpc_.Call(
        object_, kQueryMethod,
        {kind, std::to_string(t0), std::to_string(t1), predicate,
         std::to_string(offset),
         page_records_ > 0 ? std::to_string(page_records_) : std::string()});
    if (!reply.ok()) return reply.status();
    auto parts = rpc::DecodeStrings(*reply);
    if (!parts.ok()) return parts.status();
    if (parts->size() != 3) {
      return Status::ParseError("arch.query reply wants 3 parts, got " +
                                std::to_string(parts->size()));
    }
    page_.Clear();
    JAMM_RETURN_IF_ERROR(page_.DecodeBinaryStreamInto((*parts)[2]));
    out.reserve(out.size() + page_.size());
    for (std::size_t i = 0; i < page_.size(); ++i) {
      out.push_back(page_.View(i).ToRecord());
    }
    ++pages_fetched_;
    const std::string& next = (*parts)[0];
    if (next.empty()) break;
    auto next_offset = ParseNonNegative(next, "next_offset");
    if (!next_offset.ok()) return next_offset.status();
    if (*next_offset <= offset) {
      // A non-advancing cursor would loop forever; treat it as a broken
      // server rather than spinning.
      return Status::Internal("arch.query: pagination cursor did not advance");
    }
    offset = *next_offset;
  }
  return out;
}

Result<std::vector<std::string>> ArchiveClient::QueryElements(
    const std::string& kind, const AnalysisSpec& spec, TimePoint t0,
    TimePoint t1) {
  const std::string predicate = EncodeAnalysisSpec(spec);
  std::vector<std::string> out;
  std::uint64_t offset = 0;
  while (true) {
    auto reply = rpc_.Call(
        object_, kQueryMethod,
        {kind, std::to_string(t0), std::to_string(t1), predicate,
         std::to_string(offset),
         page_records_ > 0 ? std::to_string(page_records_) : std::string()});
    if (!reply.ok()) return reply.status();
    auto parts = rpc::DecodeStrings(*reply);
    if (!parts.ok()) return parts.status();
    if (parts->size() != 4) {
      return Status::ParseError("arch.query analysis reply wants 4 parts, "
                                "got " +
                                std::to_string(parts->size()));
    }
    auto elements = rpc::DecodeStrings((*parts)[2]);
    if (!elements.ok()) return elements.status();
    out.insert(out.end(), std::make_move_iterator(elements->begin()),
               std::make_move_iterator(elements->end()));
    auto qstats = DecodeQueryStats((*parts)[3]);
    if (!qstats.ok()) return qstats.status();
    last_query_stats_ = *qstats;
    ++pages_fetched_;
    const std::string& next = (*parts)[0];
    if (next.empty()) break;
    auto next_offset = ParseNonNegative(next, "next_offset");
    if (!next_offset.ok()) return next_offset.status();
    if (*next_offset <= offset) {
      // Same guard as the record path: a non-advancing cursor would loop
      // forever; treat it as a broken server rather than spinning.
      return Status::Internal("arch.query: pagination cursor did not advance");
    }
    offset = *next_offset;
  }
  return out;
}

namespace {

/// Decode every element of an analysis reply with `decode`; the first
/// malformed element fails the whole query (never a silent partial).
template <typename T, typename Decode>
Result<std::vector<T>> DecodeElements(
    Result<std::vector<std::string>> elements, const Decode& decode) {
  if (!elements.ok()) return elements.status();
  std::vector<T> out;
  out.reserve(elements->size());
  for (const auto& element : *elements) {
    auto decoded = decode(element);
    if (!decoded.ok()) return decoded.status();
    out.push_back(std::move(*decoded));
  }
  return out;
}

}  // namespace

Result<std::vector<TraceLifeline>> ArchiveClient::QueryLifelines(
    const AnalysisSpec& spec, TimePoint t0, TimePoint t1) {
  return DecodeElements<TraceLifeline>(QueryElements("lifeline", spec, t0, t1),
                                       DecodeLifeline);
}

Result<std::vector<LoadBucket>> ArchiveClient::QueryLoadline(
    const AnalysisSpec& spec, TimePoint t0, TimePoint t1) {
  return DecodeElements<LoadBucket>(QueryElements("loadline", spec, t0, t1),
                                    DecodeLoadBucket);
}

Result<std::vector<PointSample>> ArchiveClient::QueryPoints(
    const AnalysisSpec& spec, TimePoint t0, TimePoint t1) {
  return DecodeElements<PointSample>(QueryElements("point", spec, t0, t1),
                                     DecodePointSample);
}

Result<std::vector<AggRow>> ArchiveClient::QueryAggregate(
    const AnalysisSpec& spec, TimePoint t0, TimePoint t1) {
  return DecodeElements<AggRow>(QueryElements("agg", spec, t0, t1),
                                DecodeAggRow);
}

Result<ArchiveClient::RemoteStats> ArchiveClient::Stats() {
  auto reply = rpc_.Call(object_, kStatsMethod, {});
  if (!reply.ok()) return reply.status();
  auto parts = rpc::DecodeStrings(*reply);
  if (!parts.ok()) return parts.status();
  if (parts->size() != 8) {
    return Status::ParseError("arch.stats reply wants 8 parts, got " +
                              std::to_string(parts->size()));
  }
  RemoteStats stats;
  stats.name = (*parts)[0];
  const char* names[] = {"size", "segments", "ingested", "dropped"};
  std::uint64_t* fields[] = {&stats.size, &stats.segments, &stats.ingested,
                             &stats.dropped};
  for (std::size_t i = 0; i < 4; ++i) {
    auto value = ParseNonNegative((*parts)[i + 1], names[i]);
    if (!value.ok()) return value.status();
    *fields[i] = *value;
  }
  auto span_min = ParseInt((*parts)[5]);
  auto span_max = ParseInt((*parts)[6]);
  if (!span_min.ok() || !span_max.ok()) {
    return Status::ParseError("arch.stats: bad time span");
  }
  stats.span_min = *span_min;
  stats.span_max = *span_max;
  stats.contents = (*parts)[7];
  return stats;
}

}  // namespace jamm::archive
