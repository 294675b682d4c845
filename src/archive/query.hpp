// ArchiveQueryService (ISSUE 5): serves an EventArchive to remote
// consumers through the rpc layer, the way the paper's archive agent
// makes archived data available for "historical analysis of system
// performance". Consumers discover the archive via its directory entry
// (address attribute), dial the rpc server hosting it, and query by
// time range, event-name glob, or host.
//
// Wire protocol (rpc object methods, string-marshalled via rpc wire):
//
//   "arch.query"  args = [kind, t0, t1, predicate, offset?, limit?]
//     kind       "range" | "events" | "host"
//                | "lifeline" | "loadline" | "point" | "agg"  (ISSUE 8)
//     t0, t1     decimal microseconds, half-open [t0, t1)
//     predicate  event glob for "events", host name for "host", "" for
//                "range"; an encoded AnalysisSpec (analysis.hpp) for the
//                analysis kinds
//     offset     decimal record offset for pagination (default 0)
//     limit      records per page (default/cap chosen by the service)
//     reply = marshalled [next_offset, total, batch] where `batch` is a
//     concatenation of self-delimiting binary ULM records (the ISSUE-3
//     batch frame format) and `next_offset` is "" on the final page.
//
//     Analysis kinds page over analysis ELEMENTS (lifelines, buckets,
//     points, agg rows) instead of records: `batch` is a marshalled
//     string list of encoded elements, and the reply carries a 4th part —
//     the server's QueryStats (EncodeQueryStats) — so consumers see the
//     pushdown economy (bytes_scanned, segments_pruned) per query. The
//     3-part record replies are unchanged (old clients keep working).
//
//   "arch.stats"  args = []
//     reply = marshalled [name, size, segments, ingested, dropped,
//                         span_min, span_max, contents]
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"

namespace jamm::archive {

inline constexpr char kQueryMethod[] = "arch.query";
inline constexpr char kStatsMethod[] = "arch.stats";

/// Conventional rpc object name for an archive: "archive.<name>".
std::string ArchiveObjectName(const std::string& archive_name);

/// Read-side rpc facade over an EventArchive. Register it resident (the
/// archive outlives calls) or wrap it in a factory for activatable use.
class ArchiveQueryService final : public rpc::RemoteObject {
 public:
  explicit ArchiveQueryService(const EventArchive& archive)
      : archive_(archive) {}

  Result<std::string> Invoke(const std::string& method,
                             const std::vector<std::string>& args) override;

  /// Records per reply when the caller names no limit.
  static constexpr std::size_t kDefaultPageRecords = 256;
  /// Hard cap on records per reply regardless of the requested limit, so
  /// one greedy page cannot exceed the transport's frame bound.
  static constexpr std::size_t kMaxPageRecords = 4096;

 private:
  const EventArchive& archive_;
};

/// Register `archive` on `registry` under ArchiveObjectName(name).
Status RegisterArchiveService(rpc::Registry& registry,
                              const EventArchive& archive);

/// Consumer-side convenience wrapper (GatewayClient-style) around the
/// arch.query protocol: pages through results transparently, decodes each
/// binary page into one reused flat batch and hands the records back as
/// Records. Built on RpcClient, so a dialer-backed instance re-dials and
/// retries across server restarts.
class ArchiveClient {
 public:
  /// Reconnecting client: the connection is (re-)established via
  /// `dialer`, transient failures retried under `policy`.
  ArchiveClient(rpc::RpcClient::Dialer dialer, std::string object_name,
                resilience::RetryPolicy policy = {},
                const Clock* clock = nullptr);

  Result<std::vector<ulm::Record>> QueryRange(TimePoint t0, TimePoint t1);
  Result<std::vector<ulm::Record>> QueryEvents(const std::string& event_glob,
                                               TimePoint t0, TimePoint t1);
  Result<std::vector<ulm::Record>> QueryHost(const std::string& host,
                                             TimePoint t0, TimePoint t1);

  /// Analysis accessors (ISSUE 8): the server runs the AnalysisEngine and
  /// streams back summaries, never raw records. Page-transparent like the
  /// record queries; after a successful call, last_query_stats() holds
  /// the server-side QueryStats (bytes_scanned, segments_pruned, ...).
  Result<std::vector<TraceLifeline>> QueryLifelines(const AnalysisSpec& spec,
                                                    TimePoint t0, TimePoint t1);
  Result<std::vector<LoadBucket>> QueryLoadline(const AnalysisSpec& spec,
                                                TimePoint t0, TimePoint t1);
  Result<std::vector<PointSample>> QueryPoints(const AnalysisSpec& spec,
                                               TimePoint t0, TimePoint t1);
  Result<std::vector<AggRow>> QueryAggregate(const AnalysisSpec& spec,
                                             TimePoint t0, TimePoint t1);

  /// Server-side stats of the last successful analysis query.
  const QueryStats& last_query_stats() const { return last_query_stats_; }

  struct RemoteStats {
    std::string name;
    std::uint64_t size = 0;
    std::uint64_t segments = 0;
    std::uint64_t ingested = 0;
    std::uint64_t dropped = 0;
    TimePoint span_min = 0;
    TimePoint span_max = 0;
    std::string contents;
  };
  Result<RemoteStats> Stats();

  /// Records per page to request (0 = the service's default).
  void set_page_records(std::size_t n) { page_records_ = n; }
  /// Pages fetched over this client's lifetime (tests: proves paging).
  std::uint64_t pages_fetched() const { return pages_fetched_; }

 private:
  Result<std::vector<ulm::Record>> Query(const std::string& kind,
                                         const std::string& predicate,
                                         TimePoint t0, TimePoint t1);
  /// Shared analysis pagination: collects the encoded element strings of
  /// every page (same cursor-advance guard as Query) and captures the
  /// final page's QueryStats into last_query_stats_.
  Result<std::vector<std::string>> QueryElements(const std::string& kind,
                                                 const AnalysisSpec& spec,
                                                 TimePoint t0, TimePoint t1);

  rpc::RpcClient rpc_;
  std::string object_;
  std::size_t page_records_ = 0;
  std::uint64_t pages_fetched_ = 0;
  QueryStats last_query_stats_;
  ulm::FlatBatch page_;  // each record page decodes here, then to Records
};

}  // namespace jamm::archive
