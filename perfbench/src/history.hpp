// Synthetic NetLogger-style request history for the query workload: every
// history host emits one four-hop request lifeline per tick (send, receive,
// reply, reply-received), joined by TRACE.ID. Every record is a pure
// function of (seed, host, tick, hop), so the reference answer to any
// query over the history is recomputed bench-side from the generator —
// the known emitted set — without trusting the archive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"
#include "ulm/record.hpp"

namespace perfbench {

class History {
 public:
  static constexpr int kHops = 4;
  static const char* const kHopEvents[kHops];

  History(std::uint64_t seed, int hosts, int ticks, jamm::TimePoint start)
      : seed_(seed), hosts_(hosts), ticks_(ticks), start_(start) {}

  int hosts() const { return hosts_; }
  int ticks() const { return ticks_; }
  jamm::TimePoint start() const { return start_; }
  jamm::TimePoint end() const { return TickStart(ticks_); }
  jamm::TimePoint TickStart(int tick) const {
    return start_ + static_cast<jamm::TimePoint>(tick) * jamm::kSecond;
  }

  std::string HostName(int host) const;
  jamm::TimePoint Ts(int host, int tick, int hop) const;
  std::int64_t Val(int host, int tick, int hop) const;
  std::string TraceId(int host, int tick) const;

  /// Ingest the whole history (sealed, compressed when the archive is
  /// configured to) in segment-sized flat batches.
  void Preload(jamm::archive::EventArchive& archive) const;

 private:
  std::uint64_t Mix(int host, int tick, int hop) const;

  std::uint64_t seed_;
  int hosts_;
  int ticks_;
  jamm::TimePoint start_;
};

/// One arch.query over the history, its reference, and its check.
struct HistoryQuery {
  enum class Kind { kRange, kEvents, kHost, kLifeline, kLoadline, kPoint,
                    kAgg };
  Kind kind = Kind::kRange;
  int host = 0;       // kHost / kLifeline / kLoadline
  int tick0 = 0;      // window [tick0, tick1)
  int tick1 = 0;
  bool check = false; // compare against the reference
};

const char* KindName(HistoryQuery::Kind kind);

/// Seeded closed-loop query mix over the history.
std::vector<HistoryQuery> MakeQueryMix(const History& history, std::size_t n,
                                       std::uint64_t seed);

struct QueryOutcome {
  bool ok = false;        // the call succeeded
  bool mismatch = false;  // checked, and differed from the reference
  double ms = 0;          // the whole call, every page included
  bool has_stats = false; // analysis kinds carry server QueryStats
  jamm::archive::QueryStats stats;
};

/// Issue `query` through `client` (one span per call) and, when the query
/// is in the checked sample, compare with the generator's reference.
QueryOutcome RunHistoryQuery(jamm::archive::ArchiveClient& client,
                             const History& history,
                             const HistoryQuery& query);

}  // namespace perfbench
