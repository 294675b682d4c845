// ISSUE 5: the segmented archive's scaling story. The seed archive was a
// single-mutex time-ordered store — every ArchiverAgent thread serialized
// on one lock and every query walked the whole index. This bench replays
// that design (LegacySeedStore below) against the lock-striped segmented
// store across an ingest-thread × segment-size sweep at 1M events, and
// sweeps query selectivity to show segment pruning: a narrow time-range
// glob query must scan only covering segments, not the whole archive.
//
// The segmented store is measured three ways: record-at-a-time Ingest
// (the seed's API shape: each Record converted, then ingested as a view),
// owned Record frames (the batched production path before flat frames:
// each frame transcribed into one flat chunk, then ingested — the
// conversion shim), and IngestBatch over FlatBatch frames
// (ISSUE 7) — the zero-copy arena splice the archiver pump and gateway
// frames feed directly. The headline speedup compares the best batched
// mode against the legacy store at the same thread count.
//
// Emits BENCH_archive.json (path = argv[1], default ./BENCH_archive.json)
// and enforces the hard acceptance floors itself:
//   * segmented ingest at 4 threads >= 5x the legacy store at 4 threads;
//   * flat-frame ingest >= 3x the Record-vector shim at 4 threads;
//   * the Record-vector shim >= 2x the legacy store at 4 threads;
//   * the narrow query scans fewer segments than the archive holds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "ulm/flat.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr int kEvents = 1000000;
constexpr int kIngestPasses = 3;
constexpr int kQueryPasses = 7;
constexpr Duration kTick = 10 * kMillisecond;  // event spacing → ~2.8 h span

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ulm::Record MakeEvent(int i) {
  ulm::Record rec(static_cast<TimePoint>(i) * kTick,
                  "host" + std::to_string(i % 8), "vmstat",
                  i % 50 ? "Usage" : "Warning",
                  "EVT_" + std::to_string(i % 8));
  rec.SetField("VAL", static_cast<std::int64_t>(i % 100));
  return rec;
}

/// The pre-ISSUE-5 archive store, reconstructed for comparison: one
/// mutex, one time-ordered multimap, queries scan the index range with no
/// segment pruning.
class LegacySeedStore {
 public:
  void Ingest(const ulm::Record& rec) {
    std::lock_guard lock(mu_);
    records_.emplace(rec.timestamp(), rec);
  }

  std::vector<ulm::Record> QueryRange(TimePoint t0, TimePoint t1) const {
    std::lock_guard lock(mu_);
    std::vector<ulm::Record> out;
    for (auto it = records_.lower_bound(t0);
         it != records_.end() && it->first < t1; ++it) {
      out.push_back(it->second);
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return records_.size();
  }

 private:
  mutable std::mutex mu_;
  std::multimap<TimePoint, ulm::Record> records_;
};

/// Events pre-built once so the measured loops time the stores, not
/// record construction. Thread `t` of `threads` takes every threads-th
/// event, so every thread's stream spans the whole time range (the worst
/// case for time-partitioned sealing).
const std::vector<ulm::Record>& AllEvents() {
  static const std::vector<ulm::Record> events = [] {
    std::vector<ulm::Record> out;
    out.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) out.push_back(MakeEvent(i));
    return out;
  }();
  return events;
}

/// Record-at-a-time ingest into the segmented store: each Record is
/// converted into a reused per-thread FlatRecord and ingested as a view.
struct RecordIngest {
  archive::EventArchive& archive;
  void Ingest(const ulm::Record& rec) {
    thread_local ulm::FlatRecord scratch;
    scratch.AssignRecord(rec);
    archive.Ingest(scratch.View());
  }
};

template <typename Store>
double IngestEventsPerSec(Store& store, int threads) {
  const auto& events = AllEvents();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&store, &events, t, threads] {
      for (std::size_t i = t; i < events.size();
           i += static_cast<std::size_t>(threads)) {
        store.Ingest(events[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  return kEvents / SecondsSince(t0);
}

constexpr std::size_t kBatchRecords = 256;  // gateway batch frame size

/// Each thread's stride-share of the event stream, copied and pre-chunked
/// into gateway-sized frames outside the timed region: the batched path
/// measures the store moving owned records, not the copy that made them.
std::vector<std::vector<std::vector<ulm::Record>>> BuildFrames(int threads) {
  const auto& events = AllEvents();
  std::vector<std::vector<std::vector<ulm::Record>>> per_thread(
      static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    auto& frames = per_thread[static_cast<std::size_t>(t)];
    std::vector<ulm::Record> frame;
    frame.reserve(kBatchRecords);
    for (std::size_t i = static_cast<std::size_t>(t); i < events.size();
         i += static_cast<std::size_t>(threads)) {
      frame.push_back(events[i]);
      if (frame.size() == kBatchRecords) {
        frames.push_back(std::move(frame));
        frame = {};
        frame.reserve(kBatchRecords);
      }
    }
    if (!frame.empty()) frames.push_back(std::move(frame));
  }
  return per_thread;
}

double IngestBatchedPerSec(archive::EventArchive& ar, int threads) {
  auto per_thread = BuildFrames(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&ar, frames = &per_thread[static_cast<std::size_t>(
                                     t)]] {
      for (auto& frame : *frames) {
        // The shim: one flat chunk per owned Record frame.
        ulm::FlatBatch batch;
        batch.Reserve(frame.size(), frame.size() * 64);
        for (const auto& rec : frame) (void)batch.Append(rec);
        frame.clear();
        ar.IngestBatch(std::move(batch));
      }
    });
  }
  for (auto& w : workers) w.join();
  return kEvents / SecondsSince(t0);
}

/// The ISSUE 7 flat path: the same stride-share pre-chunked into
/// FlatBatch arenas (what the archiver's remote pump hands over), so the
/// timed region is the splice — one stripe-lock acquisition and an O(1)
/// chunk adoption per batch, plus the per-record index update.
std::vector<std::vector<ulm::FlatBatch>> BuildFlatFrames(int threads) {
  const auto& events = AllEvents();
  std::vector<std::vector<ulm::FlatBatch>> per_thread(
      static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    auto& frames = per_thread[static_cast<std::size_t>(t)];
    ulm::FlatBatch batch;
    for (std::size_t i = static_cast<std::size_t>(t); i < events.size();
         i += static_cast<std::size_t>(threads)) {
      (void)batch.Append(events[i]);
      if (batch.size() == kBatchRecords) {
        frames.push_back(std::move(batch));
        batch = {};
      }
    }
    if (!batch.empty()) frames.push_back(std::move(batch));
  }
  return per_thread;
}

double IngestFlatPerSec(archive::EventArchive& ar, int threads) {
  auto per_thread = BuildFlatFrames(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&ar, frames = &per_thread[static_cast<std::size_t>(
                                     t)]] {
      for (auto& frame : *frames) ar.IngestBatch(std::move(frame));
    });
  }
  for (auto& w : workers) w.join();
  return kEvents / SecondsSince(t0);
}

enum class Mode { kRecord, kBatch, kFlat };

struct IngestCell {
  int threads;
  std::size_t segment_records;  // 0 = legacy store
  Mode mode;
  double events_per_s;
};

IngestCell RunSegmented(int threads, std::size_t segment_records, Mode mode) {
  std::vector<double> per_s;
  for (int pass = 0; pass < kIngestPasses; ++pass) {
    archive::SegmentConfig config;
    config.max_records = segment_records;
    config.max_span = 1000 * kHour;  // record bound governs the sweep
    config.stripes = 8;
    archive::EventArchive ar("bench", 1, config);
    RecordIngest records{ar};
    per_s.push_back(mode == Mode::kBatch ? IngestBatchedPerSec(ar, threads)
                    : mode == Mode::kFlat
                        ? IngestFlatPerSec(ar, threads)
                        : IngestEventsPerSec(records, threads));
    if (ar.size() != kEvents) {
      std::fprintf(stderr, "segmented store lost records: %zu of %d\n",
                   ar.size(), kEvents);
      std::exit(1);
    }
  }
  return {threads, segment_records, mode, Median(per_s)};
}

IngestCell RunLegacy(int threads) {
  std::vector<double> per_s;
  for (int pass = 0; pass < kIngestPasses; ++pass) {
    LegacySeedStore store;
    per_s.push_back(IngestEventsPerSec(store, threads));
    if (store.size() != kEvents) {
      std::fprintf(stderr, "legacy store lost records\n");
      std::exit(1);
    }
  }
  return {threads, 0, Mode::kRecord, Median(per_s)};
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kRecord: return "record";
    case Mode::kBatch: return "batch";
    default: return "flat";
  }
}

struct QueryCell {
  std::string name;
  double window_fraction;
  std::string glob;  // empty = plain range query
  double query_us;
  std::size_t records;
  std::size_t segments_scanned;
  std::size_t segments_total;
};

QueryCell RunQuery(const archive::EventArchive& ar, std::string name,
                   double window_fraction, std::string glob) {
  const TimePoint span = static_cast<TimePoint>(kEvents) * kTick;
  const auto width =
      static_cast<TimePoint>(static_cast<double>(span) * window_fraction);
  const TimePoint t0 = span / 2 - width / 2;
  archive::QueryStats stats;
  std::vector<double> micros;
  std::size_t records = 0;
  for (int pass = 0; pass < kQueryPasses; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    auto rows = glob.empty()
                    ? ar.QueryRange(t0, t0 + width, &stats)
                    : ar.QueryEvents(glob, t0, t0 + width, &stats);
    micros.push_back(SecondsSince(start) * 1e6);
    records = rows.size();
  }
  return {std::move(name), window_fraction, std::move(glob), Median(micros),
          records, stats.segments_scanned, stats.segments_total};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_archive.json";

  // ---- ingest sweep: threads × segment size, plus the legacy store
  const std::vector<int> thread_sweep = {1, 2, 4};
  const std::vector<std::size_t> segment_sweep = {1024, 8192, 65536};
  std::vector<IngestCell> cells;
  for (int threads : thread_sweep) {
    cells.push_back(RunLegacy(threads));
    for (std::size_t seg : segment_sweep) {
      cells.push_back(RunSegmented(threads, seg, Mode::kRecord));
      cells.push_back(RunSegmented(threads, seg, Mode::kBatch));
      cells.push_back(RunSegmented(threads, seg, Mode::kFlat));
    }
  }
  for (const auto& cell : cells) {
    if (cell.segment_records == 0) {
      std::printf("legacy          %dt:              %12.0f events/s\n",
                  cell.threads, cell.events_per_s);
    } else {
      std::printf("segmented %-6s %dt, seg %6zu: %12.0f events/s\n",
                  ModeName(cell.mode), cell.threads, cell.segment_records,
                  cell.events_per_s);
    }
  }

  auto rate = [&](int threads, std::size_t seg, Mode mode) {
    for (const auto& cell : cells) {
      if (cell.threads == threads && cell.segment_records == seg &&
          cell.mode == mode) {
        return cell.events_per_s;
      }
    }
    return 0.0;
  };
  // Best batched segmented configuration per thread count vs legacy at
  // the SAME thread count: what the production (gateway-framed) ingest
  // path sustains against the seed store fed the same events.
  auto best_segmented = [&](int threads, Mode mode) {
    double best = 0;
    for (std::size_t seg : segment_sweep) {
      best = std::max(best, rate(threads, seg, mode));
    }
    return best;
  };
  // "Segmented vs legacy" takes the segmented store's best batched mode.
  // Since ISSUE 7 that is the FlatBatch arena-splice path — the one the
  // production producers (archiver pump, gateway frames) actually feed —
  // while the owned-Record-vector overload survives as a compatibility
  // shim that now pays its flat conversion at ingest instead of deferring
  // string work to every query.
  auto best_batched = [&](int threads) {
    return std::max(best_segmented(threads, Mode::kBatch),
                    best_segmented(threads, Mode::kFlat));
  };
  const double speedup_1t = best_batched(1) / rate(1, 0, Mode::kRecord);
  const double speedup_4t = best_batched(4) / rate(4, 0, Mode::kRecord);
  std::printf("segmented vs legacy: %.2fx at 1 thread, %.2fx at 4 threads\n",
              speedup_1t, speedup_4t);
  // ISSUE 7: the flat arena-splice path against the PR 6 batched path
  // (owned Record vectors) at the same thread count, and the conversion
  // shim itself against the legacy store — it must stay a win even while
  // paying the Record→flat transcription.
  const double flat_speedup_4t =
      best_segmented(4, Mode::kFlat) / best_segmented(4, Mode::kBatch);
  const double convert_speedup_4t =
      best_segmented(4, Mode::kBatch) / rate(4, 0, Mode::kRecord);
  std::printf("flat vs batched ingest at 4 threads: %.2fx\n", flat_speedup_4t);
  std::printf("Record-vector conversion shim vs legacy at 4 threads: %.2fx\n",
              convert_speedup_4t);

  // ---- query selectivity sweep over a sealed 1M-event archive
  archive::SegmentConfig config;
  config.max_records = 8192;
  config.max_span = 1000 * kHour;
  config.stripes = 8;
  archive::EventArchive ar("bench", 1, config);
  RecordIngest records{ar};
  (void)IngestEventsPerSec(records, 4);
  ar.SealActive();
  std::vector<QueryCell> queries;
  queries.push_back(RunQuery(ar, "narrow_glob", 0.001, "EVT_3"));
  queries.push_back(RunQuery(ar, "narrow_range", 0.001, ""));
  queries.push_back(RunQuery(ar, "mid_range", 0.10, ""));
  queries.push_back(RunQuery(ar, "full_range", 1.0, ""));
  for (const auto& q : queries) {
    std::printf(
        "query %-12s window %5.1f%%: %9.0f us, %7zu records, scanned "
        "%zu/%zu segments\n",
        q.name.c_str(), q.window_fraction * 100, q.query_us, q.records,
        q.segments_scanned, q.segments_total);
  }

  // ---- hard acceptance floors
  if (speedup_4t < 5.0) {
    std::fprintf(stderr,
                 "FAIL: segmented ingest at 4 threads is %.2fx the legacy "
                 "store (floor: 5x)\n",
                 speedup_4t);
    return 1;
  }
  if (flat_speedup_4t < 3.0) {
    std::fprintf(stderr,
                 "FAIL: flat-batch ingest at 4 threads is %.2fx the Record "
                 "batched path (floor: 3x)\n",
                 flat_speedup_4t);
    return 1;
  }
  if (convert_speedup_4t < 2.0) {
    std::fprintf(stderr,
                 "FAIL: the Record-vector conversion shim at 4 threads is "
                 "%.2fx the legacy store (floor: 2x)\n",
                 convert_speedup_4t);
    return 1;
  }
  const QueryCell& narrow = queries.front();
  if (narrow.segments_scanned >= narrow.segments_total) {
    std::fprintf(stderr,
                 "FAIL: narrow query scanned %zu of %zu segments — pruning "
                 "is not working\n",
                 narrow.segments_scanned, narrow.segments_total);
    return 1;
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"bench_archive\",\n");
  std::fprintf(json,
               "  \"workload\": \"1M events, 8 hosts, 8 event names; "
               "lock-striped segmented store vs the seed single-mutex "
               "store; thread x segment-size ingest sweep in both "
               "record-at-a-time, batched (gateway-framed, move-based), and "
               "flat (FlatBatch arena-splice, ISSUE 7) modes; speedups "
               "compare the batched production path to legacy at the same "
               "thread count, and flat to batched; query selectivity sweep "
               "with pruning stats\",\n");
  std::fprintf(json,
               "  \"method\": \"median of %d ingest / %d query passes; "
               "ratios are machine-independent\",\n",
               kIngestPasses, kQueryPasses);
  std::fprintf(json, "  \"results\": {\n");
  std::fprintf(json, "    \"ingest\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    std::fprintf(json,
                 "      {\"store\": \"%s\", \"mode\": \"%s\", "
                 "\"threads\": %d, \"segment_records\": %zu, "
                 "\"events_per_s\": %.0f}%s\n",
                 cell.segment_records == 0 ? "legacy" : "segmented",
                 ModeName(cell.mode), cell.threads, cell.segment_records,
                 cell.events_per_s, i + 1 == cells.size() ? "" : ",");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json, "    \"queries\": [\n");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    std::fprintf(json,
                 "      {\"name\": \"%s\", \"window_fraction\": %.3f, "
                 "\"query_us\": %.0f, \"records\": %zu, "
                 "\"segments_scanned\": %zu, \"segments_total\": %zu}%s\n",
                 q.name.c_str(), q.window_fraction, q.query_us, q.records,
                 q.segments_scanned, q.segments_total,
                 i + 1 == queries.size() ? "" : ",");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json, "    \"ingest_speedup_1t\": %.2f,\n", speedup_1t);
  std::fprintf(json, "    \"ingest_speedup_4t\": %.2f,\n", speedup_4t);
  std::fprintf(json, "    \"flat_ingest_speedup_4t\": %.2f,\n",
               flat_speedup_4t);
  std::fprintf(json, "    \"convert_ingest_speedup_4t\": %.2f,\n",
               convert_speedup_4t);
  std::fprintf(json,
               "    \"narrow_query_segment_scan_fraction\": %.4f\n",
               static_cast<double>(narrow.segments_scanned) /
                   static_cast<double>(narrow.segments_total));
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
