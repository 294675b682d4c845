// Archive segments (ISSUE 5): the unit of storage, pruning and
// persistence for the segmented event archive.
//
// A segment is an append-only run of records covering a contiguous slice
// of ingest. While active it is guarded by its owning stripe's lock; once
// sealed it is immutable and shared freely between queries, compression
// and persistence. Every segment carries the indexes queries prune on:
// min/max record timestamp, per-event-name counts, and the host set — so
// a time/glob/host query touches only covering segments.
//
// ISSUE 7 moved segment storage onto the flat record core (ulm/flat.hpp):
// records are held as FlatBatch chunks — one contiguous value arena and
// one field vector per chunk, with event/host/prog/lvl as interned
// symbols — so a stored record costs a dozen bytes of metadata plus its
// value bytes instead of a heap string per field, and the per-record
// index fold is 4-byte symbol compares instead of string compares.
// Iteration hands out RecordViews; the wire format below is unchanged
// (flat EncodeBinary is byte-identical to the Record codec).
//
// Persistence is per-segment with a checksummed header (layout below), so
// one corrupt segment is skipped on load instead of poisoning the whole
// archive file.
//
// ISSUE 8 added a compressed resting state for sealed segments: the flat
// chunks are replaced by one dictionary + delta-varint blob (format below)
// while the pruning indexes (min/max time, event counts, host set) stay
// resident — so zone-map pruning never touches the blob. A query pushes
// its predicates (ScanFilter: time window, host, event glob) into the
// scan of a covering segment: the decoder reads each record's timestamp
// and dictionary indexes, and hands only the records that pass to the
// query's fold, as views into the blob itself; the rest are stepped over
// by their field lengths, still fully bounds-checked.
// Compression is transparent to every query and to persistence:
// compressed segments save as SEG2 blocks carrying the blob verbatim, so
// save → load → save is byte-stable in both states.
//
// Beside the blob, a compressed segment keeps a resident BlockIndex, built
// in the passes that already walk every record (the encoder, and the
// loader's validating decode), so the SEG2 bytes do not change. It holds
// the blob's dictionary as resolved symbols — a query interns nothing —
// and, for each run of 64 records, the run's byte offset, the timestamp
// its first delta is taken from, its min/max timestamp, and a 256-bit mask
// of its records' host dictionary indexes (bit = index mod 256): 64 bytes
// per 64 records plus 4 per dictionary entry. A scan decodes only the
// blocks whose time range meets the window and whose mask admits the
// filter's host, each from its own offset with every per-record check;
// an event glob is matched once per dictionary entry the scan meets.
// The block decoder calls the fold straight from the blob through a
// RecordSink (two pointers; nothing is copied or allocated per record),
// and the loader's validating decode runs the same record loop with a
// sink that appends to a FlatBatch. Scans stay single-threaded: a
// parallel prototype of the segment walk slowed read-back queries
// (0.83 → 0.89 ms p90) on a 4-vCPU VM, where spinning workers cost more
// than the scan they split.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "ulm/flat.hpp"
#include "ulm/intern.hpp"
#include "ulm/record.hpp"

namespace jamm::archive {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`. Used for the
/// segment header and payload checksums; self-contained so the archive
/// has no compression-library dependency.
std::uint32_t Crc32(std::string_view data);

struct Segment;
enum class BlockOutcome;

/// A query's record predicates, built once per query and pushed into the
/// segment scan — the three the per-segment indexes prune on. A
/// default-constructed filter passes every record (the loader and seal
/// paths).
struct ScanFilter {
  ScanFilter() = default;
  /// Records with t0 <= ts < t1, narrowed by `event_glob` ("" = all).
  ScanFilter(TimePoint t0, TimePoint t1, std::string event_glob = {})
      : windowed(true), t0(t0), t1(t1), event_glob(std::move(event_glob)) {}

  /// Narrow to one host. FindSymbol, never Intern: a name the process
  /// never interned is no record's host, so it matches nothing.
  void SetHost(std::string_view name) {
    host = ulm::FindSymbol(name).value_or(kNoSymbol);
  }

  /// False only for the all-pass filter, which a half-open window cannot
  /// express (it must pass ts == INT64_MAX too).
  bool windowed = false;
  TimePoint t0 = 0;
  TimePoint t1 = 0;
  std::optional<ulm::Symbol> host;
  std::string event_glob;

  /// No interned symbol has this id, so no record carries it.
  static constexpr ulm::Symbol kNoSymbol = ~ulm::Symbol{0};

  bool PassesTime(TimePoint ts) const {
    return !windowed || (ts >= t0 && ts < t1);
  }
  bool PassesHost(ulm::Symbol sym) const { return !host || sym == *host; }
  bool PassesEvent(ulm::Symbol sym) const {
    return event_glob.empty() || GlobMatch(event_glob, ulm::SymbolName(sym));
  }
  bool Passes(const ulm::RecordView& view) const {
    return PassesTime(view.timestamp()) && PassesHost(view.host_sym()) &&
           PassesEvent(view.event_sym());
  }
  /// False when the segment's indexes prove no record passes.
  bool Covers(const Segment& segment) const;
};

/// A borrowed record callback: an object pointer and a function pointer,
/// so the compressed-record decoder can call a fold whose type it does
/// not know without allocating. The callable must outlive the sink. A
/// false return stops the decode as a failure.
class RecordSink {
 public:
  template <typename Fn>
  explicit RecordSink(Fn& fn)
      : fn_(&fn), call_([](void* fn, const ulm::RecordView& view) {
          return (*static_cast<Fn*>(fn))(view);
        }) {}

  bool operator()(const ulm::RecordView& view) const {
    return call_(fn_, view);
  }

 private:
  void* fn_;
  bool (*call_)(void*, const ulm::RecordView&);
};

/// The resident index of a compressed segment's blob: its dictionary
/// resolved to symbols, and one entry per fixed run of kBlockRecords
/// records that lets a scan start decoding at that run and tells it which
/// runs cannot hold a match.
struct BlockIndex {
  static constexpr std::size_t kBlockRecords = 64;
  /// Width of a block's host mask. With 64 bits, four in five of the
  /// blocks a read-back host query decoded held no match (a block holds
  /// about ten hosts, so bits collide); 128 bits cut the blocks decoded
  /// by almost half for 8 more bytes a block. 256 bits halve them again
  /// where a segment holds more than 128 hosts, for 16 more bytes a
  /// block: perfbench ingest_wire (1000 hosts) read-back query_p90_ms
  /// fell 0.229 -> 0.207 ms against 128 bits, lower in 17 of 20
  /// alternating pairs; query_mixed (32-host history) did not move.
  static constexpr std::size_t kHostMaskBits = 256;
  using HostMask = std::array<std::uint64_t, kHostMaskBits / 64>;

  /// Set the mask bit of host dictionary index `d` (d mod kHostMaskBits).
  static void SetHostBit(HostMask& mask, std::uint64_t d) {
    mask[(d / 64) % mask.size()] |= std::uint64_t{1} << (d % 64);
  }

  struct Block {
    /// Blob byte offset of the block's first record.
    std::uint64_t offset;
    /// Timestamp of the record before the block (0 for the first block):
    /// the base of the block's first zigzag delta.
    TimePoint base_ts;
    TimePoint min_ts;
    TimePoint max_ts;
    /// SetHostBit for every host dictionary index in the block: a clear
    /// bit proves no record of the block has such a host.
    HostMask host_mask;
  };

  std::vector<ulm::Symbol> dict;
  std::vector<Block> blocks;

  /// Size `blocks` exactly for a blob of `records` records.
  void Reserve(std::uint64_t records) {
    blocks.reserve(static_cast<std::size_t>(
        (records + kBlockRecords - 1) / kBlockRecords));
  }
  /// Fold in record `record` (records come in order), which starts at
  /// blob byte `offset`, follows a record stamped `base_ts`, and carries
  /// `ts` and host dictionary index `host`.
  void Add(std::uint64_t record, std::size_t offset, TimePoint base_ts,
           TimePoint ts, std::uint64_t host) {
    if (record % kBlockRecords == 0) {
      blocks.push_back({offset, base_ts, ts, ts, {}});
    }
    Block& block = blocks.back();
    block.min_ts = std::min(block.min_ts, ts);
    block.max_ts = std::max(block.max_ts, ts);
    SetHostBit(block.host_mask, host);
  }

  /// Resident bytes of the index.
  std::size_t MemoryBytes() const {
    return dict.capacity() * sizeof(ulm::Symbol) +
           blocks.capacity() * sizeof(Block);
  }
};

/// One archive partition. Mutable only while active (under the owning
/// stripe's lock); sealed segments are immutable.
struct Segment {
  std::uint64_t id = 0;
  TimePoint min_ts = 0;
  TimePoint max_ts = 0;
  /// Records in arrival order (roughly, but not strictly, time-ordered),
  /// stored as flat chunks: AppendFlatFrame splices a whole owned batch
  /// in O(1) — no per-record copies, which is what makes the batched
  /// ingest path cheap — while per-record Append grows a tail chunk's
  /// arena. Iteration order (chunk order, then in-chunk order) is exactly
  /// arrival order, so persisted payload bytes do not depend on which
  /// path the records took.
  std::vector<ulm::FlatBatch> chunks;
  /// Record-count reserve hint for tail chunks the per-record Append path
  /// creates.
  std::size_t append_reserve = 0;
  /// NL.EVNT symbol → count of records carrying it (the per-segment event
  /// index). Flat and linearly scanned: a monitoring stream carries a
  /// handful of distinct event names per segment, and each per-append
  /// index update is a few 4-byte compares.
  std::vector<std::pair<ulm::Symbol, std::uint64_t>> event_counts;
  /// Records with an empty NL.EVNT (plain ULM without the extension).
  std::uint64_t unnamed_count = 0;
  /// HOST symbols present (the per-segment host index), same flat layout.
  std::vector<ulm::Symbol> hosts;
  /// Compressed resting state (ISSUE 8): when non-empty, `chunks` is empty
  /// and the records live in this dictionary + delta-varint blob
  /// (CompressPayload format), with block_index() built beside it. Indexes
  /// and counts above stay resident, so pruning never decompresses. Only
  /// sealed segments are ever compressed.
  std::string compressed;

  /// Copy one record into the tail chunk.
  void Append(const ulm::RecordView& view);
  /// Splice a whole owned flat batch in as one chunk: O(1) in the records
  /// themselves, one index/min-max pass over them. Batch order becomes
  /// arrival order.
  void AppendFlatFrame(ulm::FlatBatch&& batch);

  /// Visit the records that pass `filter`, in arrival order, as
  /// RecordViews; returns how many were visited. An uncompressed segment
  /// tests each view in place; a compressed one decodes the blocks that
  /// can hold a passing record and hands each passing record to `fn`
  /// straight from the decoder (ScanBlocks). The view is only valid
  /// inside the callback.
  template <typename Fn>
  std::size_t ForEachView(const ScanFilter& filter, Fn&& fn) const {
    std::size_t passed = 0;
    if (!compressed.empty()) {
      auto visit = [&](const ulm::RecordView& view) {
        fn(view);
        ++passed;
        return true;
      };
      ScanBlocks(filter, RecordSink(visit));
      return passed;
    }
    for (const auto& chunk : chunks) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const ulm::RecordView view = chunk.View(i);
        if (!filter.Passes(view)) continue;
        fn(view);
        ++passed;
      }
    }
    return passed;
  }

  bool empty() const { return record_count_ == 0; }
  std::size_t size() const { return record_count_; }

  /// True if [min_ts, max_ts] intersects the half-open query [t0, t1).
  bool CoversTime(TimePoint t0, TimePoint t1) const {
    return record_count_ != 0 && min_ts < t1 && max_ts >= t0;
  }
  /// True if some record's event name could match `glob` ("" = all).
  bool MayContainEvent(const std::string& glob) const;
  bool ContainsHost(ulm::Symbol host) const {
    for (ulm::Symbol h : hosts) {
      if (h == host) return true;
    }
    return false;
  }
  /// String form resolves without growing the symbol table: a host the
  /// process has never interned cannot be in any segment.
  bool ContainsHost(std::string_view host) const {
    const auto sym = ulm::FindSymbol(host);
    return sym && ContainsHost(*sym);
  }

  /// Record span in microseconds (0 for empty/single-timestamp segments),
  /// saturating: a segment holding both timestamp extremes spans the
  /// largest Duration instead of overflowing.
  Duration Span() const {
    if (record_count_ == 0) return 0;
    constexpr auto kLongest =
        static_cast<std::uint64_t>(std::numeric_limits<Duration>::max());
    const std::uint64_t span = static_cast<std::uint64_t>(max_ts) -
                               static_cast<std::uint64_t>(min_ts);
    return static_cast<Duration>(std::min(span, kLongest));
  }

  /// Replace the flat chunks with the compressed blob and its block
  /// index. Must only run on a segment no other thread can see (the
  /// still-private seal candidate, or a private copy about to be swapped
  /// in); no-op when already compressed or empty. Indexes, counts, and
  /// time bounds are untouched.
  void Compress();
  /// Bytes this segment's records currently occupy: the blob size when
  /// compressed, otherwise the chunks' arena + metadata footprint. The
  /// unit QueryStats::bytes_scanned is denominated in.
  std::size_t StorageBytes() const;
  /// The block index of the compressed blob (empty when uncompressed).
  const BlockIndex& block_index() const { return block_index_; }

 private:
  friend BlockOutcome ReadSegmentBlock(std::string_view data,
                                       std::size_t* offset, Segment* out);

  /// Hand the blob's records that pass `filter` to `sink`, in order,
  /// decoding only the blocks whose time range and host mask admit a
  /// match. The blob was validated when its index was built, so the
  /// decode cannot fail.
  void ScanBlocks(const ScanFilter& filter, RecordSink sink) const;
  /// Fold one record into min/max-time and the event/host indexes and
  /// count it. Called exactly once per stored record.
  void IndexView(const ulm::RecordView& view);
  /// The tail chunk the per-record Append path grows (opens one if the
  /// last chunk is a sealed splice or its arena is full).
  ulm::FlatBatch& TailChunk();

  BlockIndex block_index_;
  std::size_t record_count_ = 0;
  /// Whether chunks.back() is a growable Append tail (false after an
  /// AppendFlatFrame splice — spliced chunks are never grown).
  bool tail_open_ = false;
};

// ------------------------------------------------------------ wire format
//
// Archive file := file header, then one block per segment:
//
//   file header (16 bytes):
//     u32  magic   "JARC" (0x4352414A LE)
//     u32  version 1
//     u32  segment_count
//     u32  crc32 of the preceding 12 bytes
//
//   segment block := segment header (56 bytes) + payload:
//     u32  magic   "SEG1" (0x31474553 LE) or "SEG2" (0x32474553 LE)
//     u32  reserved               (written 0, ignored on load)
//     u64  id
//     u64  record_count
//     i64  min_ts
//     i64  max_ts
//     u64  payload_len            (bytes of payload that follow)
//     u32  payload_crc            (crc32 of the payload bytes)
//     u32  header_crc             (crc32 of the preceding 52 bytes)
//
//   SEG1 payload := record_count self-delimiting binary ULM records
//                   (ulm::EncodeBinary), concatenated.
//   SEG2 payload := one CompressPayload blob (compressed segments persist
//                   their resting blob verbatim):
//
//     varint  record_count        (must match the header's)
//     varint  dict_n
//     dict_n × (varint len, bytes)   local string dictionary, first-use
//                                    order over host/prog/lvl/event/field
//                                    keys (built from the interned symbols)
//     record_count × record:
//       zigzag-varint  ts delta from the previous record (first record:
//                      from the segment's min_ts), arrival order
//       varint × 4     host, prog, lvl, event dictionary indexes
//       varint         nfields
//       nfields × (varint key index, varint value len, value bytes)
//
// Every byte of the file is covered by exactly one of the three CRCs, so
// any single-bit corruption is detected. A bad payload CRC (or a payload
// that decodes to the wrong record count) skips that one segment — the
// header told us its length, so the loader resynchronizes at the next
// block. A bad header CRC means the length itself is untrustworthy: the
// loader stops there and reports the remainder as truncated. SEG2 decode
// is hardened independently of the CRCs (every varint and length is
// bounds-checked, indexes validated against the dictionary, trailing
// bytes rejected), so a corrupt blob whose checksums were recomputed
// still skips cleanly instead of crashing or looping.

inline constexpr std::uint32_t kArchiveMagic = 0x4352414Au;   // "JARC"
inline constexpr std::uint32_t kArchiveVersion = 1;
inline constexpr std::uint32_t kSegmentMagic = 0x31474553u;   // "SEG1"
inline constexpr std::uint32_t kSegmentMagicV2 = 0x32474553u; // "SEG2"
inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kSegmentHeaderBytes = 56;

/// Build the dictionary + delta-varint blob for `segment` (which must be
/// uncompressed), and its block index into `index` when given.
/// Deterministic: dictionary order is first use in arrival order, so equal
/// record sequences compress to equal bytes.
std::string CompressPayload(const Segment& segment,
                            BlockIndex* index = nullptr);

/// Decode a CompressPayload blob, appending the records that pass
/// `filter` to `out` in arrival order, and building the blob's block
/// index into `index` when given; returns the records walked (the blob's
/// record count). A record that fails is skipped by its length prefixes
/// without a copy; an event glob is matched once per dictionary entry.
/// Hardened against arbitrary bytes whatever the filter: never crashes,
/// never loops, and rejects truncation, bad indexes, and trailing
/// garbage. On error `out` may hold a prefix of the passing records and
/// `index` a partial index.
Result<std::uint64_t> DecompressPayload(std::string_view blob,
                                        ulm::FlatBatch& out,
                                        const ScanFilter& filter = {},
                                        BlockIndex* index = nullptr);

/// Append the archive file header for `segment_count` blocks to `out`.
void AppendFileHeader(std::string& out, std::uint32_t segment_count);

/// Validate the file header; returns the segment count it promises.
Result<std::uint32_t> ReadFileHeader(std::string_view data);

/// Append one segment block (header + payload) to `out`.
void AppendSegmentBlock(const Segment& segment, std::string& out);

/// Outcome of reading one segment block at *offset.
enum class BlockOutcome {
  kLoaded,     // segment decoded; *offset past the block
  kSkipped,    // corrupt payload; *offset past the block (resynchronized)
  kTruncated,  // header unreadable/untrustworthy; *offset unchanged — stop
};

/// Read one segment block. On kLoaded, `out` holds the segment; on
/// kSkipped the block's bytes were consumed but its records are lost; on
/// kTruncated nothing more can be read from `data`.
BlockOutcome ReadSegmentBlock(std::string_view data, std::size_t* offset,
                              Segment* out);

}  // namespace jamm::archive
