// Durable write-ahead log for the directory (ISSUE 9). Every change the
// server acks is serialized, checksummed, and fsync-simulated into a
// WalStorage that outlives the DirectoryServer object, so a Crash() /
// Restart() cycle recovers to exactly the last acked write. The same log
// is the replication feed: replicas catch up from any byte offset
// (Replicator ships committed frames in batches instead of pushing an
// in-memory change list).
//
// Frame format, repeated to end of log:
//     u32  payload length
//     u32  crc32 of the payload bytes
//     u8[] payload (one serialized Change)
//
// Recovery walks frames from byte 0 and stops at the first frame whose
// length overruns the log or whose CRC fails — a torn tail from a crash
// mid-append — and truncates the log there. Nothing before the torn
// frame is lost; nothing after it was ever acked (Commit() is the ack
// barrier).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "directory/server.hpp"

namespace jamm::directory {

/// Serialize one change-log record into `out` (appended).
void EncodeChange(const Change& change, std::vector<std::uint8_t>* out);

/// Decode one change record; false on any malformed/truncated input.
bool DecodeChange(const std::uint8_t* data, std::size_t size, Change* out);

/// The simulated durable medium. Lives in a shared_ptr that survives the
/// owning server's Crash(); bytes up to the sync high-water mark are
/// durable, anything past it is lost with the process. Internally locked:
/// a Replicator may read committed frames while the owner appends.
class WalStorage {
 public:
  /// Total bytes written (durable + unsynced tail).
  std::uint64_t size() const;
  /// Bytes guaranteed to survive a crash (advanced by Commit()).
  std::uint64_t synced_size() const;
  /// Number of simulated fsyncs (group commit: one per acked batch).
  std::uint64_t fsyncs() const;

  /// Crash simulation: drop everything past the sync high-water mark.
  void DropUnsynced();

  /// Test hook — deterministically flip `bytes` trailing *synced* bytes,
  /// simulating a torn or corrupted tail the recovery replay must detect
  /// and truncate. Returns how many bytes were actually flipped.
  std::size_t CorruptTail(std::size_t bytes);

  /// Test hook — chop the log to `size` raw bytes (mid-frame allowed).
  void TruncateRaw(std::uint64_t size);

 private:
  friend class WriteAheadLog;

  mutable std::mutex mu_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t synced_ = 0;
  std::uint64_t fsyncs_ = 0;
};

class WriteAheadLog {
 public:
  /// A null `storage` gets a fresh private one (server-local durability).
  explicit WriteAheadLog(std::shared_ptr<WalStorage> storage);

  const std::shared_ptr<WalStorage>& storage() const { return storage_; }

  /// Frame and append one change. NOT durable until Commit() — callers
  /// append a whole batch, then Commit() once (group commit), then ack.
  void Append(const Change& change);

  /// Simulated fsync: everything appended so far becomes durable.
  void Commit();

  struct ReplayStats {
    std::uint64_t records = 0;          // intact frames replayed
    std::uint64_t bytes = 0;            // bytes covered by intact frames
    std::uint64_t truncated_bytes = 0;  // torn/corrupt tail removed
  };

  /// Walk every committed frame from byte 0, calling `fn` per change; a
  /// torn tail is truncated from the storage. The recovery path.
  ReplayStats Replay(const std::function<void(const Change&)>& fn);

  /// Read up to `max_records` committed changes starting at byte
  /// `offset`, advancing `*next_offset` past the frames consumed. An
  /// offset beyond the committed size (a primary that crashed and lost
  /// its unsynced tail) yields nothing and clamps `*next_offset` back.
  /// The replication shipping path: replicas resume from any offset.
  std::vector<Change> ReadFrom(std::uint64_t offset, std::size_t max_records,
                               std::uint64_t* next_offset) const;

  std::uint64_t committed_size() const { return storage_->synced_size(); }
  std::uint64_t fsyncs() const { return storage_->fsyncs(); }

 private:
  std::shared_ptr<WalStorage> storage_;
};

}  // namespace jamm::directory
