// Encode-once record wrapper. The gateway fan-out used to re-serialize
// every published record once per subscriber — O(subscribers × encode) on
// the hottest path in the system. An EncodedRecord wraps one published
// record's RecordView and lazily caches each wire form (ASCII / binary /
// XML) the first time any subscriber asks for it, so N subscribers of the
// same format cost one encode plus N-1 string reads. The encoders are the
// flat transcoders, byte-identical to the Record codecs.
//
// Lifetime: the wrapper holds the view by value (it is a few words) and
// borrows the arena behind it, which lives only for the duration of one
// Publish() fan-out. Callbacks must copy what they keep. Single-threaded
// like the poll-driven fan-out that creates it.
//
// The binary form may encode into a caller-owned buffer that outlives the
// wrapper (the gateway keeps one for its outermost fan-out), so a steady
// stream of publishes reuses one capacity instead of growing a fresh
// string each time. The buffer is overwritten by the wrapper's first
// Binary() call and must not be shared with another live wrapper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ulm/flat.hpp"

namespace jamm::ulm {

class EncodedRecord {
 public:
  explicit EncodedRecord(const RecordView& view,
                         std::string* binary_buffer = nullptr)
      : view_(view), binary_(binary_buffer ? binary_buffer : &own_binary_) {}

  EncodedRecord(const EncodedRecord&) = delete;
  EncodedRecord& operator=(const EncodedRecord&) = delete;

  const RecordView& view() const { return view_; }

  /// Each accessor encodes at most once per EncodedRecord; later calls
  /// return the cached string by reference.
  const std::string& Ascii() const;
  const std::string& Binary() const;
  const std::string& Xml() const;

  /// Cache effectiveness for this record: how many accessor calls were
  /// served ("accesses") and how many actually encoded ("encodes").
  /// The gateway folds these into the process-wide telemetry counters
  /// after each fan-out (ulm cannot link telemetry — it sits below it).
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t encodes() const { return encodes_; }

 private:
  RecordView view_;
  mutable std::optional<std::string> ascii_;
  mutable std::string own_binary_;  // binary target when none was lent
  std::string* binary_;
  mutable bool has_binary_ = false;
  mutable std::optional<std::string> xml_;
  mutable std::uint64_t accesses_ = 0;
  mutable std::uint64_t encodes_ = 0;
};

}  // namespace jamm::ulm
