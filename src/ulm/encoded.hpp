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
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ulm/flat.hpp"

namespace jamm::ulm {

class EncodedRecord {
 public:
  explicit EncodedRecord(const RecordView& view) : view_(view) {}

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
  mutable std::optional<std::string> binary_;
  mutable std::optional<std::string> xml_;
  mutable std::uint64_t accesses_ = 0;
  mutable std::uint64_t encodes_ = 0;
};

}  // namespace jamm::ulm
