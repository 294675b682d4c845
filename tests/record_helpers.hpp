// Test conveniences for feeding records the tests build as temporaries
// into the flat record pipeline. Publish takes a FlatRecord by reference
// (the pipeline stamps hops in place), so Publish() here gives a temporary
// a home for the call; Ingest() does the same for the archive's view
// entry. ToRecords() turns a flat result batch back into Records for
// assertions that compare whole records.
#pragma once

#include <vector>

#include "archive/archive.hpp"
#include "gateway/gateway.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"

namespace jamm::test {

inline void Publish(gateway::GatewaySurface& gw, ulm::FlatRecord rec) {
  gw.Publish(rec);
}

inline void Publish(gateway::GatewaySurface& gw, const ulm::Record& rec) {
  Publish(gw, ulm::FlatRecord::FromRecord(rec));
}

inline void Ingest(archive::EventArchive& archive, const ulm::Record& rec) {
  archive.Ingest(ulm::FlatRecord::FromRecord(rec).View());
}

/// The ASCII line of a record the test built as a Record.
inline std::string Ascii(const ulm::Record& rec) {
  return ulm::FlatRecord::FromRecord(rec).View().ToAscii();
}

inline std::vector<ulm::Record> ToRecords(const ulm::FlatBatch& batch) {
  std::vector<ulm::Record> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(batch.View(i).ToRecord());
  }
  return out;
}

}  // namespace jamm::test
