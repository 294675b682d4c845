// Test conveniences for feeding records the tests build as temporaries
// into the flat record pipeline. Publish takes a FlatRecord by reference
// (the pipeline stamps hops in place), so Publish() here gives a temporary
// a home for the call; Ingest() does the same for the archive's view
// entry.
#pragma once


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

}  // namespace jamm::test
