// Log collection/sorting tools (paper §4.1: "a set of tools for collecting
// and sorting log files"). The event collector merges many sensor streams
// into one time-ordered file for nlv; these are the primitives it uses.
// Sorting is FlatBatch::SortByTime (stable: ties keep input order, so
// events that share a microsecond stay in arrival order).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "ulm/flat.hpp"

namespace jamm::netlogger {

/// Merge arbitrary (possibly unsorted) logs: concatenates then sorts.
ulm::FlatBatch MergeLogs(const std::vector<ulm::FlatBatch>& logs);

/// Load an ASCII ULM log file. Blank lines are skipped; the first
/// malformed line fails the load.
Result<ulm::FlatBatch> LoadLogFile(const std::string& path);

/// Write records to an ASCII ULM log file (one per line).
Status WriteLogFile(const std::string& path, const ulm::FlatBatch& records);

/// True if timestamps are non-decreasing.
bool IsSortedByTime(const ulm::FlatBatch& records);

}  // namespace jamm::netlogger
