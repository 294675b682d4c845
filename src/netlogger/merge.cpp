#include "netlogger/merge.hpp"

#include <fstream>
#include <sstream>

namespace jamm::netlogger {

ulm::FlatBatch MergeLogs(const std::vector<ulm::FlatBatch>& logs) {
  ulm::FlatBatch out;
  for (const auto& log : logs) (void)out.Append(log);
  out.SortByTime();
  return out;
}

Result<ulm::FlatBatch> LoadLogFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("log file not found: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  ulm::FlatBatch records;
  JAMM_RETURN_IF_ERROR(ulm::ParseLog(buf.str(), records));
  return records;
}

Status WriteLogFile(const std::string& path, const ulm::FlatBatch& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open for write: " + path);
  std::string line;
  for (std::size_t i = 0; i < records.size(); ++i) {
    line.clear();
    records.View(i).AppendAscii(line);
    line += '\n';
    out << line;
  }
  out.flush();
  if (!out) return Status::Unavailable("write failed: " + path);
  return Status::Ok();
}

bool IsSortedByTime(const ulm::FlatBatch& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records.View(i).timestamp() < records.View(i - 1).timestamp()) {
      return false;
    }
  }
  return true;
}

}  // namespace jamm::netlogger
