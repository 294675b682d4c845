#include "netlogger/sinks.hpp"

#include <cstdio>
#include <map>

namespace jamm::netlogger {

Status MemorySink::Write(const ulm::RecordView& rec) {
  if (!records_.Append(rec)) {
    return Status::Unavailable("memory sink: batch arena full");
  }
  return Status::Ok();
}

ulm::FlatBatch MemorySink::TakeRecords() {
  ulm::FlatBatch out;
  std::swap(out, records_);
  return out;
}

FileSink::FileSink(std::string path, bool truncate)
    : path_(std::move(path)), truncate_(truncate) {}

FileSink::~FileSink() {
  if (file_) std::fclose(file_);
}

Status FileSink::Open() {
  if (file_) return Status::Ok();
  file_ = std::fopen(path_.c_str(), truncate_ ? "w" : "a");
  if (!file_) return Status::Unavailable("cannot open log file: " + path_);
  return Status::Ok();
}

Status FileSink::Write(const ulm::RecordView& rec) {
  JAMM_RETURN_IF_ERROR(Open());
  std::string line = rec.ToAscii();
  line += '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::Unavailable("write failed: " + path_);
  }
  return Status::Ok();
}

Status FileSink::Flush() {
  if (file_ && std::fflush(file_) != 0) {
    return Status::Unavailable("flush failed: " + path_);
  }
  return Status::Ok();
}

namespace {
std::mutex g_syslog_mu;
std::map<std::string, ulm::FlatBatch>& SyslogStore() {
  static std::map<std::string, ulm::FlatBatch> store;
  return store;
}
}  // namespace

Status SyslogSimSink::Write(const ulm::RecordView& rec) {
  std::lock_guard lock(g_syslog_mu);
  if (!SyslogStore()[facility_].Append(rec)) {
    return Status::Unavailable("syslog " + facility_ + ": batch arena full");
  }
  return Status::Ok();
}

ulm::FlatBatch SyslogSimSink::Read(const std::string& facility) {
  std::lock_guard lock(g_syslog_mu);
  auto it = SyslogStore().find(facility);
  if (it == SyslogStore().end()) return {};
  return it->second;
}

void SyslogSimSink::Reset() {
  std::lock_guard lock(g_syslog_mu);
  SyslogStore().clear();
}

Status TeeSink::Write(const ulm::RecordView& rec) {
  Status first;
  for (auto& sink : sinks_) {
    Status s = sink->Write(rec);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status TeeSink::Flush() {
  Status first;
  for (auto& sink : sinks_) {
    Status s = sink->Flush();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace jamm::netlogger
