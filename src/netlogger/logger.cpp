#include "netlogger/logger.hpp"

namespace jamm::netlogger {

NetLogger::NetLogger(std::string prog, const Clock& clock, std::string host,
                     std::size_t buffer_capacity)
    : prog_(std::move(prog)),
      clock_(clock),
      host_(std::move(host)),
      buffer_capacity_(buffer_capacity == 0 ? 1 : buffer_capacity) {
  buffer_.Reserve(buffer_capacity_, 0);
}

NetLogger::~NetLogger() { (void)Close(); }

Status NetLogger::OpenFile(const std::string& path, bool truncate) {
  auto sink = std::make_shared<FileSink>(path, truncate);
  JAMM_RETURN_IF_ERROR(sink->Open());
  sink_ = std::move(sink);
  memory_.reset();
  return Status::Ok();
}

void NetLogger::OpenMemory() {
  memory_ = std::make_shared<MemorySink>();
  sink_ = memory_;
}

void NetLogger::OpenSyslog(const std::string& facility) {
  sink_ = std::make_shared<SyslogSimSink>(facility);
  memory_.reset();
}

void NetLogger::OpenSink(std::shared_ptr<LogSink> sink) {
  sink_ = std::move(sink);
  memory_.reset();
}

ulm::FlatRecord& NetLogger::Begin(std::string_view event_name,
                                  std::string_view lvl) {
  scratch_.Clear();
  scratch_.set_timestamp(clock_.Now());
  scratch_.set_host(host_);
  scratch_.set_prog(prog_);
  scratch_.set_lvl(lvl);
  scratch_.set_event_name(event_name);
  return scratch_;
}

Status NetLogger::Write(
    std::string_view event_name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields) {
  ulm::FlatRecord& rec = Begin(event_name, ulm::level::kUsage);
  for (const auto& [k, v] : fields) rec.SetField(k, v);
  return Write(rec.View());
}

Status NetLogger::Write(
    std::string_view event_name, std::string_view lvl,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  ulm::FlatRecord& rec = Begin(event_name, lvl);
  for (const auto& [k, v] : fields) rec.SetField(k, std::string_view(v));
  return Write(rec.View());
}

Status NetLogger::Write(const ulm::RecordView& rec) {
  if (!buffer_.Append(rec)) {
    return Status::Unavailable("netlogger: buffer arena full");
  }
  if (buffer_.size() >= buffer_capacity_) return Flush();
  return Status::Ok();
}

Status NetLogger::Flush() {
  if (!sink_) {
    // No destination yet: keep buffering (the paper's memory mode).
    return Status::Ok();
  }
  Status first;
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    Status s = sink_->Write(buffer_.View(i));
    if (!s.ok() && first.ok()) first = s;
  }
  buffer_.Clear();
  Status s = sink_->Flush();
  if (!s.ok() && first.ok()) first = s;
  return first;
}

Status NetLogger::Close() {
  Status s = Flush();
  sink_.reset();
  return s;
}

ulm::FlatBatch NetLogger::TakeBuffered() {
  if (memory_) return memory_->TakeRecords();
  ulm::FlatBatch out;
  std::swap(out, buffer_);
  return out;
}

}  // namespace jamm::netlogger
