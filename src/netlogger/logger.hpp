// NetLogger client API (paper §4.4). Mirrors the Java API shown in the
// paper:
//
//   NetLogger eventLog = new NetLogger("testprog");
//   eventLog.open("dolly.lbl.gov", 14830);
//   eventLog.write("WriteIt", "SEND.SZ=" + sz);
//   eventLog.close();
//
// C++ form:
//
//   netlogger::NetLogger log("testprog", clock, "dpss1.lbl.gov");
//   log.OpenFile("/tmp/test.log");
//   log.Write("WriteIt", {{"SEND.SZ", "49332"}});
//   log.Close();
//
// Records are timestamped automatically from the injected Clock, buffered
// in memory, and flushed explicitly or automatically when the buffer fills
// (paper: "automatically flushed when the buffer is full").
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "netlogger/sinks.hpp"
#include "ulm/flat.hpp"

namespace jamm::netlogger {

class NetLogger {
 public:
  /// `prog` fills the ULM PROG field, `host` the HOST field.
  NetLogger(std::string prog, const Clock& clock, std::string host,
            std::size_t buffer_capacity = 256);
  ~NetLogger();

  NetLogger(const NetLogger&) = delete;
  NetLogger& operator=(const NetLogger&) = delete;

  /// Destination selection; the last Open* wins. The raw-string pair form
  /// from the paper's API maps onto a transport sink created by the caller.
  Status OpenFile(const std::string& path, bool truncate = true);
  void OpenMemory();  // records retrievable via TakeBuffered after Flush
  void OpenSyslog(const std::string& facility = "local0");
  void OpenSink(std::shared_ptr<LogSink> sink);

  /// Log one event. Fields are (name, value) pairs appended after the
  /// required fields; LVL defaults to Usage.
  Status Write(std::string_view event_name,
               std::initializer_list<std::pair<std::string_view, std::string_view>>
                   fields = {});
  Status Write(std::string_view event_name, std::string_view lvl,
               const std::vector<std::pair<std::string, std::string>>& fields);
  /// Log a pre-built record (application sensors hand these over). The
  /// view is copied into the buffer.
  Status Write(const ulm::RecordView& rec);

  /// Flush the in-memory buffer to the destination sink.
  Status Flush();
  /// Flush and detach the destination.
  Status Close();

  /// For OpenMemory: take everything flushed so far.
  ulm::FlatBatch TakeBuffered();

  std::size_t buffered_count() const { return buffer_.size(); }
  const std::string& prog() const { return prog_; }
  const std::string& host() const { return host_; }

 private:
  /// Reset scratch_ to a fresh record stamped now with this logger's
  /// HOST/PROG.
  ulm::FlatRecord& Begin(std::string_view event_name, std::string_view lvl);

  std::string prog_;
  const Clock& clock_;
  std::string host_;
  std::size_t buffer_capacity_;
  ulm::FlatBatch buffer_;
  ulm::FlatRecord scratch_;  // the record Write(event, ...) builds
  std::shared_ptr<LogSink> sink_;
  std::shared_ptr<MemorySink> memory_;  // set by OpenMemory
};

}  // namespace jamm::netlogger
