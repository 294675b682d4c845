// Log destinations for the NetLogger client API (paper §4.4: "logging to
// either memory, a local file, syslog, a remote host").
//
// Sinks receive fully-formed ULM records as views, valid for the call
// only: a sink that keeps a record copies it. The network destination is a
// sink too — the transport module wraps a Channel in one — so the logger
// core has no transport dependency.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ulm/flat.hpp"

namespace jamm::netlogger {

class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual Status Write(const ulm::RecordView& rec) = 0;
  /// Push buffered data toward the destination; default no-op.
  virtual Status Flush() { return Status::Ok(); }
};

/// In-memory destination; also the explicit-flush buffer backing store.
class MemorySink final : public LogSink {
 public:
  Status Write(const ulm::RecordView& rec) override;

  const ulm::FlatBatch& records() const { return records_; }
  ulm::FlatBatch TakeRecords();
  void Clear() { records_.Clear(); }

 private:
  ulm::FlatBatch records_;
};

/// Appends ASCII ULM lines to a file.
class FileSink final : public LogSink {
 public:
  /// Opens (creates/truncates if `truncate`) the file; Status via Open().
  explicit FileSink(std::string path, bool truncate = true);
  ~FileSink() override;

  Status Open();
  Status Write(const ulm::RecordView& rec) override;
  Status Flush() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool truncate_;
  std::FILE* file_ = nullptr;
};

/// Invokes a callback per record; adapter for gateways, tests, consumers.
class CallbackSink final : public LogSink {
 public:
  using Callback = std::function<void(const ulm::RecordView&)>;
  explicit CallbackSink(Callback cb) : cb_(std::move(cb)) {}

  Status Write(const ulm::RecordView& rec) override {
    cb_(rec);
    return Status::Ok();
  }

 private:
  Callback cb_;
};

/// Simulated syslog: a process-wide store keyed by facility, mirroring the
/// paper's syslog destination without requiring a syslog daemon.
class SyslogSimSink final : public LogSink {
 public:
  explicit SyslogSimSink(std::string facility = "local0")
      : facility_(std::move(facility)) {}

  Status Write(const ulm::RecordView& rec) override;

  /// Read back everything logged to a facility (thread-safe snapshot).
  static ulm::FlatBatch Read(const std::string& facility);
  static void Reset();

 private:
  std::string facility_;
};

/// Fan-out to several sinks; failures are combined (first error wins).
class TeeSink final : public LogSink {
 public:
  void Add(std::shared_ptr<LogSink> sink) { sinks_.push_back(std::move(sink)); }

  Status Write(const ulm::RecordView& rec) override;
  Status Flush() override;

 private:
  std::vector<std::shared_ptr<LogSink>> sinks_;
};

}  // namespace jamm::netlogger
