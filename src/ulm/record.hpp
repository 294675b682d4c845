// ULM (Universal Logger Message) event records — the wire and log format of
// the whole system (paper §4.2, IETF draft-abela-ulm).
//
// A record is a whitespace-separated list of field=value pairs. Required
// fields: DATE, HOST, PROG, LVL. NetLogger adds NL.EVNT (unique event name).
// Example from the paper:
//
//   DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Usage
//   NL.EVNT=WriteData SEND.SZ=49332
//
// User-defined fields follow the required ones and preserve insertion order
// so serialized records round-trip byte-identically.
//
// `Record` is the string-keyed form of one record, kept only at the edges
// that still hand records over by value: sensor output and ArchiveClient
// results. Every codec works on the flat records of ulm/flat.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace jamm::ulm {

/// Standard LVL values from the ULM draft; LVL is carried as a string so
/// user-defined levels pass through, but these are the recognized names.
namespace level {
inline constexpr std::string_view kEmergency = "Emergency";
inline constexpr std::string_view kAlert = "Alert";
inline constexpr std::string_view kError = "Error";
inline constexpr std::string_view kWarning = "Warning";
inline constexpr std::string_view kAuth = "Auth";
inline constexpr std::string_view kSecurity = "Security";
inline constexpr std::string_view kUsage = "Usage";
inline constexpr std::string_view kSystem = "System";
inline constexpr std::string_view kImportant = "Important";
inline constexpr std::string_view kDebug = "Debug";
}  // namespace level

/// Well-known field names.
namespace field {
inline constexpr std::string_view kDate = "DATE";
inline constexpr std::string_view kHost = "HOST";
inline constexpr std::string_view kProg = "PROG";
inline constexpr std::string_view kLevel = "LVL";
inline constexpr std::string_view kEvent = "NL.EVNT";  // NetLogger extension
}  // namespace field

class Record {
 public:
  Record() = default;
  /// Typical construction path used by sensors and the NetLogger API.
  Record(TimePoint timestamp, std::string host, std::string prog,
         std::string lvl, std::string event_name);

  TimePoint timestamp() const { return timestamp_; }
  void set_timestamp(TimePoint t) { timestamp_ = t; }

  const std::string& host() const { return host_; }
  void set_host(std::string h) { host_ = std::move(h); }

  const std::string& prog() const { return prog_; }
  void set_prog(std::string p) { prog_ = std::move(p); }

  const std::string& lvl() const { return lvl_; }
  void set_lvl(std::string l) { lvl_ = std::move(l); }

  /// NL.EVNT value; empty when the record is plain ULM without NetLogger's
  /// event-name extension.
  const std::string& event_name() const { return event_name_; }
  void set_event_name(std::string e) { event_name_ = std::move(e); }

  /// Append or overwrite a user field. Setting a required field name
  /// (DATE/HOST/PROG/LVL/NL.EVNT) routes to the dedicated member instead.
  void SetField(std::string_view key, std::string_view value);
  void SetField(std::string_view key, std::int64_t value);
  void SetField(std::string_view key, double value);

  /// Append without the overwrite scan — for converters that guarantee
  /// unique keys (RecordView::ToRecord). Key must not be a required name.
  void AppendFieldUnchecked(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), std::move(value));
  }

  /// Field lookup; nullopt when absent.
  ///
  /// Core-field contract (uniform across HOST/PROG/LVL/NL.EVNT): these
  /// four are members of every Record, so GetField always returns their
  /// current value — possibly the empty string — and HasField is always
  /// true for them. Emptiness is not absence: an empty NL.EVNT means "no
  /// NetLogger event-name extension" for serialization (the ASCII and XML
  /// forms omit it), but the field still reads as present-and-empty,
  /// exactly like an empty HOST/PROG/LVL. DATE is not surfaced through
  /// GetField; use timestamp().
  std::optional<std::string> GetField(std::string_view key) const;
  Result<std::int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  bool HasField(std::string_view key) const;

  /// User fields in insertion order (excludes the required fields).
  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

  /// Checks that HOST/PROG/LVL are set, the timestamp is not negative,
  /// and no field name holds a character the ASCII form cannot carry
  /// (space, tab, newline, '=', '"').
  Status Validate() const;

  friend bool operator==(const Record& a, const Record& b);

 private:
  TimePoint timestamp_ = 0;
  std::string host_;
  std::string prog_;
  std::string lvl_;
  std::string event_name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

namespace detail {
/// Append the canonical ULM decimal form of `value` (%.6f, grown on
/// demand so huge magnitudes are never truncated). Shared by
/// Record::SetField(double) and FlatRecord::SetField(double).
void AppendUlmDouble(std::string& out, double value);
}  // namespace detail

}  // namespace jamm::ulm
