// Trace propagation through ULM records, NetLogger-style (cs/0306086:
// instrument the monitoring pipeline with its own event stream). A trace
// id minted where an event is born rides inside ordinary ULM attributes:
//
//   TRACE.ID=2f9c...  SPAN.ID=01ab...  SPAN.PARENT=0000...
//   HOP.SENSOR=9615...  HOP.MANAGER=9615...  HOP.GATEWAY=9615...
//
// Every layer the record passes through stamps a HOP.<NAME>=<microsecond
// timestamp> field, so one event can be followed sensor → sensor-manager
// → gateway → consumer/archiver with per-hop timestamps, and the whole
// path reconstructs from any copy of the record (e.g. out of the archive).
// Because the carrier is plain ULM fields, traces survive ASCII and XML
// serialization, gateway fan-out, and archival untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/metrics.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"

namespace jamm::telemetry {

namespace field {
inline constexpr std::string_view kTraceId = "TRACE.ID";
inline constexpr std::string_view kSpanId = "SPAN.ID";
inline constexpr std::string_view kParentSpanId = "SPAN.PARENT";
inline constexpr std::string_view kHopPrefix = "HOP.";
}  // namespace field

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no trace
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }

  /// Fresh trace with a root span.
  static TraceContext NewRoot();
  /// Same trace, new span, parented on this one.
  TraceContext NewChild() const;

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// 16-hex-digit fixed-width encoding (sorts and greps cleanly).
std::string IdToHex(std::uint64_t id);
std::optional<std::uint64_t> HexToId(std::string_view hex);

/// Write TRACE.ID/SPAN.ID (and SPAN.PARENT when set) into the record.
void Inject(const TraceContext& ctx, ulm::FlatRecord& rec);

/// Read the context back; nullopt when the record carries no trace. The
/// Record forms read archive query results.
std::optional<TraceContext> Extract(const ulm::Record& rec);
std::optional<TraceContext> Extract(const ulm::RecordView& view);

bool HasTrace(const ulm::Record& rec);
/// Flat-path variant: one interned-symbol field scan, no allocation.
bool HasTrace(const ulm::RecordView& view);

/// Extract, or mint-and-inject a new root when absent. The entry point of
/// the pipeline (the sensor manager) calls this on every outbound record.
TraceContext EnsureTrace(ulm::FlatRecord& rec);

/// Stamp a per-hop timestamp: HOP.<NAME> = ts (µs since epoch). `hop` is
/// uppercased; restamping the same hop overwrites. Stamps in place (the
/// pipeline passes records by reference, so hops never force a copy). The
/// HOP.<NAME> key interns once per distinct hop name.
void StampHop(ulm::FlatRecord& rec, std::string_view hop, TimePoint ts);

struct Hop {
  std::string name;  // uppercased, without the HOP. prefix
  TimePoint ts = 0;
};

/// Hops in stamp (insertion) order — the event's path through the system.
std::vector<Hop> Hops(const ulm::Record& rec);

/// RAII span: measures wall-clock elapsed time and records it (in µs)
/// into a latency histogram at End()/destruction.
class Span {
 public:
  Span(std::string name, TraceContext ctx, Histogram* latency = nullptr);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Stop the clock and record the latency; idempotent.
  void End();

  const TraceContext& context() const { return ctx_; }
  const std::string& name() const { return name_; }

  /// Wall-clock microseconds since the span started.
  std::uint64_t ElapsedUs() const;

 private:
  std::string name_;
  TraceContext ctx_;
  Histogram* latency_;
  std::chrono::steady_clock::time_point start_;
  bool ended_ = false;
};

}  // namespace jamm::telemetry
