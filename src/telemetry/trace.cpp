#include "telemetry/trace.hpp"

#include <atomic>
#include <chrono>

#include "common/strings.hpp"

namespace jamm::telemetry {

namespace {

/// splitmix64 — spreads a sequential counter over the id space so ids are
/// unique per process and visually distinct, without locking or shared
/// RNG state.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t NextTraceId() {
  // Seed once from the wall clock so ids differ across runs; the atomic
  // counter keeps them unique within a run.
  static const std::uint64_t seed = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t id =
      Mix(seed + counter.fetch_add(1, std::memory_order_relaxed));
  return id ? id : 1;  // 0 means "no trace"
}

/// The three trace-context keys, interned once for the flat overloads.
struct TraceSyms {
  ulm::Symbol trace_id;
  ulm::Symbol span_id;
  ulm::Symbol parent_span_id;
};

const TraceSyms& Syms() {
  static const TraceSyms s{ulm::InternSymbol(field::kTraceId),
                           ulm::InternSymbol(field::kSpanId),
                           ulm::InternSymbol(field::kParentSpanId)};
  return s;
}

}  // namespace

TraceContext TraceContext::NewRoot() {
  TraceContext ctx;
  ctx.trace_id = NextTraceId();
  ctx.span_id = NextTraceId();
  ctx.parent_span_id = 0;
  return ctx;
}

TraceContext TraceContext::NewChild() const {
  TraceContext child;
  child.trace_id = trace_id;
  child.parent_span_id = span_id;
  child.span_id = NextTraceId();
  return child;
}

std::string IdToHex(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xF];
    id >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> HexToId(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t id = 0;
  for (char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      id |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return id;
}

void Inject(const TraceContext& ctx, ulm::FlatRecord& rec) {
  if (!ctx.valid()) return;
  const TraceSyms& syms = Syms();
  rec.SetField(syms.trace_id, IdToHex(ctx.trace_id));
  rec.SetField(syms.span_id, IdToHex(ctx.span_id));
  if (ctx.parent_span_id != 0) {
    rec.SetField(syms.parent_span_id, IdToHex(ctx.parent_span_id));
  }
}

std::optional<TraceContext> Extract(const ulm::RecordView& view) {
  const TraceSyms& syms = Syms();
  auto trace = view.GetField(syms.trace_id);
  if (!trace) return std::nullopt;
  auto trace_id = HexToId(*trace);
  if (!trace_id || *trace_id == 0) return std::nullopt;
  TraceContext ctx;
  ctx.trace_id = *trace_id;
  if (auto span = view.GetField(syms.span_id)) {
    if (auto span_id = HexToId(*span)) ctx.span_id = *span_id;
  }
  if (auto parent = view.GetField(syms.parent_span_id)) {
    if (auto parent_id = HexToId(*parent)) ctx.parent_span_id = *parent_id;
  }
  return ctx;
}

std::optional<TraceContext> Extract(const ulm::Record& rec) {
  auto trace = rec.GetField(field::kTraceId);
  if (!trace) return std::nullopt;
  auto trace_id = HexToId(*trace);
  if (!trace_id || *trace_id == 0) return std::nullopt;
  TraceContext ctx;
  ctx.trace_id = *trace_id;
  if (auto span = rec.GetField(field::kSpanId)) {
    if (auto span_id = HexToId(*span)) ctx.span_id = *span_id;
  }
  if (auto parent = rec.GetField(field::kParentSpanId)) {
    if (auto parent_id = HexToId(*parent)) ctx.parent_span_id = *parent_id;
  }
  return ctx;
}

bool HasTrace(const ulm::Record& rec) {
  return rec.HasField(field::kTraceId);
}

bool HasTrace(const ulm::RecordView& view) {
  return view.HasField(Syms().trace_id);
}

TraceContext EnsureTrace(ulm::FlatRecord& rec) {
  if (auto existing = Extract(rec.View())) return *existing;
  TraceContext ctx = TraceContext::NewRoot();
  Inject(ctx, rec);
  return ctx;
}

void StampHop(ulm::FlatRecord& rec, std::string_view hop, TimePoint ts) {
  rec.SetField(ulm::InternSymbol(std::string(field::kHopPrefix) + ToUpper(hop)),
               ts);
}

std::vector<Hop> Hops(const ulm::Record& rec) {
  std::vector<Hop> out;
  for (const auto& [key, value] : rec.fields()) {
    if (!StartsWith(key, field::kHopPrefix)) continue;
    auto ts = ParseInt(value);
    if (!ts.ok()) continue;
    out.push_back({key.substr(field::kHopPrefix.size()), *ts});
  }
  return out;
}

// --------------------------------------------------------------------- Span

Span::Span(std::string name, TraceContext ctx, Histogram* latency)
    : name_(std::move(name)),
      ctx_(ctx),
      latency_(latency),
      start_(std::chrono::steady_clock::now()) {}

std::uint64_t Span::ElapsedUs() const {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start_);
  return static_cast<std::uint64_t>(us.count());
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  if (latency_) latency_->Record(ElapsedUs());
}

}  // namespace jamm::telemetry
