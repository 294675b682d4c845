#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <new>

// --------------------------------------------------------- allocation hook
//
// Every operator new variant funnels through CountedAlloc, which bumps a
// thread-local counter. Spans read the counter at open and close, so an
// allocation is attributed to the innermost span open on its thread.

namespace {

thread_local std::uint64_t tl_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++tl_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++tl_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t ThreadAllocs() { return tl_allocs; }

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kSpanNames] = {
      "driver.wave",       "driver.perturb",    "manager.tick",
      "service.poll",      "federation.pump.t0", "federation.pump.t1",
      "federation.pump.root", "archiver.pump",  "consumer.drain",
      "archive.ingested",      "rpc.poll",          "rpc.poll.idle",
      "query.range",       "query.events",      "query.host",
      "query.lifeline",    "query.loadline",    "query.point",
      "query.agg"};
  return kNames[static_cast<std::size_t>(name)];
}

// ------------------------------------------------------------------ tracer

namespace {
constexpr std::size_t kMaxDurations = 1 << 18;
constexpr std::size_t kMaxRawOutsideWaves = 4096;
std::mutex g_register_mu;
}  // namespace

struct Tracer::ThreadState {
  struct Frame {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t alloc_start;
    std::uint64_t child_allocs;
    std::int32_t raw;
  };
  std::uint32_t id = 0;
  std::int64_t wave = -1;
  std::size_t raw_outside_waves = 0;
  std::vector<Frame> frames;
  std::vector<SpanRecord> raw;
  std::array<SpanAggregate, kSpanNames> agg;
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadState& Tracer::Local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    state = new ThreadState();  // lives for the process
    state->frames.reserve(64);
    state->raw.reserve(1 << 16);
    std::lock_guard lock(g_register_mu);
    state->id = next_thread_++;
    threads_.push_back(state);
  }
  return *state;
}

void Tracer::Reset() {
  std::lock_guard lock(g_register_mu);
  for (ThreadState* t : threads_) {
    t->raw.clear();
    t->raw_outside_waves = 0;
    for (auto& a : t->agg) a = SpanAggregate{};
    t->wave = -1;
  }
}

void Tracer::set_wave(std::int64_t wave) {
  if (enabled()) Local().wave = wave;
}

std::array<SpanAggregate, kSpanNames> Tracer::Aggregates() const {
  std::array<SpanAggregate, kSpanNames> out;
  std::lock_guard lock(g_register_mu);
  for (const ThreadState* t : threads_) {
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      const SpanAggregate& a = t->agg[i];
      out[i].count += a.count;
      out[i].total_ns += a.total_ns;
      out[i].self_ns += a.self_ns;
      out[i].self_allocs += a.self_allocs;
      out[i].durations_us.insert(out[i].durations_us.end(),
                                 a.durations_us.begin(), a.durations_us.end());
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::RawSpans() const {
  std::vector<SpanRecord> out;
  std::lock_guard lock(g_register_mu);
  for (const ThreadState* t : threads_) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (SpanRecord r : t->raw) {
      if (r.parent >= 0) r.parent += base;
      out.push_back(r);
    }
  }
  return out;
}

double Tracer::MedianWaveCoverage() const {
  const auto raw = RawSpans();
  std::vector<std::int64_t> child(raw.size(), 0);
  for (const auto& r : raw) {
    if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] +=
        r.end_ns - r.start_ns;
  }
  std::vector<double> coverage;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].name != SpanName::kWave) continue;
    const std::int64_t dur = raw[i].end_ns - raw[i].start_ns;
    if (dur > 0) coverage.push_back(static_cast<double>(child[i]) / dur);
  }
  if (coverage.empty()) return 0;
  std::sort(coverage.begin(), coverage.end());
  return coverage[coverage.size() / 2];
}

ScopedSpan::ScopedSpan(SpanName name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  auto& t = tracer.Local();
  std::int32_t raw = -1;
  const bool in_wave = t.wave >= 0 && t.wave < tracer.raw_wave_limit_;
  const bool outside = t.wave < 0 && t.raw_outside_waves < kMaxRawOutsideWaves;
  if (in_wave || outside) {
    if (outside) ++t.raw_outside_waves;
    raw = static_cast<std::int32_t>(t.raw.size());
    SpanRecord rec;
    rec.wave = t.wave;
    rec.parent = t.frames.empty() ? -1 : t.frames.back().raw;
    rec.name = name;
    rec.thread = t.id;
    t.raw.push_back(rec);
  }
  const std::int64_t now = NowNs();
  if (raw >= 0) t.raw[static_cast<std::size_t>(raw)].start_ns = now;
  t.frames.push_back({name, now, 0, ThreadAllocs(), 0, raw});
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t end = NowNs();
  const std::uint64_t allocs_now = ThreadAllocs();
  auto& t = Tracer::Get().Local();
  const auto frame = t.frames.back();
  t.frames.pop_back();
  const std::int64_t dur = end - frame.start_ns;
  const std::uint64_t allocs = allocs_now - frame.alloc_start;
  SpanAggregate& a = t.agg[static_cast<std::size_t>(name_)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - frame.child_ns;
  a.self_allocs += allocs - frame.child_allocs;
  if (a.durations_us.size() < kMaxDurations) {
    a.durations_us.push_back(static_cast<float>(dur) / 1000.0f);
  }
  if (frame.raw >= 0) {
    SpanRecord& rec = t.raw[static_cast<std::size_t>(frame.raw)];
    rec.end_ns = end;
    rec.allocs = allocs;
    rec.name = name_;
  }
  if (!t.frames.empty()) {
    t.frames.back().child_ns += dur;
    t.frames.back().child_allocs += allocs;
  }
}

// --------------------------------------------------------- counting channel

namespace {
std::uint64_t FramedBytes(const jamm::transport::Message& msg) {
  return 8 + msg.type.size() + msg.payload.size();
}
}  // namespace

void CountingChannel::CountSent(const jamm::transport::Message& msg) {
  counters_.sent_msgs.fetch_add(1, std::memory_order_relaxed);
  counters_.sent_bytes.fetch_add(FramedBytes(msg), std::memory_order_relaxed);
}

void CountingChannel::CountReceived(const jamm::transport::Message& msg) {
  counters_.recv_msgs.fetch_add(1, std::memory_order_relaxed);
  counters_.recv_bytes.fetch_add(FramedBytes(msg), std::memory_order_relaxed);
}

jamm::Status CountingChannel::Send(const jamm::transport::Message& msg) {
  jamm::Status status = inner_->Send(msg);
  if (status.ok()) CountSent(msg);
  return status;
}

jamm::Result<bool> CountingChannel::TrySend(
    const jamm::transport::Message& msg) {
  auto sent = inner_->TrySend(msg);
  if (sent.ok() && *sent) CountSent(msg);
  return sent;
}

jamm::Result<jamm::transport::Message> CountingChannel::Receive(
    jamm::Duration timeout) {
  auto msg = inner_->Receive(timeout);
  if (msg.ok()) CountReceived(*msg);
  return msg;
}

std::optional<jamm::transport::Message> CountingChannel::TryReceive() {
  auto msg = inner_->TryReceive();
  if (msg) CountReceived(*msg);
  return msg;
}

// ------------------------------------------------------------ process stats

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CalibrateNsPerOp() {
  // A dependent random walk over 1 MiB: memory-latency bound like the
  // pipeline, small enough not to evict a co-tenant's cache wholesale.
  constexpr std::size_t kSlots = (1 << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kOps = 8'000'000;
  std::vector<std::uint32_t> next(kSlots);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kSlots; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    next[i] = static_cast<std::uint32_t>(x % kSlots);
  }
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint32_t at = 0;
    std::uint64_t sum = 0;
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < kOps; ++i) {
      at = next[at] ^ static_cast<std::uint32_t>(i & 1023);
      at %= kSlots;
      sum += at;
    }
    const std::int64_t t1 = NowNs();
    if (sum == 42) runs.push_back(0);  // keep the loop observable
    runs.push_back(static_cast<double>(t1 - t0) / kOps);
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace perfbench
