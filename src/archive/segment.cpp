#include "archive/segment.hpp"

#include <array>
#include <unordered_map>

#include "common/strings.hpp"
#include "ulm/binary.hpp"

namespace jamm::archive {

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void Put32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Put64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t Get32(std::string_view data, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t Get64(std::string_view data, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[at + i]))
         << (8 * i);
  }
  return v;
}

/// Arena reserve per expected record when pre-sizing a tail chunk; typical
/// monitoring records carry a few short field values.
constexpr std::size_t kValueBytesPerRecordHint = 64;

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// The smallest possible compressed record: a 1-byte timestamp delta, four
/// 1-byte dictionary indexes, and a 1-byte zero field count. Untrusted
/// counts are sanity-capped against this before any allocation.
constexpr std::uint64_t kMinCompressedRecordBytes = 6;

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Segment::IndexView(const ulm::RecordView& view) {
  if (record_count_ == 0) {
    min_ts = max_ts = view.timestamp();
  } else {
    min_ts = std::min(min_ts, view.timestamp());
    max_ts = std::max(max_ts, view.timestamp());
  }
  if (view.event_sym() == ulm::kEmptySymbol) {
    ++unnamed_count;
  } else {
    bool counted = false;
    for (auto& [sym, count] : event_counts) {
      if (sym == view.event_sym()) {
        ++count;
        counted = true;
        break;
      }
    }
    if (!counted) event_counts.emplace_back(view.event_sym(), 1);
  }
  if (!ContainsHost(view.host_sym())) hosts.push_back(view.host_sym());
  ++record_count_;
}

ulm::FlatBatch& Segment::TailChunk() {
  if (!tail_open_ || chunks.empty()) {
    chunks.emplace_back();
    if (append_reserve != 0) {
      chunks.back().Reserve(append_reserve,
                            append_reserve * kValueBytesPerRecordHint);
    }
    tail_open_ = true;
  }
  return chunks.back();
}

void Segment::Append(const ulm::RecordView& view) {
  if (!TailChunk().Append(view)) {
    tail_open_ = false;  // tail arena full (~4 GiB): rotate chunks
    if (!TailChunk().Append(view)) return;  // single unstorable record
  }
  IndexView(view);
}

void Segment::AppendFlatFrame(ulm::FlatBatch&& batch) {
  if (batch.empty()) return;
  for (std::size_t i = 0; i < batch.size(); ++i) IndexView(batch.View(i));
  chunks.push_back(std::move(batch));
  tail_open_ = false;
}

std::string CompressPayload(const Segment& segment) {
  using ulm::detail::PutVarint;
  // Dictionary of every distinct symbol the segment uses, in first-use
  // order. Symbols are already interned process-wide, so dictionary
  // assignment is one hash-map probe on a 4-byte id per use — never a
  // string hash. The blob stores the NAMES, so it is self-contained and
  // stable across processes with different symbol numbering.
  std::unordered_map<ulm::Symbol, std::uint32_t> index;
  std::vector<ulm::Symbol> dict;
  auto dict_id = [&](ulm::Symbol sym) {
    auto [it, fresh] = index.try_emplace(
        sym, static_cast<std::uint32_t>(dict.size()));
    if (fresh) dict.push_back(sym);
    return it->second;
  };

  // One pass assigns the dictionary and encodes the record bodies; the
  // dictionary section is prepended afterwards.
  // Timestamps are zigzag deltas from the previous record; the first
  // record's delta is from 0 (i.e. absolute), which keeps the blob
  // self-contained — DecompressPayload needs no header context.
  std::string body;
  TimePoint prev_ts = 0;
  segment.ForEachView(ScanFilter{}, [&](const ulm::RecordView& view) {
    // Delta in unsigned space: wraps instead of overflowing for extreme
    // timestamp pairs, and the decoder's matching unsigned add undoes it.
    PutVarint(body, ZigZag(static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(view.timestamp()) -
                        static_cast<std::uint64_t>(prev_ts))));
    prev_ts = view.timestamp();
    PutVarint(body, dict_id(view.host_sym()));
    PutVarint(body, dict_id(view.prog_sym()));
    PutVarint(body, dict_id(view.lvl_sym()));
    PutVarint(body, dict_id(view.event_sym()));
    PutVarint(body, view.field_count());
    for (std::uint32_t i = 0; i < view.field_count(); ++i) {
      PutVarint(body, dict_id(view.field_key(i)));
      const std::string_view value = view.field_value(i);
      PutVarint(body, value.size());
      body += value;
    }
  });

  std::string blob;
  PutVarint(blob, segment.size());
  PutVarint(blob, dict.size());
  for (ulm::Symbol sym : dict) {
    const std::string_view name = ulm::SymbolName(sym);
    PutVarint(blob, name.size());
    blob += name;
  }
  blob += body;
  return blob;
}

Result<std::uint64_t> DecompressPayload(std::string_view blob,
                                        ulm::FlatBatch& out,
                                        const ScanFilter& filter) {
  using ulm::detail::GetVarint;
  auto corrupt = [](const char* what) {
    return Status::ParseError(std::string("compressed segment: ") + what);
  };
  std::size_t i = 0;
  std::uint64_t record_count = 0, dict_n = 0;
  if (!GetVarint(blob, i, record_count)) return corrupt("short record count");
  if (!GetVarint(blob, i, dict_n)) return corrupt("short dictionary count");
  // Every dictionary entry costs at least its 1-byte length prefix, so a
  // count beyond the remaining bytes is garbage — reject before reserving.
  if (dict_n > blob.size() - i) return corrupt("oversized dictionary");
  // Each entry carries the filter's verdict as a host and as an event
  // name, so the per-record test is two loads, never a glob.
  struct Entry {
    ulm::Symbol sym;
    bool host_passes;
    bool event_passes;
  };
  std::vector<Entry> dict;
  dict.reserve(static_cast<std::size_t>(dict_n));
  for (std::uint64_t d = 0; d < dict_n; ++d) {
    std::uint64_t len = 0;
    if (!GetVarint(blob, i, len)) return corrupt("short dictionary entry");
    if (len > blob.size() - i) return corrupt("dictionary entry overruns");
    const ulm::Symbol sym = ulm::InternSymbol(blob.substr(i, len));
    dict.push_back({sym, filter.PassesHost(sym), filter.PassesEvent(sym)});
    i += len;
  }
  if (record_count > (blob.size() - i) / kMinCompressedRecordBytes) {
    return corrupt("record count exceeds payload");
  }

  // Reads one dictionary index; every index of every record is checked,
  // kept or not, so the filter never changes which blobs are rejected.
  auto entry = [&](const Entry** e) {
    std::uint64_t idx = 0;
    if (!GetVarint(blob, i, idx) || idx >= dict.size()) return false;
    *e = &dict[static_cast<std::size_t>(idx)];
    return true;
  };
  ulm::FlatRecord scratch;
  std::int64_t prev_ts = 0;  // mirrors the encoder: first delta is absolute
  for (std::uint64_t r = 0; r < record_count; ++r) {
    std::uint64_t delta = 0;
    if (!GetVarint(blob, i, delta)) return corrupt("short timestamp delta");
    prev_ts = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev_ts) +
                                        static_cast<std::uint64_t>(
                                            UnZigZag(delta)));
    const Entry *host = nullptr, *prog = nullptr, *lvl = nullptr,
                *event = nullptr;
    if (!entry(&host)) return corrupt("bad host index");
    if (!entry(&prog)) return corrupt("bad prog index");
    if (!entry(&lvl)) return corrupt("bad lvl index");
    if (!entry(&event)) return corrupt("bad event index");
    std::uint64_t nfields = 0;
    if (!GetVarint(blob, i, nfields)) return corrupt("short field count");
    // A field is at least a key index, a length, and no bytes.
    if (nfields > (blob.size() - i) / 2) return corrupt("oversized fields");
    const bool keep = filter.PassesTime(prev_ts) && host->host_passes &&
                      event->event_passes;
    if (keep) {
      scratch.Clear();
      scratch.set_timestamp(prev_ts);
      scratch.set_host_sym(host->sym);
      scratch.set_prog_sym(prog->sym);
      scratch.set_lvl_sym(lvl->sym);
      scratch.set_event_sym(event->sym);
    }
    for (std::uint64_t f = 0; f < nfields; ++f) {
      const Entry* key = nullptr;
      if (!entry(&key)) return corrupt("bad field key index");
      std::uint64_t len = 0;
      if (!GetVarint(blob, i, len)) return corrupt("short field value");
      if (len > blob.size() - i) return corrupt("field value overruns");
      if (keep) scratch.AddFieldUnchecked(key->sym, blob.substr(i, len));
      i += len;
    }
    if (keep && !out.Append(scratch.View())) {
      return corrupt("batch arena overflow");
    }
  }
  if (i != blob.size()) return corrupt("trailing bytes after records");
  return record_count;
}

void Segment::Compress() {
  if (!compressed.empty() || record_count_ == 0) return;
  compressed = CompressPayload(*this);
  chunks.clear();
  tail_open_ = false;
}

std::size_t Segment::StorageBytes() const {
  if (!compressed.empty()) return compressed.size();
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.footprint_bytes();
  return total;
}

bool Segment::DecompressScratch(const ScanFilter& filter,
                                ulm::FlatBatch& scratch) const {
  const auto walked = DecompressPayload(compressed, scratch, filter);
  return walked.ok() && *walked == record_count_;
}

bool ScanFilter::Covers(const Segment& segment) const {
  if (segment.empty() || (windowed && !segment.CoversTime(t0, t1))) {
    return false;
  }
  if (host && !segment.ContainsHost(*host)) return false;
  return segment.MayContainEvent(event_glob);
}

bool Segment::MayContainEvent(const std::string& glob) const {
  if (glob.empty()) return !empty();
  for (const auto& [sym, count] : event_counts) {
    (void)count;
    if (GlobMatch(glob, ulm::SymbolName(sym))) return true;
  }
  // Globs like "*" match even the empty event name.
  return unnamed_count > 0 && GlobMatch(glob, "");
}

void AppendFileHeader(std::string& out, std::uint32_t segment_count) {
  const std::size_t start = out.size();
  Put32(out, kArchiveMagic);
  Put32(out, kArchiveVersion);
  Put32(out, segment_count);
  Put32(out, Crc32(std::string_view(out).substr(start, 12)));
}

Result<std::uint32_t> ReadFileHeader(std::string_view data) {
  if (data.size() < kFileHeaderBytes) {
    return Status::ParseError("archive: file shorter than its header");
  }
  if (Get32(data, 0) != kArchiveMagic) {
    return Status::ParseError("archive: bad file magic");
  }
  if (Get32(data, 4) != kArchiveVersion) {
    return Status::ParseError("archive: unsupported version " +
                              std::to_string(Get32(data, 4)));
  }
  if (Get32(data, 12) != Crc32(data.substr(0, 12))) {
    return Status::ParseError("archive: file header checksum mismatch");
  }
  return Get32(data, 8);
}

void AppendSegmentBlock(const Segment& segment, std::string& out) {
  // A compressed segment persists its resting blob verbatim as a SEG2
  // payload — no decompress/re-encode — which is what makes
  // save → load → save byte-stable in the compressed state too.
  std::string payload;
  if (!segment.compressed.empty()) {
    payload = segment.compressed;
  } else {
    segment.ForEachView(ScanFilter{}, [&payload](const ulm::RecordView& view) {
      view.EncodeBinary(payload);
    });
  }
  const std::size_t start = out.size();
  Put32(out, segment.compressed.empty() ? kSegmentMagic : kSegmentMagicV2);
  Put32(out, segment.tier);
  Put64(out, segment.id);
  Put64(out, segment.size());
  Put64(out, static_cast<std::uint64_t>(segment.min_ts));
  Put64(out, static_cast<std::uint64_t>(segment.max_ts));
  Put64(out, payload.size());
  Put32(out, Crc32(payload));
  Put32(out, Crc32(std::string_view(out).substr(start, 52)));
  out += payload;
}

BlockOutcome ReadSegmentBlock(std::string_view data, std::size_t* offset,
                              Segment* out) {
  const std::size_t at = *offset;
  if (data.size() - at < kSegmentHeaderBytes) return BlockOutcome::kTruncated;
  if (Get32(data, at + 52) != Crc32(data.substr(at, 52))) {
    // The header (and with it payload_len) is untrustworthy — there is no
    // reliable way to find the next block, so the rest of the file is lost.
    return BlockOutcome::kTruncated;
  }
  // Header integrity is now checksum-backed; magic is a sanity re-check.
  const std::uint32_t magic = Get32(data, at);
  if (magic != kSegmentMagic && magic != kSegmentMagicV2) {
    return BlockOutcome::kTruncated;
  }
  const std::uint64_t payload_len = Get64(data, at + 40);
  if (payload_len > data.size() - at - kSegmentHeaderBytes) {
    return BlockOutcome::kTruncated;  // promised bytes never made it to disk
  }
  const std::string_view payload =
      data.substr(at + kSegmentHeaderBytes, payload_len);
  *offset = at + kSegmentHeaderBytes + payload_len;  // resynchronized
  if (Get32(data, at + 48) != Crc32(payload)) return BlockOutcome::kSkipped;
  // Decode straight into one flat chunk — no per-record Record
  // materialization on the load path. SEG2 runs the hardened compressed
  // decoder instead of the binary-ULM stream decoder; either way a decode
  // failure or a record-count mismatch skips just this block.
  ulm::FlatBatch batch;
  std::uint64_t walked = 0;
  if (magic == kSegmentMagicV2) {
    const auto decoded = DecompressPayload(payload, batch, ScanFilter{});
    if (!decoded.ok()) return BlockOutcome::kSkipped;
    walked = *decoded;
  } else if (batch.DecodeBinaryStreamInto(payload).ok()) {
    walked = batch.size();
  } else {
    return BlockOutcome::kSkipped;
  }
  if (walked != Get64(data, at + 16)) return BlockOutcome::kSkipped;
  Segment segment;
  segment.id = Get64(data, at + 8);
  segment.tier = Get32(data, at + 4);
  segment.AppendFlatFrame(std::move(batch));
  // The header's time bounds must agree with the payload's; a mismatch
  // means header and payload are from different writes.
  if (!segment.empty() &&
      (segment.min_ts != static_cast<TimePoint>(Get64(data, at + 24)) ||
       segment.max_ts != static_cast<TimePoint>(Get64(data, at + 32)))) {
    return BlockOutcome::kSkipped;
  }
  if (magic == kSegmentMagicV2) {
    // Validated: return the segment to its compressed resting state,
    // keeping the payload bytes verbatim (indexes/min/max were just built
    // from the decoded records above).
    segment.compressed.assign(payload.data(), payload.size());
    segment.chunks.clear();
    segment.chunks.shrink_to_fit();
  }
  *out = std::move(segment);
  return BlockOutcome::kLoaded;
}

}  // namespace jamm::archive
