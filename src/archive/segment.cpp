#include "archive/segment.hpp"

#include <array>
#include <limits>
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

Status Corrupt(const char* what) {
  return Status::ParseError(std::string("compressed segment: ") + what);
}

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

std::string CompressPayload(const Segment& segment, BlockIndex* index) {
  using ulm::detail::PutVarint;
  // Dictionary of every distinct symbol the segment uses, in first-use
  // order. Symbols are already interned process-wide, so dictionary
  // assignment is one hash-map probe on a 4-byte id per use — never a
  // string hash. The blob stores the NAMES, so it is self-contained and
  // stable across processes with different symbol numbering.
  std::unordered_map<ulm::Symbol, std::uint32_t> ids;
  std::vector<ulm::Symbol> dict;
  auto dict_id = [&](ulm::Symbol sym) {
    auto [it, fresh] =
        ids.try_emplace(sym, static_cast<std::uint32_t>(dict.size()));
    if (fresh) dict.push_back(sym);
    return it->second;
  };

  // One pass assigns the dictionary, encodes the record bodies, and
  // builds the block index (offsets relative to the body until the
  // dictionary section is prepended afterwards).
  // Timestamps are zigzag deltas from the previous record; the first
  // record's delta is from 0 (i.e. absolute), which keeps the blob
  // self-contained — DecompressPayload needs no header context.
  BlockIndex built;
  built.Reserve(segment.size());
  std::string body;
  TimePoint prev_ts = 0;
  std::uint64_t record = 0;
  segment.ForEachView(ScanFilter{}, [&](const ulm::RecordView& view) {
    const std::uint32_t host = dict_id(view.host_sym());
    built.Add(record++, body.size(), prev_ts, view.timestamp(), host);
    // Delta in unsigned space: wraps instead of overflowing for extreme
    // timestamp pairs, and the decoder's matching unsigned add undoes it.
    PutVarint(body, ZigZag(static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(view.timestamp()) -
                        static_cast<std::uint64_t>(prev_ts))));
    prev_ts = view.timestamp();
    PutVarint(body, host);
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
  if (index) {
    for (auto& block : built.blocks) block.offset += blob.size();
    dict.shrink_to_fit();
    built.dict = std::move(dict);
    *index = std::move(built);
  }
  blob += body;
  return blob;
}

namespace {

/// A ScanFilter resolved against one blob dictionary. Time and host are
/// compares; an event glob is matched the first time the scan meets a
/// dictionary entry as an event name, and the verdict cached.
class DictMatcher {
 public:
  DictMatcher(const ScanFilter& filter, std::size_t dict_n) : filter_(filter) {
    if (!filter.event_glob.empty()) verdicts_.assign(dict_n, kUnknown);
  }

  bool Passes(TimePoint ts, ulm::Symbol host, std::size_t event,
              ulm::Symbol event_sym) {
    if (!filter_.PassesTime(ts) || !filter_.PassesHost(host)) return false;
    if (verdicts_.empty()) return true;
    std::uint8_t& verdict = verdicts_[event];
    if (verdict == kUnknown) {
      verdict = filter_.PassesEvent(event_sym) ? kPass : kFail;
    }
    return verdict == kPass;
  }

 private:
  static constexpr std::uint8_t kUnknown = 0, kPass = 1, kFail = 2;
  const ScanFilter& filter_;
  std::vector<std::uint8_t> verdicts_;
};

/// The one compressed-record decoder: walks `count` records of `blob`
/// from byte `i`, whose first timestamp delta is from `prev_ts`. Every
/// dictionary index is checked against `dict` and every length against
/// the blob, kept or not, so the filter never changes which blobs are
/// rejected. Records `match` passes go to `sink` as views into the blob
/// (values borrowed in place, fields described on the stack); `index`,
/// when given, is fed every record (a walk from the blob's first record).
/// Advances `i` past the records walked.
Status DecodeRecords(std::string_view blob, std::size_t& i, TimePoint prev_ts,
                     std::uint64_t count, const std::vector<ulm::Symbol>& dict,
                     DictMatcher& match, RecordSink sink, BlockIndex* index) {
  using ulm::detail::GetVarint;
  auto entry = [&](std::uint64_t* idx) {
    return GetVarint(blob, i, *idx) && *idx < dict.size();
  };
  // Field descriptors of the kept record, offsets relative to its first
  // byte. Monitoring records carry a handful of fields; a record with
  // more spills to the heap.
  constexpr std::size_t kInlineFields = 16;
  ulm::FlatField inline_fields[kInlineFields];
  std::vector<ulm::FlatField> spilled;
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t start = i;
    const TimePoint base_ts = prev_ts;
    std::uint64_t delta = 0;
    if (!GetVarint(blob, i, delta)) return Corrupt("short timestamp delta");
    prev_ts = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev_ts) +
                                        static_cast<std::uint64_t>(
                                            UnZigZag(delta)));
    std::uint64_t host = 0, prog = 0, lvl = 0, event = 0;
    if (!entry(&host)) return Corrupt("bad host index");
    if (!entry(&prog)) return Corrupt("bad prog index");
    if (!entry(&lvl)) return Corrupt("bad lvl index");
    if (!entry(&event)) return Corrupt("bad event index");
    std::uint64_t nfields = 0;
    if (!GetVarint(blob, i, nfields)) return Corrupt("short field count");
    // A field is at least a key index, a length, and no bytes.
    if (nfields > (blob.size() - i) / 2) return Corrupt("oversized fields");
    const bool keep = match.Passes(prev_ts, dict[host], event, dict[event]);
    ulm::FlatField* fields = inline_fields;
    if (keep && nfields > kInlineFields) {
      spilled.resize(static_cast<std::size_t>(nfields));
      fields = spilled.data();
    }
    for (std::uint64_t f = 0; f < nfields; ++f) {
      std::uint64_t key = 0;
      if (!entry(&key)) return Corrupt("bad field key index");
      std::uint64_t len = 0;
      if (!GetVarint(blob, i, len)) return Corrupt("short field value");
      if (len > blob.size() - i) return Corrupt("field value overruns");
      if (keep) {
        fields[f] = {dict[key], static_cast<std::uint32_t>(i - start),
                     static_cast<std::uint32_t>(len)};
      }
      i += len;
    }
    if (keep) {
      // A view's offsets and field count are 32-bit, as in a FlatBatch.
      if (i - start > std::numeric_limits<std::uint32_t>::max() ||
          !sink(ulm::RecordView(prev_ts, dict[host], dict[prog], dict[lvl],
                                dict[event], blob.data() + start, fields,
                                static_cast<std::uint32_t>(nfields)))) {
        return Corrupt("batch arena overflow");
      }
    }
    if (index) index->Add(r, start, base_ts, prev_ts, host);
  }
  return Status::Ok();
}

}  // namespace

Result<std::uint64_t> DecompressPayload(std::string_view blob,
                                        ulm::FlatBatch& out,
                                        const ScanFilter& filter,
                                        BlockIndex* index) {
  using ulm::detail::GetVarint;
  std::size_t i = 0;
  std::uint64_t record_count = 0, dict_n = 0;
  if (!GetVarint(blob, i, record_count)) return Corrupt("short record count");
  if (!GetVarint(blob, i, dict_n)) return Corrupt("short dictionary count");
  // Every dictionary entry costs at least its 1-byte length prefix, so a
  // count beyond the remaining bytes is garbage — reject before reserving.
  if (dict_n > blob.size() - i) return Corrupt("oversized dictionary");
  std::vector<ulm::Symbol> dict;
  dict.reserve(static_cast<std::size_t>(dict_n));
  for (std::uint64_t d = 0; d < dict_n; ++d) {
    std::uint64_t len = 0;
    if (!GetVarint(blob, i, len)) return Corrupt("short dictionary entry");
    if (len > blob.size() - i) return Corrupt("dictionary entry overruns");
    dict.push_back(ulm::InternSymbol(blob.substr(i, len)));
    i += len;
  }
  if (record_count > (blob.size() - i) / kMinCompressedRecordBytes) {
    return Corrupt("record count exceeds payload");
  }
  if (index) {
    *index = {};
    index->Reserve(record_count);
  }
  DictMatcher match(filter, dict.size());
  auto append = [&out](const ulm::RecordView& view) {
    return out.Append(view);
  };
  // Mirrors the encoder: the first delta is absolute.
  JAMM_RETURN_IF_ERROR(DecodeRecords(blob, i, 0, record_count, dict, match,
                                     RecordSink(append), index));
  if (i != blob.size()) return Corrupt("trailing bytes after records");
  if (index) index->dict = std::move(dict);
  return record_count;
}

void Segment::ScanBlocks(const ScanFilter& filter, RecordSink sink) const {
  const BlockIndex& index = block_index_;
  // The mask bits of every dictionary entry naming the filter's host; a
  // host absent from the dictionary leaves none set and every block
  // skipped.
  BlockIndex::HostMask host_bits;
  host_bits.fill(~std::uint64_t{0});
  if (filter.host) {
    host_bits.fill(0);
    for (std::size_t d = 0; d < index.dict.size(); ++d) {
      if (index.dict[d] == *filter.host) BlockIndex::SetHostBit(host_bits, d);
    }
  }
  DictMatcher match(filter, index.dict.size());
  for (std::size_t b = 0; b < index.blocks.size(); ++b) {
    const BlockIndex::Block& block = index.blocks[b];
    std::uint64_t admitted = 0;
    for (std::size_t w = 0; w < host_bits.size(); ++w) {
      admitted |= block.host_mask[w] & host_bits[w];
    }
    if (admitted == 0) continue;
    if (filter.windowed &&
        (block.max_ts < filter.t0 || block.min_ts >= filter.t1)) {
      continue;
    }
    const std::size_t first = b * BlockIndex::kBlockRecords;
    std::size_t i = static_cast<std::size_t>(block.offset);
    (void)DecodeRecords(compressed, i, block.base_ts,
                        std::min(BlockIndex::kBlockRecords, size() - first),
                        index.dict, match, sink, nullptr);
  }
}

void Segment::Compress() {
  if (!compressed.empty() || record_count_ == 0) return;
  compressed = CompressPayload(*this, &block_index_);
  chunks.clear();
  tail_open_ = false;
}

std::size_t Segment::StorageBytes() const {
  if (!compressed.empty()) return compressed.size();
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.footprint_bytes();
  return total;
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
  Put32(out, 0);  // reserved
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
  BlockIndex index;
  std::uint64_t walked = 0;
  if (magic == kSegmentMagicV2) {
    const auto decoded =
        DecompressPayload(payload, batch, ScanFilter{}, &index);
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
    // from the decoded records above, the block index by the decode).
    segment.compressed.assign(payload.data(), payload.size());
    segment.block_index_ = std::move(index);
    segment.chunks.clear();
    segment.chunks.shrink_to_fit();
  }
  *out = std::move(segment);
  return BlockOutcome::kLoaded;
}

}  // namespace jamm::archive
