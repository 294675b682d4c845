#include "ulm/binary.hpp"

namespace jamm::ulm {
namespace detail {

void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutString(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s);
}

bool GetStringView(std::string_view data, std::size_t& i,
                   std::string_view& s) {
  std::uint64_t len;
  if (!GetVarint(data, i, len)) return false;
  // NOT `i + len > data.size()`: a hostile varint length near SIZE_MAX
  // would wrap i + len to a small value, pass the check, and then wrap
  // `i += len` back into already-consumed input — on a stream decode that
  // is an infinite loop re-reading the same bytes. GetVarint leaves
  // i <= data.size(), so the subtraction cannot underflow.
  if (len > data.size() - i) return false;
  s = data.substr(i, static_cast<std::size_t>(len));
  i += static_cast<std::size_t>(len);
  return true;
}

}  // namespace detail

namespace {

constexpr std::uint16_t kMagic = 0x554C;
constexpr std::uint8_t kVersion = 1;

using detail::GetStringView;
using detail::GetVarint;
using detail::PutString;
using detail::PutVarint;

bool GetString(std::string_view data, std::size_t& i, std::string& s) {
  std::string_view v;
  if (!GetStringView(data, i, v)) return false;
  s.assign(v);
  return true;
}

}  // namespace

void EncodeBinary(const Record& rec, std::string& out) {
  out.push_back(static_cast<char>(kMagic & 0xFF));
  out.push_back(static_cast<char>(kMagic >> 8));
  out.push_back(static_cast<char>(kVersion));
  const std::uint64_t ts = static_cast<std::uint64_t>(rec.timestamp());
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((ts >> (8 * b)) & 0xFF));
  PutVarint(out, 4 + rec.fields().size());
  PutString(out, field::kHost);
  PutString(out, rec.host());
  PutString(out, field::kProg);
  PutString(out, rec.prog());
  PutString(out, field::kLevel);
  PutString(out, rec.lvl());
  PutString(out, field::kEvent);
  PutString(out, rec.event_name());
  for (const auto& [k, v] : rec.fields()) {
    PutString(out, k);
    PutString(out, v);
  }
}

std::string EncodeBinary(const Record& rec) {
  std::string out;
  EncodeBinary(rec, out);
  return out;
}

Result<Record> DecodeBinary(std::string_view data, std::size_t* offset) {
  std::size_t i = *offset;
  // Overflow-safe form of `i + 11 > data.size()`: a caller-supplied
  // offset near SIZE_MAX must not wrap past the bound.
  if (i > data.size() || data.size() - i < 11) {
    return Status::ParseError("binary ULM: truncated header");
  }
  const std::uint16_t magic = static_cast<std::uint8_t>(data[i]) |
                              (static_cast<std::uint8_t>(data[i + 1]) << 8);
  if (magic != kMagic) return Status::ParseError("binary ULM: bad magic");
  const std::uint8_t version = static_cast<std::uint8_t>(data[i + 2]);
  if (version != kVersion) {
    return Status::ParseError("binary ULM: unsupported version " +
                              std::to_string(version));
  }
  i += 3;
  std::uint64_t ts = 0;
  for (int b = 0; b < 8; ++b) {
    ts |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[i + b]))
          << (8 * b);
  }
  i += 8;
  std::uint64_t nfields;
  if (!GetVarint(data, i, nfields)) {
    return Status::ParseError("binary ULM: truncated field count");
  }
  if (nfields < 4) {
    return Status::ParseError("binary ULM: record missing required fields");
  }
  Record rec;
  rec.set_timestamp(static_cast<TimePoint>(ts));
  std::string key, value;
  for (std::uint64_t f = 0; f < nfields; ++f) {
    if (!GetString(data, i, key) || !GetString(data, i, value)) {
      return Status::ParseError("binary ULM: truncated field " +
                                std::to_string(f));
    }
    // Fast path: route required names directly, append the rest without
    // the duplicate scan SetField performs (the encoder never emits
    // duplicates).
    if (key == field::kHost) {
      rec.set_host(std::move(value));
    } else if (key == field::kProg) {
      rec.set_prog(std::move(value));
    } else if (key == field::kLevel) {
      rec.set_lvl(std::move(value));
    } else if (key == field::kEvent) {
      rec.set_event_name(std::move(value));
    } else {
      rec.AppendFieldUnchecked(std::move(key), std::move(value));
    }
  }
  *offset = i;
  return rec;
}

Result<std::vector<Record>> DecodeBinaryStream(std::string_view data) {
  std::vector<Record> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto rec = DecodeBinary(data, &offset);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace jamm::ulm
