// Binary ULM codec — the paper (§3) plans "a binary format option for high
// throughput event data that can not tolerate the parsing overhead of ASCII
// formats". Layout (little-endian):
//
//   magic   u16   0x554C ("UL")
//   version u8    1
//   ts      i64   microseconds since epoch
//   nfields varint  number of (key,value) pairs INCLUDING the required
//                   HOST/PROG/LVL/NL.EVNT carried as pairs 0..3
//   pairs   (varint len + bytes) * 2 per field
//
// Encoded records are self-delimiting, so streams concatenate directly.
// The encoder is RecordView::EncodeBinary and the decoder
// FlatBatch::DecodeBinaryStreamInto (ulm/flat.hpp); this header holds the
// wire primitives they share with the archive's SEG2 segments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace jamm::ulm {

namespace detail {
/// Wire primitives. GetStringView returns a view into `data` — valid only
/// while the buffer lives.
void PutVarint(std::string& out, std::uint64_t v);
/// Inline with a one-byte fast path: most varints on the wire and in SEG2
/// blobs (dictionary indexes, field counts, short lengths) are < 0x80.
inline bool GetVarint(std::string_view data, std::size_t& i,
                      std::uint64_t& v) {
  if (i < data.size() && !(static_cast<std::uint8_t>(data[i]) & 0x80)) {
    v = static_cast<std::uint8_t>(data[i++]);
    return true;
  }
  v = 0;
  int shift = 0;
  while (i < data.size() && shift < 64) {
    const std::uint8_t byte = static_cast<std::uint8_t>(data[i++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return true;
    shift += 7;
  }
  return false;
}
void PutString(std::string& out, std::string_view s);
bool GetStringView(std::string_view data, std::size_t& i, std::string_view& s);
}  // namespace detail

}  // namespace jamm::ulm
