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

}  // namespace jamm::ulm
