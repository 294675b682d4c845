#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <optional>

namespace jamm {

namespace {

/// Every power of ten up to 10^22 is exactly a double.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};

/// Plain decimal text -- an optional '-', digits, and optionally '.' and
/// more digits -- with at most 15 significant digits and 22 fraction
/// digits, as m / 10^k. Both m (< 10^15 < 2^53) and 10^k are exact
/// doubles and the division rounds once, so the result is the correctly
/// rounded value strtod returns. nullopt for any other text.
std::optional<double> ParsePlainDecimal(std::string_view text) {
  const bool negative = text.front() == '-';
  std::uint64_t m = 0;
  int significant = 0;
  std::size_t int_digits = 0, frac_digits = 0;
  bool point = false;
  for (std::size_t i = negative ? 1 : 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '.' && !point) {
      point = true;
      continue;
    }
    if (c < '0' || c > '9') return std::nullopt;
    ++(point ? frac_digits : int_digits);
    if ((m != 0 || c != '0') && ++significant > 15) return std::nullopt;
    m = m * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (int_digits == 0 || (point && frac_digits == 0) ||
      frac_digits >= std::size(kExactPow10)) {
    return std::nullopt;
  }
  const double value = static_cast<double>(m) / kExactPow10[frac_digits];
  return negative ? -value : value;
}

}  // namespace

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> SplitN(std::string_view text, char sep,
                                std::size_t max_fields) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (out.size() + 1 < max_fields) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) break;
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  out.emplace_back(text.substr(start));
  return out;
}

std::string_view TrimView(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string Trim(std::string_view text) { return std::string(TrimView(text)); }

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<std::int64_t> ParseInt(std::string_view text) {
  text = TrimView(text);
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::ParseError("not an integer: '" + std::string(text) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  text = TrimView(text);
  if (text.empty()) return Status::ParseError("empty number");
  if (const auto plain = ParsePlainDecimal(text)) return *plain;
  // Everything else (exponents, "inf", "nan", hex, a leading '+', more
  // digits) goes to strtod, which needs a terminated copy.
  std::string buf(text);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("not a number: '" + std::string(text) + "'");
  }
  return value;
}

bool GlobMatch(std::string_view pattern, std::string_view text) {
  // Iterative wildcard match with backtracking on the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace jamm
