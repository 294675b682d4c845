// Reference ULM codecs over the string-keyed ulm::Record: an ASCII writer
// and parser, a whole-log parser, a binary encoder and decoders, and an
// XML writer. These are the Record codecs the library used to ship,
// kept verbatim (bar setters in place of member access) as the parity
// oracle for the flat codecs in ulm/flat.hpp: tests run both over the
// same records and bytes and require the same accept/reject verdict and
// byte-identical output. The pipeline benches time the Record encode
// with them as their legacy baseline. Nothing in src/ uses this header.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/time_util.hpp"
#include "ulm/binary.hpp"
#include "ulm/record.hpp"

namespace jamm::ulm::reference {

namespace internal {

inline bool NeedsQuoting(std::string_view value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (c == ' ' || c == '\t' || c == '"' || c == '\n' || c == '\\') return true;
  }
  return false;
}

inline void AppendValue(std::string& out, std::string_view value) {
  if (!NeedsQuoting(value)) {
    out += value;
    return;
  }
  out += '"';
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

inline void AppendUlmPair(std::string& out, std::string_view key,
                          std::string_view value) {
  if (!out.empty()) out += ' ';
  out += key;
  out += '=';
  AppendValue(out, value);
}

// Scans one field=value token starting at `i`; advances `i` past it.
inline Status ScanPair(std::string_view line, std::size_t& i,
                       std::string& key, std::string& value) {
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size()) return Status::NotFound("end of line");
  const std::size_t key_start = i;
  while (i < line.size() && line[i] != '=' && line[i] != ' ' &&
         line[i] != '\t') {
    ++i;
  }
  if (i >= line.size() || line[i] != '=') {
    return Status::ParseError("expected '=' after field name near offset " +
                              std::to_string(key_start));
  }
  key.assign(line.substr(key_start, i - key_start));
  if (key.empty()) return Status::ParseError("empty field name");
  ++i;  // consume '='
  value.clear();
  if (i < line.size() && line[i] == '"') {
    ++i;
    bool closed = false;
    while (i < line.size()) {
      char c = line[i++];
      if (c == '\\' && i < line.size()) {
        char esc = line[i++];
        switch (esc) {
          case 'n': value += '\n'; break;
          case '"': value += '"'; break;
          case '\\': value += '\\'; break;
          default: value += esc;
        }
      } else if (c == '"') {
        closed = true;
        break;
      } else {
        value += c;
      }
    }
    if (!closed) return Status::ParseError("unterminated quoted value");
  } else {
    const std::size_t value_start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    value.assign(line.substr(value_start, i - value_start));
  }
  return Status::Ok();
}

inline std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

inline bool GetString(std::string_view data, std::size_t& i, std::string& s) {
  std::string_view v;
  if (!detail::GetStringView(data, i, v)) return false;
  s.assign(v);
  return true;
}

inline constexpr std::uint16_t kMagic = 0x554C;
inline constexpr std::uint8_t kVersion = 1;

}  // namespace internal

// ------------------------------------------------------------------ ASCII

/// Single-line ASCII ULM form, required fields first. Values containing
/// whitespace or '"' are double-quoted with backslash escapes.
inline std::string ToAscii(const Record& rec) {
  using internal::AppendUlmPair;
  std::string out;
  AppendUlmPair(out, field::kDate, FormatUlmDate(rec.timestamp()));
  AppendUlmPair(out, field::kHost, rec.host());
  AppendUlmPair(out, field::kProg, rec.prog());
  AppendUlmPair(out, field::kLevel, rec.lvl());
  if (!rec.event_name().empty()) {
    AppendUlmPair(out, field::kEvent, rec.event_name());
  }
  for (const auto& [k, v] : rec.fields()) AppendUlmPair(out, k, v);
  return out;
}

/// Parse one ASCII ULM line. Missing DATE/HOST/PROG/LVL is a ParseError.
inline Result<Record> FromAscii(std::string_view line) {
  Record rec;
  bool saw_date = false, saw_host = false, saw_prog = false, saw_lvl = false;
  std::size_t i = 0;
  std::string key, value;
  while (true) {
    Status s = internal::ScanPair(line, i, key, value);
    if (s.code() == StatusCode::kNotFound) break;  // clean end of line
    if (!s.ok()) return s;
    if (key == field::kDate) {
      auto t = ParseUlmDate(value);
      if (!t.ok()) return t.status();
      rec.set_timestamp(*t);
      saw_date = true;
    } else if (key == field::kHost) {
      rec.set_host(value);
      saw_host = true;
    } else if (key == field::kProg) {
      rec.set_prog(value);
      saw_prog = true;
    } else if (key == field::kLevel) {
      rec.set_lvl(value);
      saw_lvl = true;
    } else if (key == field::kEvent) {
      rec.set_event_name(value);
    } else {
      rec.AppendFieldUnchecked(key, value);
    }
  }
  if (!saw_date || !saw_host || !saw_prog || !saw_lvl) {
    return Status::ParseError(
        "ULM record missing required field(s) in: " + std::string(line));
  }
  return rec;
}

/// Parse a whole log (one record per line; blank lines skipped). Returns
/// records parsed so far plus the first error, if any, via `error`.
inline std::vector<Record> ParseLog(std::string_view text,
                                    Status* error = nullptr) {
  std::vector<Record> out;
  if (error) *error = Status::Ok();
  for (const auto& line : Split(text, '\n')) {
    std::string_view trimmed = TrimView(line);
    if (trimmed.empty()) continue;
    auto rec = FromAscii(trimmed);
    if (!rec.ok()) {
      if (error && error->ok()) *error = rec.status();
      continue;
    }
    out.push_back(std::move(*rec));
  }
  return out;
}

// ----------------------------------------------------------------- binary

/// Append the binary encoding of `rec` to `out`.
inline void EncodeBinary(const Record& rec, std::string& out) {
  using detail::PutString;
  using detail::PutVarint;
  using internal::kMagic;
  using internal::kVersion;
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

inline std::string EncodeBinary(const Record& rec) {
  std::string out;
  EncodeBinary(rec, out);
  return out;
}

/// Decode one record starting at *offset; advances *offset past it.
inline Result<Record> DecodeBinary(std::string_view data, std::size_t* offset) {
  using detail::GetVarint;
  using internal::GetString;
  using internal::kMagic;
  using internal::kVersion;
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

/// Decode a whole concatenated stream.
inline Result<std::vector<Record>> DecodeBinaryStream(std::string_view data) {
  std::vector<Record> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto rec = DecodeBinary(data, &offset);
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(*rec));
  }
  return out;
}

// -------------------------------------------------------------------- XML

/// One <event> element:
///   <event date="..." host="..." prog="..." lvl="..." name="...">
///     <field name="SEND.SZ">49332</field>
///   </event>
inline std::string ToXml(const Record& rec) {
  using internal::XmlEscape;
  std::string out = "<event date=\"" + FormatUlmDate(rec.timestamp()) +
                    "\" host=\"" + XmlEscape(rec.host()) + "\" prog=\"" +
                    XmlEscape(rec.prog()) + "\" lvl=\"" + XmlEscape(rec.lvl()) +
                    "\"";
  if (!rec.event_name().empty()) {
    out += " name=\"" + XmlEscape(rec.event_name()) + "\"";
  }
  if (rec.fields().empty()) {
    out += "/>";
    return out;
  }
  out += ">";
  for (const auto& [k, v] : rec.fields()) {
    out += "<field name=\"" + XmlEscape(k) + "\">" + XmlEscape(v) + "</field>";
  }
  out += "</event>";
  return out;
}

}  // namespace jamm::ulm::reference
