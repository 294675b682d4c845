#include "ulm/flat.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/strings.hpp"
#include "common/time_util.hpp"
#include "ulm/binary.hpp"

namespace jamm::ulm {
namespace {

// Interned ids of the required field names, resolved once per process.
// SetField/GetField route these to the dedicated members exactly like
// Record does for the string spellings.
struct CoreSyms {
  Symbol date = InternSymbol(field::kDate);
  Symbol host = InternSymbol(field::kHost);
  Symbol prog = InternSymbol(field::kProg);
  Symbol lvl = InternSymbol(field::kLevel);
  Symbol event = InternSymbol(field::kEvent);
};

const CoreSyms& Core() {
  static const CoreSyms core;
  return core;
}

constexpr std::uint32_t kBinaryMagicLo = 0x4C;  // "L"
constexpr std::uint32_t kBinaryMagicHi = 0x55;  // "U"
constexpr std::uint8_t kBinaryVersion = 1;

bool NeedsQuoting(std::string_view value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (c == ' ' || c == '\t' || c == '"' || c == '\n' || c == '\\') return true;
  }
  return false;
}

// Append " key=value" (no leading space when `out` is empty). Values with
// whitespace, '"' or '\' — and the empty value — are double-quoted with
// backslash escapes.
void AppendUlmPair(std::string& out, std::string_view key,
                   std::string_view value) {
  if (!out.empty()) out += ' ';
  out += key;
  out += '=';
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

// Scans one field=value token starting at `i`; advances `i` past it.
// `key` views `line`; `value` views `line` too, or `scratch` when the
// value was quoted and had to be unescaped.
Status ScanPair(std::string_view line, std::size_t& i, std::string_view& key,
                std::string_view& value, std::string& scratch) {
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size()) return Status::NotFound("end of line");
  const std::size_t key_start = i;
  // Tab delimits a key exactly like space does — the value scan below
  // already stopped at tabs, and Validate rejects tabs in field names, so
  // the tokenizer and the validator agree on what a key can contain.
  while (i < line.size() && line[i] != '=' && line[i] != ' ' &&
         line[i] != '\t') {
    ++i;
  }
  if (i >= line.size() || line[i] != '=') {
    return Status::ParseError("expected '=' after field name near offset " +
                              std::to_string(key_start));
  }
  key = line.substr(key_start, i - key_start);
  if (key.empty()) return Status::ParseError("empty field name");
  ++i;  // consume '='
  if (i < line.size() && line[i] == '"') {
    ++i;
    scratch.clear();
    bool closed = false;
    while (i < line.size()) {
      char c = line[i++];
      if (c == '\\' && i < line.size()) {
        char esc = line[i++];
        switch (esc) {
          case 'n': scratch += '\n'; break;
          case '"': scratch += '"'; break;
          case '\\': scratch += '\\'; break;
          default: scratch += esc;
        }
      } else if (c == '"') {
        closed = true;
        break;
      } else {
        scratch += c;
      }
    }
    if (!closed) return Status::ParseError("unterminated quoted value");
    value = scratch;
  } else {
    const std::size_t value_start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    value = line.substr(value_start, i - value_start);
  }
  return Status::Ok();
}

std::string XmlEscape(std::string_view text) {
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

}  // namespace

// ---------------------------------------------------------------------------
// RecordView

std::optional<std::string_view> RecordView::GetField(Symbol key) const {
  const CoreSyms& core = Core();
  if (key == core.host) return host();
  if (key == core.prog) return prog();
  if (key == core.lvl) return lvl();
  if (key == core.event) return event_name();
  for (std::uint32_t i = 0; i < nfields_; ++i) {
    if (fields_[i].key == key) return field_value(i);
  }
  return std::nullopt;
}

std::optional<std::string_view> RecordView::GetField(
    std::string_view key) const {
  // Find-not-intern: an unknown key matches nothing and must not grow
  // the table on the query side.
  auto sym = FindSymbol(key);
  if (!sym) return std::nullopt;
  return GetField(*sym);
}

Result<std::int64_t> RecordView::GetInt(Symbol key) const {
  auto v = GetField(key);
  if (!v) return Status::NotFound("no field " + std::string(SymbolName(key)));
  return ParseInt(*v);
}

Result<double> RecordView::GetDouble(Symbol key) const {
  auto v = GetField(key);
  if (!v) return Status::NotFound("no field " + std::string(SymbolName(key)));
  return ParseDouble(*v);
}

void RecordView::AppendAscii(std::string& out) const {
  // AppendUlmPair keys its leading space off `out` being non-empty, so a
  // non-empty destination gets the line built separately and appended.
  if (!out.empty()) {
    std::string line;
    AppendAscii(line);
    out += line;
    return;
  }
  // Required fields first, an empty NL.EVNT left out, then user fields
  // in order.
  AppendUlmPair(out, field::kDate, FormatUlmDate(ts_));
  AppendUlmPair(out, field::kHost, host());
  AppendUlmPair(out, field::kProg, prog());
  AppendUlmPair(out, field::kLevel, lvl());
  if (event_ != kEmptySymbol) AppendUlmPair(out, field::kEvent, event_name());
  for (std::uint32_t i = 0; i < nfields_; ++i) {
    AppendUlmPair(out, field_name(i), field_value(i));
  }
}

std::string RecordView::ToAscii() const {
  std::string out;
  AppendAscii(out);
  return out;
}

void RecordView::EncodeBinary(std::string& out) const {
  using detail::PutString;
  using detail::PutVarint;
  out.push_back(static_cast<char>(kBinaryMagicLo));
  out.push_back(static_cast<char>(kBinaryMagicHi));
  out.push_back(static_cast<char>(kBinaryVersion));
  const std::uint64_t ts = static_cast<std::uint64_t>(ts_);
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((ts >> (8 * b)) & 0xFF));
  }
  PutVarint(out, 4 + static_cast<std::uint64_t>(nfields_));
  PutString(out, field::kHost);
  PutString(out, host());
  PutString(out, field::kProg);
  PutString(out, prog());
  PutString(out, field::kLevel);
  PutString(out, lvl());
  PutString(out, field::kEvent);
  PutString(out, event_name());
  for (std::uint32_t i = 0; i < nfields_; ++i) {
    PutString(out, field_name(i));
    PutString(out, field_value(i));
  }
}

std::string RecordView::ToXml() const {
  std::string out = "<event date=\"" + FormatUlmDate(ts_) + "\" host=\"" +
                    XmlEscape(host()) + "\" prog=\"" + XmlEscape(prog()) +
                    "\" lvl=\"" + XmlEscape(lvl()) + "\"";
  if (event_ != kEmptySymbol) {
    out += " name=\"" + XmlEscape(event_name()) + "\"";
  }
  if (nfields_ == 0) {
    out += "/>";
    return out;
  }
  out += ">";
  for (std::uint32_t i = 0; i < nfields_; ++i) {
    out += "<field name=\"" + XmlEscape(field_name(i)) + "\">" +
           XmlEscape(field_value(i)) + "</field>";
  }
  out += "</event>";
  return out;
}

Record RecordView::ToRecord() const {
  Record rec(ts_, std::string(host()), std::string(prog()), std::string(lvl()),
             std::string(event_name()));
  for (std::uint32_t i = 0; i < nfields_; ++i) {
    // Flat records never hold duplicate or required-name keys, so the
    // unchecked append is safe and skips Record's overwrite scan.
    rec.AppendFieldUnchecked(std::string(field_name(i)),
                             std::string(field_value(i)));
  }
  return rec;
}

// ---------------------------------------------------------------------------
// FlatRecord

void FlatRecord::SetField(Symbol key, std::string_view value) {
  const CoreSyms& core = Core();
  if (key == core.date) {
    if (auto t = ParseUlmDate(value); t.ok()) ts_ = *t;
    return;
  }
  if (key == core.host) { host_ = InternSymbol(value); return; }
  if (key == core.prog) { prog_ = InternSymbol(value); return; }
  if (key == core.lvl) { lvl_ = InternSymbol(value); return; }
  if (key == core.event) { event_ = InternSymbol(value); return; }
  assert(values_.size() + value.size() <=
         std::numeric_limits<std::uint32_t>::max());
  for (FlatField& f : fields_) {
    if (f.key == key) {
      // Overwrite-in-place when the new value fits the old slot; append
      // fresh bytes otherwise (the old bytes become arena slack).
      if (value.size() <= f.len) {
        values_.replace(f.offset, value.size(), value);
        f.len = static_cast<std::uint32_t>(value.size());
      } else {
        f.offset = static_cast<std::uint32_t>(values_.size());
        f.len = static_cast<std::uint32_t>(value.size());
        values_.append(value);
      }
      return;
    }
  }
  fields_.push_back(FlatField{key, static_cast<std::uint32_t>(values_.size()),
                              static_cast<std::uint32_t>(value.size())});
  values_.append(value);
}

void FlatRecord::SetField(std::string_view key, std::string_view value) {
  SetField(InternSymbol(key), value);
}

void FlatRecord::SetField(std::string_view key, std::int64_t value) {
  SetField(InternSymbol(key), value);
}

void FlatRecord::SetField(std::string_view key, double value) {
  SetField(InternSymbol(key), value);
}

void FlatRecord::SetField(Symbol key, std::int64_t value) {
  SetField(key, std::string_view(std::to_string(value)));
}

void FlatRecord::SetField(Symbol key, double value) {
  // Same canonical %.6f form as Record::SetField(double).
  std::string formatted;
  detail::AppendUlmDouble(formatted, value);
  SetField(key, std::string_view(formatted));
}

void FlatRecord::AddFieldUnchecked(Symbol key, std::string_view value) {
  assert(values_.size() + value.size() <=
         std::numeric_limits<std::uint32_t>::max());
  fields_.push_back(FlatField{key, static_cast<std::uint32_t>(values_.size()),
                              static_cast<std::uint32_t>(value.size())});
  values_.append(value);
}

void FlatRecord::Clear() {
  ts_ = 0;
  host_ = prog_ = lvl_ = event_ = kEmptySymbol;
  values_.clear();
  fields_.clear();
}

void FlatRecord::Assign(const RecordView& view) {
  Clear();
  ts_ = view.timestamp();
  host_ = view.host_sym();
  prog_ = view.prog_sym();
  lvl_ = view.lvl_sym();
  event_ = view.event_sym();
  const std::uint32_t n = view.field_count();
  std::size_t bytes = 0;
  for (std::uint32_t i = 0; i < n; ++i) bytes += view.field_value(i).size();
  values_.reserve(bytes);
  fields_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    AddFieldUnchecked(view.field_key(i), view.field_value(i));
  }
}

FlatRecord FlatRecord::FromRecord(const Record& rec) {
  FlatRecord flat;
  flat.AssignRecord(rec);
  return flat;
}

void FlatRecord::AssignRecord(const Record& rec) {
  Clear();
  ts_ = rec.timestamp();
  host_ = InternSymbol(rec.host());
  prog_ = InternSymbol(rec.prog());
  lvl_ = InternSymbol(rec.lvl());
  event_ = InternSymbol(rec.event_name());
  for (const auto& [k, v] : rec.fields()) {
    AddFieldUnchecked(InternSymbol(k), v);
  }
}

Status FlatRecord::AssignAscii(std::string_view line) {
  Clear();
  const CoreSyms& core = Core();
  bool saw_date = false, saw_host = false, saw_prog = false, saw_lvl = false;
  std::size_t i = 0;
  std::string_view key, value;
  std::string scratch;
  while (true) {
    Status s = ScanPair(line, i, key, value, scratch);
    if (s.code() == StatusCode::kNotFound) break;  // clean end of line
    if (!s.ok()) return s;
    // Required names route to the members (the last one wins); a user key
    // that repeats is kept twice, in line order.
    const Symbol sym = InternSymbol(key);
    if (sym == core.date) {
      auto t = ParseUlmDate(value);
      if (!t.ok()) return t.status();
      ts_ = *t;
      saw_date = true;
    } else if (sym == core.host) {
      host_ = InternSymbol(value);
      saw_host = true;
    } else if (sym == core.prog) {
      prog_ = InternSymbol(value);
      saw_prog = true;
    } else if (sym == core.lvl) {
      lvl_ = InternSymbol(value);
      saw_lvl = true;
    } else if (sym == core.event) {
      event_ = InternSymbol(value);
    } else {
      AddFieldUnchecked(sym, value);
    }
  }
  if (!saw_date || !saw_host || !saw_prog || !saw_lvl) {
    return Status::ParseError(
        "ULM record missing required field(s) in: " + std::string(line));
  }
  return Status::Ok();
}

Result<FlatRecord> FlatRecord::FromAscii(std::string_view line) {
  FlatRecord rec;
  JAMM_RETURN_IF_ERROR(rec.AssignAscii(line));
  return rec;
}

Status ParseLog(std::string_view text, FlatBatch& out) {
  Status first;
  auto note = [&first](Status s) {
    if (first.ok()) first = std::move(s);
  };
  FlatRecord rec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = TrimView(text.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty()) continue;
    Status s = rec.AssignAscii(line);
    if (!s.ok()) {
      note(std::move(s));
    } else if (!out.Append(rec.View())) {
      note(Status::InvalidArgument("ULM log overflows one batch arena"));
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// FlatBatch

void FlatBatch::Reserve(std::size_t records, std::size_t value_bytes_hint) {
  metas_.reserve(metas_.size() + records);
  fields_.reserve(fields_.size() + records * 4);
  values_.reserve(values_.size() + value_bytes_hint);
}

bool FlatBatch::AppendCommon(TimePoint ts, Symbol host, Symbol prog,
                             Symbol lvl, Symbol event) {
  metas_.push_back(Meta{ts, host, prog, lvl, event,
                        static_cast<std::uint32_t>(fields_.size()), 0});
  return true;
}

bool FlatBatch::AppendField(Symbol key, std::string_view value) {
  if (value.size() >
      std::numeric_limits<std::uint32_t>::max() - values_.size()) {
    return false;
  }
  fields_.push_back(FlatField{key, static_cast<std::uint32_t>(values_.size()),
                              static_cast<std::uint32_t>(value.size())});
  values_.append(value);
  ++metas_.back().field_count;
  return true;
}

bool FlatBatch::Append(const RecordView& v) {
  // Check the arena bound up front so a failed append leaves the batch
  // untouched.
  std::size_t need = 0;
  for (std::uint32_t i = 0; i < v.field_count(); ++i) {
    need += v.field_value(i).size();
  }
  if (need > std::numeric_limits<std::uint32_t>::max() - values_.size()) {
    return false;
  }
  AppendCommon(v.timestamp(), v.host_sym(), v.prog_sym(), v.lvl_sym(),
               v.event_sym());
  for (std::uint32_t i = 0; i < v.field_count(); ++i) {
    AppendField(v.field_key(i), v.field_value(i));
  }
  return true;
}

bool FlatBatch::Append(const Record& rec) {
  std::size_t need = 0;
  for (const auto& [k, val] : rec.fields()) {
    (void)k;
    need += val.size();
  }
  if (need > std::numeric_limits<std::uint32_t>::max() - values_.size()) {
    return false;
  }
  AppendCommon(rec.timestamp(), InternSymbol(rec.host()),
               InternSymbol(rec.prog()), InternSymbol(rec.lvl()),
               InternSymbol(rec.event_name()));
  for (const auto& [k, val] : rec.fields()) {
    AppendField(InternSymbol(k), val);
  }
  return true;
}

bool FlatBatch::Append(const FlatBatch& other) {
  for (std::size_t i = 0; i < other.size(); ++i) {
    if (!Append(other.View(i))) return false;
  }
  return true;
}

void FlatBatch::Clear() {
  values_.clear();
  fields_.clear();
  metas_.clear();
}

void FlatBatch::SortByTime() {
  auto earlier = [](const Meta& a, const Meta& b) { return a.ts < b.ts; };
  if (std::is_sorted(metas_.begin(), metas_.end(), earlier)) return;
  std::stable_sort(metas_.begin(), metas_.end(), earlier);
  // Lay the fields and value bytes out again in the new record order, so
  // the arenas stay in record order (Truncate depends on it).
  std::string values;
  values.reserve(values_.size());
  std::vector<FlatField> fields;
  fields.reserve(fields_.size());
  for (Meta& m : metas_) {
    const std::uint32_t begin = static_cast<std::uint32_t>(fields.size());
    for (std::uint32_t f = 0; f < m.field_count; ++f) {
      const FlatField& old = fields_[m.field_begin + f];
      fields.push_back(FlatField{
          old.key, static_cast<std::uint32_t>(values.size()), old.len});
      values.append(values_, old.offset, old.len);
    }
    m.field_begin = begin;
  }
  values_.swap(values);
  fields_.swap(fields);
}

void FlatBatch::Truncate(std::size_t n) {
  if (n >= metas_.size()) return;
  // Records append their fields and value bytes in order, so record n's
  // first field marks where both arenas end for the records kept.
  const std::uint32_t fields_end = metas_[n].field_begin;
  const std::size_t values_end =
      fields_end == 0
          ? 0
          : fields_[fields_end - 1].offset + fields_[fields_end - 1].len;
  metas_.resize(n);
  fields_.resize(fields_end);
  values_.resize(values_end);
}

Status FlatBatch::DecodeBinaryStreamInto(std::string_view data) {
  using detail::GetStringView;
  using detail::GetVarint;
  std::size_t i = 0;
  while (i < data.size()) {
    // Snapshot for rollback of a partially decoded frame.
    const std::size_t values_mark = values_.size();
    const std::size_t fields_mark = fields_.size();
    auto fail = [&](std::string msg) {
      values_.resize(values_mark);
      fields_.resize(fields_mark);
      return Status::ParseError(std::move(msg));
    };
    if (data.size() - i < 11) return fail("binary ULM: truncated header");
    const std::uint8_t lo = static_cast<std::uint8_t>(data[i]);
    const std::uint8_t hi = static_cast<std::uint8_t>(data[i + 1]);
    if (lo != kBinaryMagicLo || hi != kBinaryMagicHi) {
      return fail("binary ULM: bad magic");
    }
    const std::uint8_t version = static_cast<std::uint8_t>(data[i + 2]);
    if (version != kBinaryVersion) {
      return fail("binary ULM: unsupported version " +
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
      return fail("binary ULM: truncated field count");
    }
    if (nfields < 4) {
      return fail("binary ULM: record missing required fields");
    }
    Symbol host = kEmptySymbol, prog = kEmptySymbol, lvl = kEmptySymbol,
           event = kEmptySymbol;
    // User fields append directly; required names (any position, like the
    // legacy decoder) land in the symbols above. field_count is fixed up
    // after the loop, once we know how many pairs were required names.
    const std::size_t record_fields_mark = fields_.size();
    bool ok = true;
    std::string_view key, value;
    std::uint64_t f = 0;
    std::uint32_t user_fields = 0;
    for (; f < nfields; ++f) {
      if (!GetStringView(data, i, key) || !GetStringView(data, i, value)) {
        ok = false;
        break;
      }
      if (key == field::kHost) {
        host = InternSymbol(value);
      } else if (key == field::kProg) {
        prog = InternSymbol(value);
      } else if (key == field::kLevel) {
        lvl = InternSymbol(value);
      } else if (key == field::kEvent) {
        event = InternSymbol(value);
      } else {
        if (value.size() >
            std::numeric_limits<std::uint32_t>::max() - values_.size()) {
          return fail("binary ULM: record overflows batch arena");
        }
        fields_.push_back(
            FlatField{InternSymbol(key),
                      static_cast<std::uint32_t>(values_.size()),
                      static_cast<std::uint32_t>(value.size())});
        values_.append(value);
        ++user_fields;
      }
    }
    if (!ok) {
      return fail("binary ULM: truncated field " + std::to_string(f));
    }
    metas_.push_back(Meta{static_cast<TimePoint>(ts), host, prog, lvl, event,
                          static_cast<std::uint32_t>(record_fields_mark),
                          user_fields});
  }
  return Status::Ok();
}

}  // namespace jamm::ulm
