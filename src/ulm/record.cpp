#include "ulm/record.hpp"

#include <cstdio>

#include "common/strings.hpp"
#include "common/time_util.hpp"

namespace jamm::ulm {

namespace detail {

void AppendUlmDouble(std::string& out, double value) {
  // %.6f expands huge magnitudes in fixed notation (1e300 needs ~308
  // digits), so the buffer must grow on demand — a fixed 32-byte buffer
  // silently truncated anything >= ~1e26 and the record round-tripped as
  // a different number.
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.6f", value);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + old, static_cast<std::size_t>(n) + 1, "%.6f",
                value);
  out.resize(old + static_cast<std::size_t>(n));
}

}  // namespace detail

Record::Record(TimePoint timestamp, std::string host, std::string prog,
               std::string lvl, std::string event_name)
    : timestamp_(timestamp),
      host_(std::move(host)),
      prog_(std::move(prog)),
      lvl_(std::move(lvl)),
      event_name_(std::move(event_name)) {}

void Record::SetField(std::string_view key, std::string_view value) {
  if (key == field::kDate) {
    if (auto t = ParseUlmDate(value); t.ok()) timestamp_ = *t;
    return;
  }
  if (key == field::kHost) { host_ = value; return; }
  if (key == field::kProg) { prog_ = value; return; }
  if (key == field::kLevel) { lvl_ = value; return; }
  if (key == field::kEvent) { event_name_ = value; return; }
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  fields_.emplace_back(std::string(key), std::string(value));
}

void Record::SetField(std::string_view key, std::int64_t value) {
  SetField(key, std::string_view(std::to_string(value)));
}

void Record::SetField(std::string_view key, double value) {
  std::string formatted;
  detail::AppendUlmDouble(formatted, value);
  SetField(key, std::string_view(formatted));
}

std::optional<std::string> Record::GetField(std::string_view key) const {
  if (key == field::kHost) return host_;
  if (key == field::kProg) return prog_;
  if (key == field::kLevel) return lvl_;
  // NL.EVNT follows the same present-and-empty contract as the other
  // core fields (see record.hpp); emptiness only affects serialization.
  if (key == field::kEvent) return event_name_;
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

Result<std::int64_t> Record::GetInt(std::string_view key) const {
  auto v = GetField(key);
  if (!v) return Status::NotFound("no field " + std::string(key));
  return ParseInt(*v);
}

Result<double> Record::GetDouble(std::string_view key) const {
  auto v = GetField(key);
  if (!v) return Status::NotFound("no field " + std::string(key));
  return ParseDouble(*v);
}

bool Record::HasField(std::string_view key) const {
  return GetField(key).has_value();
}

Status Record::Validate() const {
  if (host_.empty()) return Status::InvalidArgument("ULM record: empty HOST");
  if (prog_.empty()) return Status::InvalidArgument("ULM record: empty PROG");
  if (lvl_.empty()) return Status::InvalidArgument("ULM record: empty LVL");
  if (timestamp_ < 0) {
    return Status::InvalidArgument("ULM record: negative timestamp");
  }
  for (const auto& [k, v] : fields_) {
    (void)v;
    if (k.empty()) return Status::InvalidArgument("ULM record: empty field name");
    for (char c : k) {
      // Tab and newline would desync the ASCII tokenizer (keys are never
      // quoted), so they are as illegal in a field name as space/'='/'"'.
      if (c == ' ' || c == '=' || c == '"' || c == '\t' || c == '\n') {
        return Status::InvalidArgument("ULM record: bad char in field name '" +
                                       k + "'");
      }
    }
  }
  return Status::Ok();
}

bool operator==(const Record& a, const Record& b) {
  return a.timestamp_ == b.timestamp_ && a.host_ == b.host_ &&
         a.prog_ == b.prog_ && a.lvl_ == b.lvl_ &&
         a.event_name_ == b.event_name_ && a.fields_ == b.fields_;
}

}  // namespace jamm::ulm
