#include "directory/entry.hpp"

#include "common/strings.hpp"

namespace jamm::directory {

void Entry::Set(std::string_view attr, std::string value) {
  attrs_[ToLower(attr)] = {std::move(value)};
}

void Entry::Set(std::string_view attr, std::vector<std::string> values) {
  attrs_[ToLower(attr)] = std::move(values);
}

void Entry::Add(std::string_view attr, std::string value) {
  attrs_[ToLower(attr)].push_back(std::move(value));
}

bool Entry::Has(std::string_view attr) const {
  return attrs_.find(ToLower(attr)) != attrs_.end();
}

std::string Entry::Get(std::string_view attr) const {
  auto it = attrs_.find(ToLower(attr));
  if (it == attrs_.end() || it->second.empty()) return "";
  return it->second.front();
}

const std::vector<std::string>* Entry::GetAll(std::string_view attr) const {
  auto it = attrs_.find(ToLower(attr));
  return it == attrs_.end() ? nullptr : &it->second;
}

std::string Entry::ToString() const {
  std::string out = "dn: " + dn_.ToString() + "\n";
  for (const auto& [attr, values] : attrs_) {
    for (const auto& v : values) {
      out += attr + ": " + v + "\n";
    }
  }
  return out;
}

}  // namespace jamm::directory
