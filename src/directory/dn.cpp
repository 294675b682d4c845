#include "directory/dn.hpp"

#include "common/strings.hpp"

namespace jamm::directory {

Result<Dn> Dn::Parse(std::string_view text) {
  Dn dn;
  std::string_view trimmed = TrimView(text);
  if (trimmed.empty()) return dn;
  for (const auto& part : Split(trimmed, ',')) {
    const std::string piece = Trim(part);
    const std::size_t eq = piece.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::ParseError("bad RDN '" + piece + "' in DN '" +
                                std::string(text) + "'");
    }
    Rdn rdn;
    rdn.attr = ToLower(Trim(piece.substr(0, eq)));
    rdn.value = Trim(piece.substr(eq + 1));
    if (rdn.value.empty()) {
      return Status::ParseError("empty value in RDN '" + piece + "'");
    }
    dn.rdns_.push_back(std::move(rdn));
  }
  return dn;
}

Dn Dn::Parent() const {
  Dn parent;
  if (rdns_.size() > 1) {
    parent.rdns_.assign(rdns_.begin() + 1, rdns_.end());
  }
  return parent;
}

Dn Dn::Child(std::string attr, std::string value) const {
  Dn child;
  child.rdns_.reserve(rdns_.size() + 1);
  child.rdns_.push_back({ToLower(attr), std::move(value)});
  child.rdns_.insert(child.rdns_.end(), rdns_.begin(), rdns_.end());
  return child;
}

bool Dn::IsChildOf(const Dn& ancestor) const {
  return depth() == ancestor.depth() + 1 && IsUnder(ancestor);
}

bool Dn::IsUnder(const Dn& ancestor) const {
  if (ancestor.depth() > depth()) return false;
  const std::size_t skip = depth() - ancestor.depth();
  for (std::size_t i = 0; i < ancestor.depth(); ++i) {
    if (rdns_[skip + i] != ancestor.rdns_[i]) return false;
  }
  return true;
}

std::string Dn::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < rdns_.size(); ++i) {
    if (i) out += ", ";
    out += rdns_[i].attr + "=" + rdns_[i].value;
  }
  return out;
}

}  // namespace jamm::directory
