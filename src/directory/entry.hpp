// Directory entries: a DN plus multi-valued, case-insensitively named
// attributes, matching the LDAP data model the paper relies on.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "directory/dn.hpp"

namespace jamm::directory {

class Entry {
 public:
  Entry() = default;
  explicit Entry(Dn dn) : dn_(std::move(dn)) {}

  const Dn& dn() const { return dn_; }

  /// Replace all values of `attr`.
  void Set(std::string_view attr, std::string value);
  void Set(std::string_view attr, std::vector<std::string> values);
  /// Append one value.
  void Add(std::string_view attr, std::string value);

  bool Has(std::string_view attr) const;
  /// First value or empty.
  std::string Get(std::string_view attr) const;
  const std::vector<std::string>* GetAll(std::string_view attr) const;

  const std::map<std::string, std::vector<std::string>>& attrs() const {
    return attrs_;
  }

  /// LDIF-ish rendering for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Entry&, const Entry&) = default;

 private:
  Dn dn_;
  std::map<std::string, std::vector<std::string>> attrs_;  // keys lower-cased
};

}  // namespace jamm::directory
