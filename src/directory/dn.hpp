// Distinguished Names for the LDAP-model directory service (paper §2.2:
// "The directory service is used to publish the location of all sensors and
// their associated gateway ... We are currently using LDAP").
//
// A DN is an ordered list of attribute=value RDNs, most-specific first:
//   "cn=vmstat, host=dpss1.lbl.gov, ou=sensors, o=jamm"
// Attribute names compare case-insensitively; values case-sensitively.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace jamm::directory {

struct Rdn {
  std::string attr;   // stored lower-cased
  std::string value;

  friend bool operator==(const Rdn&, const Rdn&) = default;
  friend auto operator<=>(const Rdn&, const Rdn&) = default;
};

class Dn {
 public:
  Dn() = default;

  /// Parse "attr=value, attr=value, ...". Whitespace around separators is
  /// ignored; empty input yields the root DN.
  static Result<Dn> Parse(std::string_view text);

  bool IsRoot() const { return rdns_.empty(); }
  std::size_t depth() const { return rdns_.size(); }
  const std::vector<Rdn>& rdns() const { return rdns_; }

  /// Leading (most-specific) RDN; requires !IsRoot().
  const Rdn& leaf() const { return rdns_.front(); }

  /// DN with the leaf removed; root stays root.
  Dn Parent() const;

  /// Prepend a new leaf RDN.
  Dn Child(std::string attr, std::string value) const;

  /// True if `this` is exactly one level below `ancestor`.
  bool IsChildOf(const Dn& ancestor) const;

  /// True if `this` equals `ancestor` or lies anywhere beneath it.
  bool IsUnder(const Dn& ancestor) const;

  std::string ToString() const;

  friend bool operator==(const Dn&, const Dn&) = default;
  friend auto operator<=>(const Dn&, const Dn&) = default;

 private:
  std::vector<Rdn> rdns_;
};

}  // namespace jamm::directory
