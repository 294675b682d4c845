// LDAP search filters (RFC 1960 string representation), the query language
// consumers use to discover sensors: e.g.
//
//   (&(objectclass=jammSensor)(type=cpu)(host=dpss*.lbl.gov))
//
// Supported: & | ! conjunctions, equality, presence (attr=*), substring
// (values with '*' wildcards), >= and <= (numeric when both sides parse as
// numbers, else lexicographic).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "directory/entry.hpp"

namespace jamm::directory {

class Filter {
 public:
  /// Parse an RFC1960 filter string; the outer parentheses are required
  /// and operators nest at most 64 deep.
  static Result<Filter> Parse(std::string_view text);

  /// Matches everything — "(objectclass=*)" shorthand.
  static Filter MatchAll();

  bool Matches(const Entry& entry) const;

  /// Canonical string form (round-trips through Parse).
  std::string ToString() const;

  /// Implementation node; public only so the parser in the .cpp can build
  /// trees — not part of the API surface.
  struct Node;

 private:
  std::shared_ptr<const Node> root_;
};

}  // namespace jamm::directory
