// SNMP-lite: the network-device substrate behind JAMM's network sensors
// (paper §2.2: "These sensors perform SNMP queries to a network device,
// typically a router or switch"). Implements the SNMP data model the
// sensors need — an OID-keyed MIB with GET / GETNEXT / WALK — and an agent
// per simulated device carrying an ifTable-style MIB (octet counters,
// errors, CRC errors; §6 monitors "SNMP errors on the end switches and
// routers").
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace jamm::sysmon {

/// Object identifier: dotted sequence of arcs, e.g. "1.3.6.1.2.1.2.2.1.10.1".
class Oid {
 public:
  Oid() = default;
  explicit Oid(std::vector<std::uint32_t> arcs) : arcs_(std::move(arcs)) {}

  static Result<Oid> Parse(std::string_view text);

  const std::vector<std::uint32_t>& arcs() const { return arcs_; }
  bool empty() const { return arcs_.empty(); }

  /// Append one arc (table index construction).
  Oid Extend(std::uint32_t arc) const;

  bool IsPrefixOf(const Oid& other) const;

  std::string ToString() const;

  friend bool operator==(const Oid&, const Oid&) = default;
  friend auto operator<=>(const Oid& a, const Oid& b) {
    return a.arcs_ <=> b.arcs_;  // lexicographic = SNMP ordering
  }

 private:
  std::vector<std::uint32_t> arcs_;
};

struct SnmpValue {
  enum class Kind { kInteger, kCounter, kString };
  Kind kind = Kind::kInteger;
  std::int64_t number = 0;
  std::string text;

  static SnmpValue Integer(std::int64_t v) {
    return {Kind::kInteger, v, ""};
  }
  static SnmpValue Counter(std::int64_t v) {
    return {Kind::kCounter, v, ""};
  }
  static SnmpValue String(std::string s) {
    return {Kind::kString, 0, std::move(s)};
  }

  friend bool operator==(const SnmpValue&, const SnmpValue&) = default;
};

/// Ordered OID → value store with SNMP retrieval semantics.
class MibTree {
 public:
  void Set(const Oid& oid, SnmpValue value);
  /// Add to a counter (creates it at zero first).
  void Bump(const Oid& oid, std::int64_t delta);

  Result<SnmpValue> Get(const Oid& oid) const;
  /// First binding with OID strictly greater — the GETNEXT traversal.
  Result<std::pair<Oid, SnmpValue>> GetNext(const Oid& oid) const;
  /// All bindings under a prefix, in OID order (a WALK).
  std::vector<std::pair<Oid, SnmpValue>> Walk(const Oid& prefix) const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::map<Oid, SnmpValue> entries_;
};

/// Well-known OIDs used by the network sensors (IF-MIB flavored, plus a
/// vendor-style CRC counter).
namespace oid {
Oid SysName();                        // 1.3.6.1.2.1.1.5.0
Oid IfInOctets(std::uint32_t ifindex);   // 1.3.6.1.2.1.2.2.1.10.<i>
Oid IfOutOctets(std::uint32_t ifindex);  // 1.3.6.1.2.1.2.2.1.16.<i>
Oid IfInErrors(std::uint32_t ifindex);   // 1.3.6.1.2.1.2.2.1.14.<i>
Oid IfCrcErrors(std::uint32_t ifindex);  // 1.3.6.1.4.1.9.2.2.1.1.12.<i>
Oid IfTable();                        // 1.3.6.1.2.1.2.2
}  // namespace oid

/// One network device (router/switch) exposing a MIB.
class SnmpAgent {
 public:
  explicit SnmpAgent(std::string device_name);

  const std::string& name() const { return name_; }
  MibTree& mib() { return mib_; }
  const MibTree& mib() const { return mib_; }

  /// Convenience counter updates used by the network simulator.
  void AddTraffic(std::uint32_t ifindex, std::int64_t in_octets,
                  std::int64_t out_octets);
  void AddErrors(std::uint32_t ifindex, std::int64_t in_errors,
                 std::int64_t crc_errors);

  /// Numeric read of any counter/integer OID.
  Result<std::int64_t> Counter(const Oid& oid) const;

 private:
  std::string name_;
  MibTree mib_;
};

}  // namespace jamm::sysmon
