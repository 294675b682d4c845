#include "sysmon/snmp.hpp"

#include "common/strings.hpp"

namespace jamm::sysmon {

Result<Oid> Oid::Parse(std::string_view text) {
  std::vector<std::uint32_t> arcs;
  for (const auto& piece : Split(TrimView(text), '.')) {
    auto n = ParseInt(piece);
    if (!n.ok() || *n < 0 || *n > 0xFFFFFFFFll) {
      return Status::ParseError("bad OID arc '" + piece + "' in '" +
                                std::string(text) + "'");
    }
    arcs.push_back(static_cast<std::uint32_t>(*n));
  }
  if (arcs.empty()) return Status::ParseError("empty OID");
  return Oid(std::move(arcs));
}

Oid Oid::Extend(std::uint32_t arc) const {
  std::vector<std::uint32_t> arcs = arcs_;
  arcs.push_back(arc);
  return Oid(std::move(arcs));
}

bool Oid::IsPrefixOf(const Oid& other) const {
  if (arcs_.size() > other.arcs_.size()) return false;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i] != other.arcs_[i]) return false;
  }
  return true;
}

std::string Oid::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (i) out += '.';
    out += std::to_string(arcs_[i]);
  }
  return out;
}

void MibTree::Set(const Oid& oid, SnmpValue value) {
  entries_[oid] = std::move(value);
}

void MibTree::Bump(const Oid& oid, std::int64_t delta) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    entries_[oid] = SnmpValue::Counter(delta);
  } else {
    it->second.number += delta;
  }
}

Result<SnmpValue> MibTree::Get(const Oid& oid) const {
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    return Status::NotFound("noSuchObject: " + oid.ToString());
  }
  return it->second;
}

Result<std::pair<Oid, SnmpValue>> MibTree::GetNext(const Oid& oid) const {
  auto it = entries_.upper_bound(oid);
  if (it == entries_.end()) {
    return Status::NotFound("endOfMibView after " + oid.ToString());
  }
  return std::make_pair(it->first, it->second);
}

std::vector<std::pair<Oid, SnmpValue>> MibTree::Walk(const Oid& prefix) const {
  std::vector<std::pair<Oid, SnmpValue>> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (!prefix.IsPrefixOf(it->first)) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

namespace oid {

Oid SysName() { return Oid({1, 3, 6, 1, 2, 1, 1, 5, 0}); }

Oid IfInOctets(std::uint32_t i) {
  return Oid({1, 3, 6, 1, 2, 1, 2, 2, 1, 10, i});
}
Oid IfOutOctets(std::uint32_t i) {
  return Oid({1, 3, 6, 1, 2, 1, 2, 2, 1, 16, i});
}
Oid IfInErrors(std::uint32_t i) {
  return Oid({1, 3, 6, 1, 2, 1, 2, 2, 1, 14, i});
}
Oid IfCrcErrors(std::uint32_t i) {
  return Oid({1, 3, 6, 1, 4, 1, 9, 2, 2, 1, 1, 12, i});
}
Oid IfTable() { return Oid({1, 3, 6, 1, 2, 1, 2, 2}); }

}  // namespace oid

SnmpAgent::SnmpAgent(std::string device_name) : name_(std::move(device_name)) {
  mib_.Set(oid::SysName(), SnmpValue::String(name_));
}

void SnmpAgent::AddTraffic(std::uint32_t ifindex, std::int64_t in_octets,
                           std::int64_t out_octets) {
  mib_.Bump(oid::IfInOctets(ifindex), in_octets);
  mib_.Bump(oid::IfOutOctets(ifindex), out_octets);
}

void SnmpAgent::AddErrors(std::uint32_t ifindex, std::int64_t in_errors,
                          std::int64_t crc_errors) {
  mib_.Bump(oid::IfInErrors(ifindex), in_errors);
  mib_.Bump(oid::IfCrcErrors(ifindex), crc_errors);
}

Result<std::int64_t> SnmpAgent::Counter(const Oid& oid) const {
  auto v = mib_.Get(oid);
  if (!v.ok()) return v.status();
  if (v->kind == SnmpValue::Kind::kString) {
    return Status::InvalidArgument("OID is a string: " + oid.ToString());
  }
  return v->number;
}

}  // namespace jamm::sysmon
