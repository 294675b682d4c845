#include "directory/wal.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace jamm::directory {
namespace {

// Local CRC-32 (IEEE 802.3, reflected). The archive has its own copy but
// jamm_directory does not link jamm_archive; the table is 20 lines.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutU32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutU64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  PutU32(static_cast<std::uint32_t>(v), out);
  PutU32(static_cast<std::uint32_t>(v >> 32), out);
}

void PutString(const std::string& s, std::vector<std::uint8_t>* out) {
  PutU32(static_cast<std::uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool U32(std::uint32_t* v) {
    if (size - pos < 4) return false;
    *v = static_cast<std::uint32_t>(data[pos]) |
         static_cast<std::uint32_t>(data[pos + 1]) << 8 |
         static_cast<std::uint32_t>(data[pos + 2]) << 16 |
         static_cast<std::uint32_t>(data[pos + 3]) << 24;
    pos += 4;
    return true;
  }

  bool U64(std::uint64_t* v) {
    std::uint32_t lo = 0, hi = 0;
    if (!U32(&lo) || !U32(&hi)) return false;
    *v = static_cast<std::uint64_t>(hi) << 32 | lo;
    return true;
  }

  bool String(std::string* s) {
    std::uint32_t len = 0;
    if (!U32(&len)) return false;
    if (size - pos < len) return false;
    s->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return true;
  }
};

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

}  // namespace

void EncodeChange(const Change& change, std::vector<std::uint8_t>* out) {
  PutU64(change.seq, out);
  out->push_back(static_cast<std::uint8_t>(change.type));
  PutString(change.entry.dn().ToString(), out);
  switch (change.type) {
    case Change::Type::kAdd:
    case Change::Type::kModify: {
      const auto& attrs = change.entry.attrs();
      PutU32(static_cast<std::uint32_t>(attrs.size()), out);
      for (const auto& [name, values] : attrs) {
        PutString(name, out);
        PutU32(static_cast<std::uint32_t>(values.size()), out);
        for (const auto& value : values) PutString(value, out);
      }
      break;
    }
    case Change::Type::kDelete:
      break;
    case Change::Type::kLease:
      PutU64(static_cast<std::uint64_t>(change.lease_expiry), out);
      break;
    case Change::Type::kReferral:
      PutString(change.referral_target, out);
      break;
  }
}

bool DecodeChange(const std::uint8_t* data, std::size_t size, Change* out) {
  Reader r{data, size};
  Change c;
  if (!r.U64(&c.seq)) return false;
  if (r.pos >= r.size) return false;
  const std::uint8_t type = data[r.pos++];
  if (type > static_cast<std::uint8_t>(Change::Type::kReferral)) return false;
  c.type = static_cast<Change::Type>(type);
  std::string dn_text;
  if (!r.String(&dn_text)) return false;
  auto dn = Dn::Parse(dn_text);
  if (!dn.ok()) return false;
  c.entry = Entry(std::move(dn).value());
  switch (c.type) {
    case Change::Type::kAdd:
    case Change::Type::kModify: {
      std::uint32_t count = 0;
      if (!r.U32(&count)) return false;
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        std::uint32_t value_count = 0;
        if (!r.String(&name) || !r.U32(&value_count)) return false;
        std::vector<std::string> values;
        values.reserve(value_count);
        for (std::uint32_t j = 0; j < value_count; ++j) {
          std::string value;
          if (!r.String(&value)) return false;
          values.push_back(std::move(value));
        }
        c.entry.Set(name, std::move(values));
      }
      break;
    }
    case Change::Type::kDelete:
      break;
    case Change::Type::kLease: {
      std::uint64_t expiry = 0;
      if (!r.U64(&expiry)) return false;
      c.lease_expiry = static_cast<TimePoint>(expiry);
      break;
    }
    case Change::Type::kReferral:
      if (!r.String(&c.referral_target)) return false;
      break;
  }
  if (r.pos != size) return false;  // trailing garbage == corrupt frame
  *out = std::move(c);
  return true;
}

// ----------------------------------------------------------- WalStorage

std::uint64_t WalStorage::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_.size();
}

std::uint64_t WalStorage::synced_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_;
}

std::uint64_t WalStorage::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

void WalStorage::DropUnsynced() {
  std::lock_guard<std::mutex> lock(mu_);
  bytes_.resize(synced_);
}

std::size_t WalStorage::CorruptTail(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = std::min<std::size_t>(bytes, synced_);
  for (std::size_t i = 0; i < n; ++i) {
    bytes_[synced_ - 1 - i] ^= 0x5A;
  }
  return n;
}

void WalStorage::TruncateRaw(std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size < bytes_.size()) bytes_.resize(size);
  if (synced_ > bytes_.size()) synced_ = bytes_.size();
}

// ------------------------------------------------------- WriteAheadLog

WriteAheadLog::WriteAheadLog(std::shared_ptr<WalStorage> storage)
    : storage_(storage ? std::move(storage)
                       : std::make_shared<WalStorage>()) {}

void WriteAheadLog::Append(const Change& change) {
  std::vector<std::uint8_t> payload;
  EncodeChange(change, &payload);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeader + payload.size());
  PutU32(static_cast<std::uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload.data(), payload.size()), &frame);
  frame.insert(frame.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(storage_->mu_);
  storage_->bytes_.insert(storage_->bytes_.end(), frame.begin(), frame.end());
}

void WriteAheadLog::Commit() {
  std::lock_guard<std::mutex> lock(storage_->mu_);
  if (storage_->synced_ != storage_->bytes_.size()) {
    storage_->synced_ = storage_->bytes_.size();
    ++storage_->fsyncs_;
  }
}

WriteAheadLog::ReplayStats WriteAheadLog::Replay(
    const std::function<void(const Change&)>& fn) {
  // Copy the committed bytes out so replay (which calls back into server
  // code) runs without the storage lock held.
  std::vector<std::uint8_t> log;
  {
    std::lock_guard<std::mutex> lock(storage_->mu_);
    log.assign(storage_->bytes_.begin(),
               storage_->bytes_.begin() +
                   static_cast<std::ptrdiff_t>(storage_->synced_));
  }

  ReplayStats stats;
  std::size_t pos = 0;
  while (pos < log.size()) {
    Reader r{log.data(), log.size(), pos};
    std::uint32_t len = 0, crc = 0;
    if (!r.U32(&len) || !r.U32(&crc)) break;                 // torn header
    if (log.size() - r.pos < len) break;                     // torn payload
    const std::uint8_t* payload = log.data() + r.pos;
    if (Crc32(payload, len) != crc) break;                   // corrupt frame
    Change change;
    if (!DecodeChange(payload, len, &change)) break;         // corrupt frame
    fn(change);
    pos = r.pos + len;
    ++stats.records;
  }
  stats.bytes = pos;
  if (pos < log.size()) {
    stats.truncated_bytes = log.size() - pos;
    std::lock_guard<std::mutex> lock(storage_->mu_);
    storage_->bytes_.resize(pos);
    storage_->synced_ = pos;
  }
  return stats;
}

std::vector<Change> WriteAheadLog::ReadFrom(std::uint64_t offset,
                                            std::size_t max_records,
                                            std::uint64_t* next_offset) const {
  std::vector<std::uint8_t> log;
  {
    std::lock_guard<std::mutex> lock(storage_->mu_);
    log.assign(storage_->bytes_.begin(),
               storage_->bytes_.begin() +
                   static_cast<std::ptrdiff_t>(storage_->synced_));
  }

  std::vector<Change> changes;
  std::size_t pos = std::min<std::uint64_t>(offset, log.size());
  while (changes.size() < max_records && pos < log.size()) {
    Reader r{log.data(), log.size(), pos};
    std::uint32_t len = 0, crc = 0;
    if (!r.U32(&len) || !r.U32(&crc)) break;
    if (log.size() - r.pos < len) break;
    const std::uint8_t* payload = log.data() + r.pos;
    Change change;
    if (Crc32(payload, len) != crc || !DecodeChange(payload, len, &change)) {
      break;
    }
    changes.push_back(std::move(change));
    pos = r.pos + len;
  }
  if (next_offset != nullptr) *next_offset = pos;
  return changes;
}

}  // namespace jamm::directory
