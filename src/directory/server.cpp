#include "directory/server.hpp"

#include <algorithm>
#include <set>

#include "directory/schema.hpp"
#include "directory/wal.hpp"
#include "telemetry/metrics.hpp"

namespace jamm::directory {

namespace {

// Lease-plane self-telemetry (ISSUE 4), resolved once.
struct LeaseTelemetry {
  telemetry::Counter& renewals;
  telemetry::Counter& expirations;
  telemetry::Counter& live_only_filtered;
};

LeaseTelemetry& LeaseInstruments() {
  auto& m = telemetry::Metrics();
  static LeaseTelemetry t{m.counter("directory.lease.renewals"),
                          m.counter("directory.lease.expirations"),
                          m.counter("directory.lease.live_only_filtered")};
  return t;
}

}  // namespace

DirectoryServer::DirectoryServer(Dn suffix, std::string address,
                                 std::shared_ptr<WalStorage> storage)
    : suffix_(std::move(suffix)), address_(std::move(address)) {
  wal_ = std::make_unique<WriteAheadLog>(std::move(storage));
  snap_ = std::make_shared<const Snapshot>();
  // Adopting a storage with committed history (a restarted deployment)
  // recovers it immediately; a fresh log replays to nothing.
  if (wal_->committed_size() > 0) Restart();
}

DirectoryServer::~DirectoryServer() = default;

// ------------------------------------------------- snapshot plumbing

std::size_t DirectoryServer::BucketOf(const std::string& key) {
  return std::hash<std::string>{}(key) % kBuckets;
}

std::shared_ptr<const DirectoryServer::Snapshot>
DirectoryServer::LoadSnapshot() const {
  std::lock_guard<std::mutex> latch(snap_mu_);
  return snap_;
}

const DirectoryServer::Node* DirectoryServer::FindNode(
    const Snapshot& snap, const std::string& key) {
  const auto& bucket = snap.buckets[BucketOf(key)];
  if (!bucket) return nullptr;
  auto it = bucket->find(key);
  return it == bucket->end() ? nullptr : &it->second;
}

Entry DirectoryServer::Materialize(const Node& node) {
  Entry entry = *node.entry;
  if (node.lease) {
    // The cell, not the stored attribute, is the authoritative lease:
    // renewals store here without republishing the snapshot.
    schema::StampLease(entry, node.lease->expires.load(std::memory_order_relaxed));
  }
  return entry;
}

bool DirectoryServer::LiveAt(const Node& node, TimePoint now) {
  if (!node.lease) return true;  // immortal
  return node.lease->expires.load(std::memory_order_relaxed) > now;
}

DirectoryServer::Txn DirectoryServer::BeginTxn() {
  Txn txn;
  // Cheap start: share every bucket with the current snapshot; clones
  // happen lazily per touched bucket.
  txn.snap = std::make_shared<Snapshot>(*LoadSnapshot());
  return txn;
}

DirectoryServer::Bucket& DirectoryServer::MutableBucket(Txn& txn,
                                                        std::size_t index) {
  if (!txn.cloned[index]) {
    auto& slot = txn.snap->buckets[index];
    slot = slot ? std::make_shared<Bucket>(*slot) : std::make_shared<Bucket>();
    txn.cloned[index] = true;
  }
  // The clone is private to this txn until publication.
  return const_cast<Bucket&>(*txn.snap->buckets[index]);
}

void DirectoryServer::CommitLocked(Txn* txn, std::vector<Change> changes) {
  // WAL first: a change is acked only once its frame is fsync-simulated.
  for (Change& change : changes) {
    if (change.seq == 0) change.seq = next_seq_++;
    else if (change.seq >= next_seq_) next_seq_ = change.seq + 1;
    wal_->Append(change);
  }
  if (!changes.empty()) wal_->Commit();  // group commit: one fsync per batch
  last_seq_.store(next_seq_ - 1, std::memory_order_release);
  if (txn != nullptr && txn->dirty) {
    {
      std::lock_guard<std::mutex> latch(snap_mu_);
      snap_ = txn->snap;
    }
    counters_.snapshot_swaps.fetch_add(1, std::memory_order_relaxed);
    // Structural writes invalidate the read-optimized cache — lease
    // renewals (no snapshot swap) deliberately don't.
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    search_cache_.clear();
  }
}

// --------------------------------------------------- txn-level writes

Status DirectoryServer::AddTxn(Txn& txn, const Entry& entry) {
  const Dn& dn = entry.dn();
  if (!dn.IsUnder(suffix_)) {
    return Status::InvalidArgument("DN outside suffix: " + dn.ToString());
  }
  const std::string key = dn.ToString();
  if (FindNode(*txn.snap, key) != nullptr) {
    return Status::AlreadyExists("entry exists: " + key);
  }
  if (dn != suffix_) {
    // The suffix acts as an implicit mount point; anything deeper needs an
    // existing parent (LDAP tree integrity).
    const Dn parent = dn.Parent();
    if (parent != suffix_ &&
        FindNode(*txn.snap, parent.ToString()) == nullptr) {
      return Status::NotFound("parent entry missing: " + parent.ToString());
    }
  }
  Node node;
  node.entry = std::make_shared<const Entry>(entry);
  if (auto expiry = schema::LeaseExpiry(entry)) {
    node.lease = std::make_shared<LeaseCell>();
    node.lease->expires.store(*expiry, std::memory_order_relaxed);
  }
  MutableBucket(txn, BucketOf(key))[key] = std::move(node);
  ++txn.snap->entry_count;
  txn.dirty = true;
  return Status::Ok();
}

Status DirectoryServer::ModifyTxn(Txn& txn, const Entry& entry) {
  const std::string key = entry.dn().ToString();
  const Node* existing = FindNode(*txn.snap, key);
  if (existing == nullptr) return Status::NotFound("no entry: " + key);
  Node node;
  node.entry = std::make_shared<const Entry>(entry);
  if (auto expiry = schema::LeaseExpiry(entry)) {
    // Keep the existing cell (older snapshot generations share it) and
    // move its expiry; attach a fresh one if the entry just became leased.
    node.lease = existing->lease ? existing->lease
                                 : std::make_shared<LeaseCell>();
    node.lease->expires.store(*expiry, std::memory_order_relaxed);
  }
  MutableBucket(txn, BucketOf(key))[key] = std::move(node);
  txn.dirty = true;
  return Status::Ok();
}

Status DirectoryServer::DeleteTxn(Txn& txn, const Dn& dn) {
  const std::string key = dn.ToString();
  if (FindNode(*txn.snap, key) == nullptr) {
    return Status::NotFound("no entry: " + key);
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto& bucket = txn.snap->buckets[b];
    if (!bucket) continue;
    for (const auto& [other_key, node] : *bucket) {
      if (other_key != key && node.entry->dn().IsChildOf(dn)) {
        return Status::InvalidArgument("entry has children: " + key);
      }
    }
  }
  MutableBucket(txn, BucketOf(key)).erase(key);
  --txn.snap->entry_count;
  txn.dirty = true;
  return Status::Ok();
}

Status DirectoryServer::ApplyChangeTxn(Txn& txn, const Change& change) {
  switch (change.type) {
    case Change::Type::kAdd: {
      Status s = AddTxn(txn, change.entry);
      // Replays after restart may collide with existing entries; treat the
      // add as a modify so replicas converge.
      if (s.code() == StatusCode::kAlreadyExists) {
        s = ModifyTxn(txn, change.entry);
      }
      return s;
    }
    case Change::Type::kModify:
      return ModifyTxn(txn, change.entry);
    case Change::Type::kDelete: {
      Status s = DeleteTxn(txn, change.entry.dn());
      if (s.code() == StatusCode::kNotFound) s = Status::Ok();
      return s;
    }
    case Change::Type::kLease: {
      const std::string key = change.entry.dn().ToString();
      const Node* node = FindNode(*txn.snap, key);
      if (node == nullptr) return Status::Ok();  // reaped before the renewal
      if (node->lease) {
        node->lease->expires.store(change.lease_expiry,
                                   std::memory_order_relaxed);
      } else {
        // Renewal of a previously immortal entry: attach a cell.
        auto& bucket = MutableBucket(txn, BucketOf(key));
        Node& mut = bucket[key];
        mut.lease = std::make_shared<LeaseCell>();
        mut.lease->expires.store(change.lease_expiry,
                                 std::memory_order_relaxed);
        txn.dirty = true;
      }
      return Status::Ok();
    }
    case Change::Type::kReferral: {
      Referral ref{change.entry.dn(), change.referral_target};
      auto& refs = txn.snap->referrals;
      const bool dup = std::any_of(
          refs.begin(), refs.end(), [&](const Referral& r) {
            return r.suffix == ref.suffix && r.target == ref.target;
          });
      if (!dup) {
        refs.push_back(std::move(ref));
        txn.dirty = true;
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown change type");
}

// ------------------------------------------------------------- guards

Status DirectoryServer::CheckAlive() const {
  if (!alive_.load(std::memory_order_acquire)) {
    return Status::Unavailable("directory server down: " + address_);
  }
  return Status::Ok();
}

Status DirectoryServer::CheckAccess(Operation op, const Dn& target,
                                    const std::string& principal) const {
  std::shared_ptr<const AccessChecker> checker;
  {
    std::lock_guard<std::mutex> latch(snap_mu_);
    checker = access_checker_;
  }
  if (checker && *checker && !(*checker)(op, target, principal)) {
    static telemetry::Counter& denied =
        telemetry::Metrics().counter("directory.access_denied");
    denied.Increment();
    return Status::PermissionDenied(
        (principal.empty() ? std::string("anonymous") : principal) +
        " may not access " + target.ToString());
  }
  return Status::Ok();
}

std::optional<Referral> DirectoryServer::MatchReferralIn(const Snapshot& snap,
                                                         const Dn& dn) {
  const Referral* best = nullptr;
  for (const auto& ref : snap.referrals) {
    if (dn.IsUnder(ref.suffix) &&
        (best == nullptr || ref.suffix.depth() > best->suffix.depth())) {
      best = &ref;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::optional<Referral> DirectoryServer::MatchReferral(const Dn& dn) const {
  return MatchReferralIn(*LoadSnapshot(), dn);
}

// ------------------------------------------------------------- writes

Status DirectoryServer::Add(const Entry& entry, const std::string& principal) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kWrite, entry.dn(), principal));
  Txn txn = BeginTxn();
  if (auto ref = MatchReferralIn(*txn.snap, entry.dn())) {
    return Status::Aborted("referred to " + ref->target + ": " +
                           entry.dn().ToString());
  }
  JAMM_RETURN_IF_ERROR(AddTxn(txn, entry));
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  Change change;
  change.type = Change::Type::kAdd;
  change.entry = entry;
  CommitLocked(&txn, {std::move(change)});
  return Status::Ok();
}

Status DirectoryServer::Modify(const Entry& entry,
                               const std::string& principal) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kWrite, entry.dn(), principal));
  Txn txn = BeginTxn();
  if (auto ref = MatchReferralIn(*txn.snap, entry.dn())) {
    return Status::Aborted("referred to " + ref->target + ": " +
                           entry.dn().ToString());
  }
  JAMM_RETURN_IF_ERROR(ModifyTxn(txn, entry));
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  Change change;
  change.type = Change::Type::kModify;
  change.entry = entry;
  CommitLocked(&txn, {std::move(change)});
  return Status::Ok();
}

Status DirectoryServer::Upsert(const Entry& entry,
                               const std::string& principal) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kWrite, entry.dn(), principal));
  Txn txn = BeginTxn();
  if (auto ref = MatchReferralIn(*txn.snap, entry.dn())) {
    return Status::Aborted("referred to " + ref->target + ": " +
                           entry.dn().ToString());
  }
  const bool exists =
      FindNode(*txn.snap, entry.dn().ToString()) != nullptr;
  JAMM_RETURN_IF_ERROR(exists ? ModifyTxn(txn, entry) : AddTxn(txn, entry));
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  Change change;
  change.type = exists ? Change::Type::kModify : Change::Type::kAdd;
  change.entry = entry;
  CommitLocked(&txn, {std::move(change)});
  return Status::Ok();
}

Status DirectoryServer::UpsertBatch(const std::vector<Entry>& entries,
                                    const std::string& principal) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  Txn txn = BeginTxn();
  std::vector<Change> changes;
  changes.reserve(entries.size());
  for (const Entry& entry : entries) {
    JAMM_RETURN_IF_ERROR(
        CheckAccess(Operation::kWrite, entry.dn(), principal));
    if (auto ref = MatchReferralIn(*txn.snap, entry.dn())) {
      return Status::Aborted("referred to " + ref->target + ": " +
                             entry.dn().ToString());
    }
    const bool exists =
        FindNode(*txn.snap, entry.dn().ToString()) != nullptr;
    JAMM_RETURN_IF_ERROR(exists ? ModifyTxn(txn, entry) : AddTxn(txn, entry));
    Change change;
    change.type = exists ? Change::Type::kModify : Change::Type::kAdd;
    change.entry = entry;
    changes.push_back(std::move(change));
  }
  counters_.writes.fetch_add(changes.size(), std::memory_order_relaxed);
  CommitLocked(&txn, std::move(changes));
  return Status::Ok();
}

Status DirectoryServer::Delete(const Dn& dn, const std::string& principal) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kWrite, dn, principal));
  Txn txn = BeginTxn();
  if (auto ref = MatchReferralIn(*txn.snap, dn)) {
    return Status::Aborted("referred to " + ref->target + ": " +
                           dn.ToString());
  }
  JAMM_RETURN_IF_ERROR(DeleteTxn(txn, dn));
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  Change change;
  change.type = Change::Type::kDelete;
  change.entry = Entry(dn);
  CommitLocked(&txn, {std::move(change)});
  return Status::Ok();
}

// ------------------------------------------------------------- leases

Result<std::size_t> DirectoryServer::RenewLeases(const std::vector<Dn>& dns,
                                                 TimePoint expiry,
                                                 const std::string& principal,
                                                 std::vector<Dn>* missing) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  Txn txn = BeginTxn();
  std::vector<Change> changes;
  changes.reserve(dns.size());
  std::size_t renewed = 0;
  for (const Dn& dn : dns) {
    JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kWrite, dn, principal));
    const std::string key = dn.ToString();
    const Node* node = FindNode(*txn.snap, key);
    if (node == nullptr) {
      // Reaped, never published here, or referred away to another
      // server — either way the owner must re-publish through the pool,
      // which chases referrals to the right shard.
      if (missing) missing->push_back(dn);
      continue;
    }
    if (node->lease) {
      // The hot path: an atomic store into the shared cell. No bucket
      // clone, no snapshot swap, no cache invalidation — every read
      // restamps from the cell.
      node->lease->expires.store(expiry, std::memory_order_relaxed);
    } else {
      // First renewal of an unleased entry: attach a cell (structural).
      auto& bucket = MutableBucket(txn, BucketOf(key));
      Node& mut = bucket[key];
      mut.lease = std::make_shared<LeaseCell>();
      mut.lease->expires.store(expiry, std::memory_order_relaxed);
      txn.dirty = true;
    }
    Change change;
    change.type = Change::Type::kLease;
    change.entry = Entry(dn);
    change.lease_expiry = expiry;
    changes.push_back(std::move(change));
    ++renewed;
  }
  counters_.leases_renewed.fetch_add(renewed, std::memory_order_relaxed);
  counters_.writes.fetch_add(renewed, std::memory_order_relaxed);
  if (renewed) LeaseInstruments().renewals.Add(renewed);
  CommitLocked(&txn, std::move(changes));
  return renewed;
}

Result<std::size_t> DirectoryServer::ExpireLeases(TimePoint now) {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  Txn txn = BeginTxn();
  // Everything overdue is a reap candidate...
  std::set<std::string> doomed;
  for (const auto& bucket : txn.snap->buckets) {
    if (!bucket) continue;
    for (const auto& [key, node] : *bucket) {
      if (!LiveAt(node, now)) doomed.insert(key);
    }
  }
  if (doomed.empty()) return std::size_t{0};
  // ...unless a surviving entry depends on it: any kept entry reprieves
  // its whole ancestor chain (tree integrity — a parent outlives its
  // children). Iterate to a fixpoint; depth bounds the passes.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& bucket : txn.snap->buckets) {
      if (!bucket) continue;
      for (const auto& [key, node] : *bucket) {
        if (doomed.count(key)) continue;
        for (Dn p = node.entry->dn().Parent(); !p.IsRoot(); p = p.Parent()) {
          if (doomed.erase(p.ToString()) > 0) changed = true;
        }
      }
    }
  }
  // Tombstone deepest-first so replicas replaying the change log never see
  // a parent delete before its children's.
  std::vector<Dn> order;
  order.reserve(doomed.size());
  for (const std::string& key : doomed) {
    order.push_back(FindNode(*txn.snap, key)->entry->dn());
  }
  std::sort(order.begin(), order.end(),
            [](const Dn& a, const Dn& b) { return a.depth() > b.depth(); });
  std::vector<Change> changes;
  changes.reserve(order.size());
  for (const Dn& dn : order) {
    const std::string key = dn.ToString();
    MutableBucket(txn, BucketOf(key)).erase(key);
    --txn.snap->entry_count;
    txn.dirty = true;
    Change change;
    change.type = Change::Type::kDelete;
    change.entry = Entry(dn);
    changes.push_back(std::move(change));
  }
  const std::size_t reaped = order.size();
  counters_.leases_expired.fetch_add(reaped, std::memory_order_relaxed);
  counters_.writes.fetch_add(reaped, std::memory_order_relaxed);
  LeaseInstruments().expirations.Add(reaped);
  CommitLocked(&txn, std::move(changes));
  return reaped;
}

void DirectoryServer::SetClock(const Clock* clock) {
  clock_.store(clock, std::memory_order_release);
}

// -------------------------------------------------------------- reads

Result<Entry> DirectoryServer::Lookup(const Dn& dn,
                                      const std::string& principal,
                                      bool live_only) const {
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kRead, dn, principal));
  const Clock* clock = clock_.load(std::memory_order_acquire);
  if (live_only && clock == nullptr) {
    return Status::InvalidArgument("live_only lookup needs SetClock: " +
                                   address_);
  }
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  auto snap = LoadSnapshot();
  const Node* node = FindNode(*snap, dn.ToString());
  if (node == nullptr) {
    return Status::NotFound("no entry: " + dn.ToString());
  }
  if (live_only && !LiveAt(*node, clock->Now())) {
    counters_.live_only_filtered.fetch_add(1, std::memory_order_relaxed);
    LeaseInstruments().live_only_filtered.Increment();
    return Status::NotFound("lease expired: " + dn.ToString());
  }
  return Materialize(*node);
}

std::string DirectoryServer::CacheKey(const Dn& base, SearchScope scope,
                                      const Filter& filter) const {
  return base.ToString() + "\x1f" +
         std::to_string(static_cast<int>(scope)) + "\x1f" + filter.ToString();
}

Result<SearchResult> DirectoryServer::Search(
    const Dn& base, SearchScope scope, const Filter& filter,
    const std::string& principal, bool live_only) const {
  JAMM_RETURN_IF_ERROR(CheckAlive());
  JAMM_RETURN_IF_ERROR(CheckAccess(Operation::kRead, base, principal));
  const Clock* clock = clock_.load(std::memory_order_acquire);
  if (live_only && clock == nullptr) {
    return Status::InvalidArgument("live_only search needs SetClock: " +
                                   address_);
  }
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  auto snap = LoadSnapshot();

  // The cache stores DN keys, never entry bodies: hits re-materialize from
  // the live snapshot, so lease values are always the authoritative cell
  // (a cached result can neither resurrect the reaped nor hide the
  // renewed) and entry attributes are current. Structural writes clear it.
  const auto materialize_keys =
      [&](const std::vector<std::string>& keys,
          std::vector<Referral> referrals) -> SearchResult {
    SearchResult out;
    out.referrals = std::move(referrals);
    const TimePoint now = live_only ? clock->Now() : 0;
    out.entries.reserve(keys.size());
    for (const std::string& key : keys) {
      const Node* node = FindNode(*snap, key);
      if (node == nullptr) continue;  // raced a structural delete
      if (live_only && !LiveAt(*node, now)) {
        counters_.live_only_filtered.fetch_add(1, std::memory_order_relaxed);
        LeaseInstruments().live_only_filtered.Increment();
        continue;
      }
      out.entries.push_back(Materialize(*node));
    }
    return out;
  };

  const std::string cache_key = CacheKey(base, scope, filter);
  std::optional<CachedSearch> cached;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    if (auto it = search_cache_.find(cache_key); it != search_cache_.end()) {
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      cached = it->second;
    } else {
      counters_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (cached) {
    // Materialize outside the cache lock: keys → current snapshot nodes.
    return materialize_keys(cached->keys, std::move(cached->referrals));
  }

  std::vector<std::string> keys;
  for (const auto& bucket : snap->buckets) {
    if (!bucket) continue;
    for (const auto& [key, node] : *bucket) {
      const Dn& dn = node.entry->dn();
      const bool in_scope = scope == SearchScope::kBase
                                ? dn == base
                                : scope == SearchScope::kOneLevel
                                      ? dn.IsChildOf(base)
                                      : dn.IsUnder(base);
      if (in_scope && filter.Matches(*node.entry)) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());  // buckets iterate hashed; callers
                                        // expect DN order
  // Continuation references: referrals whose subtree intersects the search.
  std::vector<Referral> referrals;
  for (const auto& ref : snap->referrals) {
    if (ref.suffix.IsUnder(base) || base.IsUnder(ref.suffix)) {
      referrals.push_back(ref);
    }
  }
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    search_cache_[cache_key] = CachedSearch{keys, referrals};
  }
  return materialize_keys(keys, std::move(referrals));
}

// ------------------------------------------------------ bind / access

void DirectoryServer::SetCredential(const Dn& user,
                                    const std::string& password) {
  std::lock_guard lock(mu_);
  creds_[user.ToString()] = password;
}

Status DirectoryServer::Bind(const Dn& user,
                             const std::string& password) const {
  std::lock_guard lock(mu_);
  JAMM_RETURN_IF_ERROR(CheckAlive());
  auto it = creds_.find(user.ToString());
  if (it == creds_.end() || it->second != password) {
    return Status::PermissionDenied("invalid credentials for " +
                                    user.ToString());
  }
  return Status::Ok();
}

void DirectoryServer::SetAccessChecker(AccessChecker checker) {
  auto shared = std::make_shared<const AccessChecker>(std::move(checker));
  std::lock_guard<std::mutex> latch(snap_mu_);
  access_checker_ = std::move(shared);
}

// ---------------------------------------------------------- referrals

void DirectoryServer::AddReferral(Dn suffix, std::string target) {
  std::lock_guard lock(mu_);
  Txn txn = BeginTxn();
  Change change;
  change.type = Change::Type::kReferral;
  change.entry = Entry(suffix);
  change.referral_target = target;
  txn.snap->referrals.push_back({std::move(suffix), std::move(target)});
  txn.dirty = true;
  CommitLocked(&txn, {std::move(change)});
}

// -------------------------------------------------------- replication

std::uint64_t DirectoryServer::last_seq() const {
  return last_seq_.load(std::memory_order_acquire);
}

Status DirectoryServer::ApplyReplicatedBatch(
    const std::vector<Change>& changes, std::size_t* applied) {
  std::lock_guard lock(mu_);
  if (applied != nullptr) *applied = 0;
  JAMM_RETURN_IF_ERROR(CheckAlive());
  Txn txn = BeginTxn();
  std::vector<Change> accepted;
  accepted.reserve(changes.size());
  for (const Change& change : changes) {
    // Replication carries the primary's log order — referral write-guards
    // don't apply; the log is the authority.
    Status s = ApplyChangeTxn(txn, change);
    if (!s.ok()) {
      // Commit what landed so a partial batch is still durable.
      CommitLocked(&txn, std::move(accepted));
      return s;
    }
    accepted.push_back(change);
    if (applied != nullptr) ++*applied;
  }
  CommitLocked(&txn, std::move(accepted));
  return Status::Ok();
}

// ---------------------------------------------------- crash / recovery

void DirectoryServer::SetAlive(bool alive) {
  alive_.store(alive, std::memory_order_release);
}

bool DirectoryServer::alive() const {
  return alive_.load(std::memory_order_acquire);
}

void DirectoryServer::Crash() {
  std::lock_guard lock(mu_);
  alive_.store(false, std::memory_order_release);
  // The process dies: volatile state is gone, and so is any WAL tail that
  // was appended but never fsync-simulated (nothing acked is in it).
  wal_->storage()->DropUnsynced();
  {
    std::lock_guard<std::mutex> latch(snap_mu_);
    snap_ = std::make_shared<const Snapshot>();
  }
  next_seq_ = 1;
  last_seq_.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  search_cache_.clear();
}

DirectoryServer::RecoveryStats DirectoryServer::Restart() {
  std::lock_guard lock(mu_);
  RecoveryStats stats;
  Txn txn;
  txn.snap = std::make_shared<Snapshot>();
  txn.cloned.fill(false);
  std::uint64_t max_seq = 0;
  auto replay = wal_->Replay([&](const Change& change) {
    // Replay is lenient the same way replication is; a log the server
    // itself acked always applies cleanly.
    ApplyChangeTxn(txn, change).ok();
    if (change.seq > max_seq) max_seq = change.seq;
  });
  stats.records_replayed = replay.records;
  stats.truncated_bytes = replay.truncated_bytes;
  stats.entries = txn.snap->entry_count;
  stats.last_seq = max_seq;
  next_seq_ = max_seq + 1;
  last_seq_.store(max_seq, std::memory_order_release);
  {
    std::lock_guard<std::mutex> latch(snap_mu_);
    snap_ = txn.snap;
  }
  counters_.snapshot_swaps.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    search_cache_.clear();
  }
  alive_.store(true, std::memory_order_release);
  return stats;
}

// --------------------------------------------------------------- stats

DirectoryServer::Stats DirectoryServer::stats() const {
  Stats s;
  s.reads = counters_.reads.load(std::memory_order_relaxed);
  s.writes = counters_.writes.load(std::memory_order_relaxed);
  s.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = counters_.cache_misses.load(std::memory_order_relaxed);
  s.entries = LoadSnapshot()->entry_count;
  s.leases_renewed = counters_.leases_renewed.load(std::memory_order_relaxed);
  s.leases_expired = counters_.leases_expired.load(std::memory_order_relaxed);
  s.live_only_filtered =
      counters_.live_only_filtered.load(std::memory_order_relaxed);
  s.snapshot_swaps = counters_.snapshot_swaps.load(std::memory_order_relaxed);
  s.wal_commits = wal_->fsyncs();
  return s;
}

}  // namespace jamm::directory
