// Directory replication and failover. The paper (§2.2): "LDAP also
// supports the notion of replicated servers, providing fault tolerance.
// Replication is critical to JAMM. Otherwise, failure of the sensor
// directory server could take down the entire system."
//
// Replicator ships the primary's write-ahead log to replicas in batches
// by byte offset (ISSUE 9): a replica resumes catch-up from wherever it
// left off — including from empty after a crash — without the primary
// keeping an in-memory change list. Unreachable replicas are re-probed
// with bounded backoff instead of being silently skipped every round,
// with `dir.replica.{lagging,resynced}` telemetry.
//
// DirectoryPool is the consumer-side view: reads fail over across the
// member list, writes stick to a promoted primary (quorum-aware: the
// most caught-up live server wins the promotion), and both sides chase
// referral entries across shards with a TTL'd referral cache (lease-driven
// invalidation — a cached route is never trusted longer than a lease).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "directory/server.hpp"
#include "resilience/breaker.hpp"

namespace jamm::directory {

class Replicator {
 public:
  explicit Replicator(std::shared_ptr<DirectoryServer> primary)
      : primary_(std::move(primary)) {}

  void AddReplica(std::shared_ptr<DirectoryServer> replica);

  /// Ship committed WAL frames each replica hasn't applied yet, in
  /// batches (one lock + one fsync per batch on the replica). A replica
  /// that is down or fails the push backs off exponentially (1, 2, 4, …
  /// up to `max_backoff_rounds` sync rounds) before the next probe, and
  /// counts toward `dir.replica.lagging`; when it comes back and catches
  /// up, `dir.replica.resynced` ticks. Returns changes applied across
  /// all replicas.
  std::size_t SyncAll();

  /// True if every live replica has applied the primary's full log.
  bool Converged() const;

  /// Highest sequence number durably applied by a majority of the group
  /// (primary + replicas) — the failover-safe promotion point.
  std::uint64_t QuorumSeq() const;

  /// Cap the re-probe backoff (default 8 rounds).
  void set_max_backoff_rounds(std::uint32_t rounds) {
    max_backoff_rounds_ = rounds == 0 ? 1 : rounds;
  }

  std::size_t replica_count() const { return replicas_.size(); }

  /// Catch-up offset of replica `i` into the primary's WAL (tests).
  std::uint64_t replica_offset(std::size_t i) const {
    return replicas_[i].offset;
  }

 private:
  struct Tracked {
    std::shared_ptr<DirectoryServer> server;
    std::uint64_t offset = 0;       // byte offset into the primary's WAL
    std::uint64_t applied_seq = 0;  // highest change applied
    std::uint32_t misses = 0;       // consecutive failed/skipped probes
    std::uint32_t skip_rounds = 0;  // backoff budget left before re-probe
    bool behind = false;            // fell behind while down (for resynced)
  };

  std::shared_ptr<DirectoryServer> primary_;
  std::vector<Tracked> replicas_;
  std::uint32_t max_backoff_rounds_ = 8;
};

/// Ordered server list with failover. Reads try each server in order
/// until one answers. Writes target the current write primary (initially
/// index 0) and, when it is down, fail over to the most caught-up live
/// server (highest last_seq — the quorum-election winner), which is
/// promoted to write primary (ISSUE 2/9). A write primary that died and
/// revived is stale until a Replicator rooted at the promoted server
/// pushes the missed changes back.
///
/// Sharding (ISSUE 9): when a server answers with a referral — a search
/// continuation, a NotFound where a referral covers the DN, or a write
/// aborted under a referral — the pool chases it: the target
/// address is resolved to a server (pool members by address, plus any
/// resolver the deployment registers for out-of-pool shards) and the
/// operation re-runs there, to a bounded depth. Resolved routes are
/// cached per subtree with a TTL (SetReferralCacheTtl — wire it to the
/// lease TTL so a stale route dies no later than a lease).
///
/// Optional per-server circuit breakers (SetBreakerPolicy) skip servers
/// that keep failing until their cooldown elapses, instead of probing a
/// corpse on every operation.
class DirectoryPool {
 public:
  void AddServer(std::shared_ptr<DirectoryServer> server);

  /// Enable per-server circuit breakers; `clock` drives the cooldown.
  void SetBreakerPolicy(const resilience::BreakerPolicy& policy,
                        const Clock& clock);

  /// Resolve a referral target address to a server that is not a pool
  /// member (a per-site shard). Pool members resolve by address
  /// automatically; the resolver is consulted for everything else.
  using Resolver =
      std::function<std::shared_ptr<DirectoryServer>(const std::string&)>;
  void SetResolver(Resolver resolver);

  /// Cache chased referral routes for `ttl` on `clock`. Without a TTL the
  /// cache is disabled and every referral is chased through the shard
  /// that issued it.
  void SetReferralCacheTtl(Duration ttl, const Clock& clock);

  Result<Entry> Lookup(const Dn& dn, const std::string& principal = "",
                       bool live_only = false);
  Result<SearchResult> Search(const Dn& base, SearchScope scope,
                              const Filter& filter,
                              const std::string& principal = "",
                              bool live_only = false);
  Status Upsert(const Entry& entry, const std::string& principal = "");
  /// One transaction on the write primary (shard-chased per entry group).
  Status UpsertBatch(const std::vector<Entry>& entries,
                     const std::string& principal = "");
  Status Delete(const Dn& dn, const std::string& principal = "");

  /// Heartbeat batch (ISSUE 4): renew every entry in `dns` to `expiry` on
  /// the current write primary (sticky failover like any write); DNs the
  /// primary referred away are re-grouped per shard and renewed there.
  /// Entries no shard knows land in `missing` so the owner re-publishes.
  Result<std::size_t> RenewLeases(const std::vector<Dn>& dns, TimePoint expiry,
                                  const std::string& principal = "",
                                  std::vector<Dn>* missing = nullptr);

  /// Address of the server that satisfied the most recent read; lets
  /// tests and benches observe failover happening.
  const std::string& last_served_by() const { return last_served_by_; }

  /// Address of the current write primary (promotion target after write
  /// failover); empty for an empty pool.
  std::string write_primary() const;

  std::size_t size() const { return servers_.size(); }
  std::size_t referral_cache_size() const { return referral_cache_.size(); }

 private:
  static constexpr std::size_t kMaxChase = 4;

  /// True if server `i` may be tried now (breaker closed or probing).
  bool AllowServer(std::size_t i);
  void RecordOutcome(std::size_t i, const Status& status);
  Status WriteOp(const std::function<Status(DirectoryServer&)>& op);

  std::shared_ptr<DirectoryServer> Resolve(const std::string& address) const;
  /// Cached route covering `dn` (deepest match, unexpired), if any.
  std::shared_ptr<DirectoryServer> CachedRoute(const Dn& dn);
  void CacheRoute(const Dn& suffix, const std::string& target);
  void DropRoutesTo(const std::string& target);
  /// Run `op` against the shard chain starting at `first` (a referral the
  /// pool just received for `dn`), following further referrals up to
  /// kMaxChase; caches the final route on success.
  Status ChaseWrite(const Referral& first, const Dn& dn,
                    const std::function<Status(DirectoryServer&)>& op);

  std::vector<std::shared_ptr<DirectoryServer>> servers_;
  std::vector<std::unique_ptr<resilience::CircuitBreaker>> breakers_;
  resilience::BreakerPolicy breaker_policy_;
  const Clock* breaker_clock_ = nullptr;
  std::size_t write_index_ = 0;
  std::string last_served_by_;

  Resolver resolver_;
  struct Route {
    Dn suffix;
    std::string target;
    TimePoint expires = 0;  // 0 == never (cache TTL unset)
  };
  std::map<std::string, Route> referral_cache_;  // key: suffix string
  Duration referral_ttl_ = 0;
  const Clock* referral_clock_ = nullptr;
};

}  // namespace jamm::directory
