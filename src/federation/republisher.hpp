// RepublisherGateway (ISSUE 6) — one level of a hierarchical gateway
// federation. The paper's scalability argument (§2.3) is that a gateway
// multiplies one sensor stream to N consumers; a republisher applies the
// same argument one level up: it subscribes (as a batched, reconnecting
// GatewayClient) to N downstream gateways, merges their streams into one
// deduplicated, time-ordered feed, and re-exports that feed through the
// normal GatewaySurface — so a GatewayService can front it and the next
// tier up subscribes to it exactly like a leaf gateway. Trees of arbitrary
// depth compose out of existing pieces.
//
// Filter/summary pushdown: a subscription whose FilterSpec a downstream
// can evaluate (on-change / threshold / delta, or a glob-restricted "all")
// is not served from the local fan-out. Instead the spec is forwarded
// downstream — the leaf gateway filters at the source, and only surviving
// events cross the wire. Subscriptions with identical specs share one
// pushdown group (one downstream stream per child, not per subscriber).
// A downstream that predates the feature (supports_pushdown = false in
// its DownstreamSpec) is served by evaluating the same spec locally
// against its slice of the base stream — byte-identical output either way.
//
// Summary requests merge the children's 1/10/60-minute windows weighted
// by sample count, falling back to the locally-computed window when a
// child cannot answer.
//
// Single-threaded and poll-driven like every other component: the host
// loop calls Pump() to drain downstream feeds, then PollOnce() on the
// GatewayService fronting this republisher.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <array>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "gateway/filter.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "gateway/summary.hpp"
#include "ulm/flat.hpp"

namespace jamm::federation {

/// Drops exact duplicates and stale (time-travelling) records from one
/// merged stream. Keyed per source by the (host, prog, event) symbols: a
/// record older than the source's newest is stale; a record at the newest
/// timestamp is a duplicate iff its full ASCII form was already admitted
/// at that timestamp (same-timestamp records with different payloads are
/// legal) — compared by hashing the record's structure, not its ASCII.
class StreamDeduper {
 public:
  enum class Verdict { kAdmit, kDuplicate, kStale };
  Verdict Admit(const ulm::RecordView& view);
  std::size_t source_count() const { return sources_.size(); }

 private:
  using SourceKey = std::array<ulm::Symbol, 3>;  // host, prog, event
  struct SourceState {
    TimePoint last_ts = 0;
    bool has_last = false;
    std::vector<std::uint64_t> hashes_at_last_ts;  // structural FNV-1a
  };
  std::map<SourceKey, SourceState> sources_;
};

class RepublisherGateway : public gateway::GatewaySurface {
 public:
  /// Fetches one child's summary; injectable so single-threaded tests can
  /// bypass the blocking wire round-trip (the default fetcher calls
  /// GatewayClient::Summary, which needs the downstream service pumped
  /// concurrently).
  using SummaryFetcher = std::function<Result<gateway::SummaryData>(
      const std::string& child, gateway::GatewayClient& client,
      const std::string& event_name)>;

  struct Options {
    /// Records per gw.event.batch frame on downstream feeds.
    std::size_t batch_records = 32;
    /// Defer each child's base ("all") subscription until something needs
    /// it — a local subscriber or a local-eval fallback group.
    /// With this on, a tier whose only consumers are pushdown groups costs
    /// each leaf gateway exactly ONE outgoing stream.
    bool lazy_base_stream = false;
    SummaryFetcher summary_fetcher;  // null = blocking wire fetch
  };

  RepublisherGateway(std::string name, const Clock& clock, Options options);
  RepublisherGateway(std::string name, const Clock& clock)
      : RepublisherGateway(std::move(name), clock, Options{}) {}

  // ------------------------------------------------------- tree building

  struct DownstreamSpec {
    std::string name;  // child level or leaf gateway name
    gateway::GatewayClient::Dialer dialer;
    /// False for a downstream that predates filter pushdown: its slice of
    /// every pushdown group is evaluated locally instead.
    bool supports_pushdown = true;
    /// Credential presented to the child on every new connection via
    /// gw.auth (ISSUE 10) — typically a "cert\n…" bundle built with
    /// security::MakeCertAuthPayload from THIS republisher's identity
    /// (each tier presents its own certificate downstream, not the
    /// consumer's). Empty = connect unauthenticated. Once the child mints
    /// a capability token it is cached and preferred for subsequent
    /// connections, so tokens chase the tree instead of re-running the
    /// full certificate evaluation per feed.
    std::string auth_payload;
  };
  Status AddDownstream(DownstreamSpec spec);
  std::size_t downstream_count() const { return downstreams_.size(); }

  /// Drain every downstream feed: merge, time-order, dedup, and republish
  /// base-stream records through the local fan-out; deliver pushdown-group
  /// records to their members. Returns records processed (admitted or
  /// dropped). Also (re-)establishes any base feeds that became needed.
  std::size_t Pump();

  // ----------------------------------------------------- GatewaySurface

  const std::string& name() const override { return name_; }
  const Clock& clock() const override { return local_.clock(); }

  /// Local injection — the republisher's own events (gw.overload from the
  /// service fronting it, overview alerts) enter the local fan-out here.
  void Publish(ulm::FlatRecord& rec) override;

  Result<std::string> SubscribeEncoded(
      const std::string& consumer, gateway::FilterSpec spec,
      EncodedCallback callback, const std::string& principal = "") override;
  Status Unsubscribe(const std::string& subscription_id) override;

  Result<ulm::FlatRecord> Query(
      const std::string& event_glob = "",
      const std::string& principal = "") const override;
  Result<std::string> QueryXml(
      const std::string& event_glob = "",
      const std::string& principal = "") const override;

  /// Children's summaries merged weighted by sample count; any child
  /// failure falls back to the local window over the base stream.
  Result<gateway::SummaryData> GetSummary(
      const std::string& event_name,
      const std::string& principal = "") const override;

  /// A republisher owns no sensors; control must target the leaf gateway.
  Status StartSensor(const std::string& sensor,
                     const std::string& principal = "") override;
  Status StopSensor(const std::string& sensor,
                    const std::string& principal = "") override;

  // ------------------------------------------------------------- local

  /// The embedded EventGateway serving non-pushed subscriptions, queries,
  /// and the local summary fallback. Access control set here governs the
  /// whole surface (pushdown subscriptions are checked against it too).
  gateway::EventGateway& local() { return local_; }
  const gateway::EventGateway& local() const { return local_; }

  /// Track local 1/10/60-minute summaries of `event_name` over the merged
  /// base stream (the pushdown-era fallback for GetSummary).
  void EnableSummary(const std::string& event_name,
                     const std::string& value_field = "VAL");

  // ----------------------------------------------------------- telemetry

  /// Exact accounting: records_in == republished + pushdown_records +
  /// duplicates_dropped + stale_dropped — every record entering the
  /// republisher lands in exactly one bucket.
  struct Stats {
    std::uint64_t records_in = 0;         // arrived on any feed (or Publish)
    std::uint64_t republished = 0;        // entered the local fan-out
    std::uint64_t pushdown_records = 0;   // delivered via a pushdown feed
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t stale_dropped = 0;
    std::uint64_t summary_merges = 0;
    std::uint64_t summary_fallbacks = 0;
    std::size_t downstreams = 0;
    std::size_t pushdown_groups = 0;
  };
  Stats stats() const;

  std::size_t pushdown_group_count() const { return groups_.size(); }

 private:
  struct Downstream {
    std::string name;
    gateway::GatewayClient::Dialer dialer;
    bool supports_pushdown = true;
    /// Credential replayed on every fresh connection (DownstreamSpec).
    std::string auth_payload;
    /// Last capability token the child minted for this republisher,
    /// harvested from the base feed in Pump(). New feed/summary clients
    /// present this (cheap token verify) instead of the full certificate
    /// bundle. When the child refuses a replayed token (expired TTL),
    /// Pump()'s RecoverChildAuth notices the rejection, retires the dead
    /// token, and re-authenticates the client with the cert bundle —
    /// which mints a fresh token for the next harvest.
    std::string cached_token;
    /// Base "all" feed; null until EnsureBaseFeeds decides it is needed.
    std::unique_ptr<gateway::GatewayClient> base;
    /// Lazy request/reply client for summary fetches (kept off the event
    /// feeds so a blocking reply wait never swallows stream traffic).
    std::unique_ptr<gateway::GatewayClient> summary;
  };

  struct GroupMember {
    std::string id;
    std::string consumer;
    EncodedCallback callback;
    bool active = true;
  };

  /// One pushdown group: every subscription sharing a FilterSpec. Children
  /// that can evaluate the spec feed it over dedicated filtered streams;
  /// the rest are evaluated locally against the base stream.
  struct PushdownGroup {
    gateway::FilterSpec spec;
    std::vector<std::shared_ptr<GroupMember>> members;
    /// child name → dedicated filtered feed (supports_pushdown children).
    /// Separate connections per (group × child) because event messages
    /// carry no subscription id — streams on a shared connection could
    /// not be demultiplexed back to their group.
    std::map<std::string, std::unique_ptr<gateway::GatewayClient>> feeds;
    /// child name → local filter state (non-pushdown children).
    std::map<std::string, gateway::EventFilter> local_eval;
    StreamDeduper dedup;
  };

  /// A merged record: a view into a feed's drained batch, and its child.
  struct WaveEntry { ulm::RecordView view; std::size_t child; };
  /// Time-order wave_, dedup it, pass each admitted entry to `on_admit`;
  /// returns the records processed.
  template <typename OnAdmit>
  std::size_t AdmitWave(StreamDeduper& dedup, OnAdmit&& on_admit);

  void EnsureBaseFeeds();
  /// Re-authenticate any child client whose credential the child refused
  /// (ISSUE 10): retire a rejected cached token and fall back to a
  /// fresher token or the cert bundle, replaying the client's
  /// subscriptions under the restored identity.
  void RecoverChildAuth();
  /// New connection to `child`, authenticated with the cached token when
  /// one exists, else the configured auth payload (ISSUE 10).
  std::unique_ptr<gateway::GatewayClient> MakeChildClient(
      Downstream& child) const;
  void AttachChildToGroup(PushdownGroup& group, const std::string& group_key,
                          Downstream& child);
  /// Encode once, deliver to every active member.
  void DeliverToGroup(PushdownGroup& group, const ulm::RecordView& view);
  /// Admit one base-stream record from `child`: fallback eval, then
  /// republish (which stamps a copy in place).
  void AdmitBaseRecord(const std::string& child, const ulm::RecordView& view);
  bool GroupNeedsChildBase(const std::string& child) const;

  std::string name_;
  Options options_;
  gateway::EventGateway local_;
  /// mutable: GetSummary() is logically const but must lazily create and
  /// drive the per-child summary clients (channel IO mutates them anyway).
  mutable std::vector<Downstream> downstreams_;
  std::map<std::string, PushdownGroup> groups_;  // key: spec.ToString()
  StreamDeduper base_dedup_;
  std::vector<WaveEntry> wave_;  // reused by every merge of every Pump
  ulm::FlatRecord republish_;    // reused copy each admitted record stamps
  std::string deliver_buffer_;   // DeliverToGroup's reused binary encode
  bool delivering_ = false;      // a DeliverToGroup is on the stack
  mutable Stats stats_;
};

}  // namespace jamm::federation
