// Deterministic chaos harness (ISSUE 4). Every scenario drives the full
// stack — managers, directory replicas, gateways, consumers — through a
// seeded CrashSchedule on a SimClock, then asserts the liveness layer's
// convergence invariants:
//
//   * a crashed manager's directory entries expire from the primary AND
//     every replica within 2×TTL of simulated time;
//   * a crash-looping process is quarantined within the supervision
//     window and never restarted again;
//   * consumers using live_only discovery only ever see live gateways;
//   * a slow consumer cannot grow gateway memory past its queue bound,
//     and the delivered/dropped/queued accounting stays exact.
//
// Everything is seeded and clocked: reruns are bit-identical, so a chaos
// failure is a debuggable failure (ctest label: chaos).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "consumers/process_monitor.hpp"
#include "security/akenti.hpp"
#include "security/certificate.hpp"
#include "security/crypto.hpp"
#include "security/token.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "directory/wal.hpp"
#include "telemetry/metrics.hpp"
#include "gateway/gateway.hpp"
#include "federation/republisher.hpp"
#include "gateway/service.hpp"
#include "manager/sensor_manager.hpp"
#include "resilience/fault.hpp"
#include "transport/inproc.hpp"
#include "record_helpers.hpp"

namespace jamm {
namespace {

using directory::Dn;
using directory::schema::GatewayDn;
using directory::schema::SensorDn;

constexpr char kVmstatConfig[] = R"(
[sensor]
name = vmstat
kind = vmstat
interval_ms = 1000
mode = always
)";

/// One host's slice of the deployment: machine, gateway, manager.
struct SimSite {
  SimSite(const std::string& host_name, SimClock& clock, const Dn& suffix,
          directory::DirectoryPool& pool)
      : host(host_name, clock), gateway("gw." + host_name, clock) {
    manager::SensorManager::Options options;
    options.clock = &clock;
    options.host = &host;
    options.gateway = &gateway;
    options.directory = &pool;
    options.directory_suffix = suffix;
    options.gateway_address = "inproc:gw." + host_name;
    options.lease_ttl = 10 * kSecond;
    options.heartbeat_interval = 3 * kSecond;
    manager.emplace(std::move(options));
    auto config = Config::ParseString(kVmstatConfig);
    EXPECT_TRUE(config.ok());
    EXPECT_TRUE(manager->ApplyConfig(*config).ok());
  }

  sysmon::SimHost host;
  gateway::EventGateway gateway;
  std::optional<manager::SensorManager> manager;
};

TEST(ChaosTest, CrashedManagerEntriesExpireOnEveryReplica) {
  constexpr Duration kTtl = 10 * kSecond;
  constexpr TimePoint kCrashAt = 20 * kSecond;
  SimClock clock(0);
  const Dn suffix = *Dn::Parse("ou=sensors, o=jamm");

  auto primary =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://primary");
  auto replica1 =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://r1");
  auto replica2 =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://r2");
  for (auto& server : {primary, replica1, replica2}) server->SetClock(&clock);
  directory::Replicator replicator(primary);
  replicator.AddReplica(replica1);
  replicator.AddReplica(replica2);
  directory::DirectoryPool pool;
  pool.AddServer(primary);

  SimSite alpha("alpha.lbl.gov", clock, suffix, pool);
  SimSite beta("beta.lbl.gov", clock, suffix, pool);
  const Dn alpha_dn = SensorDn(suffix, "alpha.lbl.gov", "vmstat");
  const Dn beta_dn = SensorDn(suffix, "beta.lbl.gov", "vmstat");

  // replica2 crashes and revives on a seeded schedule throughout the run
  // (scenario D): it must still converge whenever it is up.
  resilience::CrashSchedule replica_schedule(/*seed=*/7, 6 * kSecond,
                                             3 * kSecond);

  TimePoint beta_gone_everywhere = -1;
  for (TimePoint now = 0; now <= 60 * kSecond; now = clock.Now()) {
    alpha.manager->Tick();
    if (now < kCrashAt) beta.manager->Tick();  // beta's host dies at 20s

    replica2->SetAlive(replica_schedule.AliveAt(now));
    (void)primary->ExpireLeases(now);  // the reaper sweep
    replicator.SyncAll();

    // The live manager's entry must never disappear.
    ASSERT_TRUE(primary->Lookup(alpha_dn).ok()) << "at t=" << now;
    // Record when the crashed manager vanished from primary + the
    // always-alive replica (replica2 converges when it revives).
    if (beta_gone_everywhere < 0 && !primary->Lookup(beta_dn).ok() &&
        !replica1->Lookup(beta_dn).ok()) {
      beta_gone_everywhere = now;
    }
    clock.Advance(kSecond);
  }

  // Convergence bound: gone from every live replica within 2×TTL.
  ASSERT_GE(beta_gone_everywhere, 0);
  EXPECT_LE(beta_gone_everywhere, kCrashAt + 2 * kTtl);

  // Revive replica2 and let replication catch up: all three converge on
  // the same world — alpha alive, beta tombstoned.
  replica2->SetAlive(true);
  replicator.SyncAll();
  EXPECT_TRUE(replicator.Converged());
  for (auto& server : {primary, replica1, replica2}) {
    EXPECT_TRUE(server->Lookup(alpha_dn).ok()) << server->address();
    EXPECT_FALSE(server->Lookup(beta_dn).ok()) << server->address();
    EXPECT_FALSE(
        server->Lookup(GatewayDn(suffix, "beta.lbl.gov")).ok())
        << server->address();
  }

  // Scenario C: live_only discovery only surfaces live gateways.
  auto filter = directory::Filter::Parse("(objectclass=jammGateway)");
  ASSERT_TRUE(filter.ok());
  auto found = pool.Search(suffix, directory::SearchScope::kSubtree, *filter,
                           "", /*live_only=*/true);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->entries.size(), 1u);
  EXPECT_EQ(found->entries[0].Get(directory::schema::kAttrAddress),
            "inproc:gw.alpha.lbl.gov");
}

TEST(ChaosTest, CrashLoopingProcessIsQuarantinedWithinWindow) {
  SimClock clock(0);
  sysmon::SimHost host("server1", clock);
  gateway::EventGateway gw("gw", clock);
  consumers::ProcessMonitorConsumer monitor("procmon", clock);

  std::vector<ulm::Record> quarantine_events;
  gateway::FilterSpec spec;
  spec.event_glob = consumers::kProcQuarantined;
  auto keep_quarantine_events = [&](const ulm::EncodedRecord& enc) {
    quarantine_events.push_back(enc.view().ToRecord());
  };
  ASSERT_TRUE(gw.SubscribeEncoded("ops", spec, keep_quarantine_events).ok());

  consumers::ProcessActions actions;
  actions.restart.emplace();
  actions.restart->initial_backoff = kSecond;
  actions.restart->max_restarts = 3;
  actions.restart->window = kMinute;
  ASSERT_TRUE(monitor.Watch(gw, &host, "dpss", actions).ok());
  host.StartProcess("dpss");

  // The process's fate comes from a seeded schedule: short uptimes, so it
  // dies faster than backoff restarts can stabilise it — a crash loop.
  resilience::CrashSchedule process_schedule(/*seed=*/11, 2 * kSecond,
                                             kSecond);
  TimePoint quarantined_at = -1;
  for (TimePoint now = 0; now <= 2 * kMinute; now = clock.Now()) {
    auto proc = host.FindProcess("dpss");
    if (proc && proc->running && !process_schedule.AliveAt(now)) {
      host.StopProcess("dpss", /*crashed=*/true);
      ulm::Record death(now, "server1", "procmon", "Error",
                        sensors::event::kProcDiedAbnormal);
      death.SetField("PROC", "dpss");
      test::Publish(gw, death);
    }
    monitor.Tick();  // executes backoff restarts that came due
    if (quarantined_at < 0 && monitor.IsQuarantined("dpss")) {
      quarantined_at = now;
    }
    clock.Advance(500 * kMillisecond);
  }

  // Quarantined within one supervision window of the first death.
  ASSERT_GE(quarantined_at, 0);
  EXPECT_LE(quarantined_at, actions.restart->window);
  ASSERT_EQ(quarantine_events.size(), 1u);
  EXPECT_EQ(*quarantine_events[0].GetField("PROC"), "dpss");
  // Quarantine is terminal: the monitor granted no restart after it.
  const auto restarts = monitor.stats().restarts;
  EXPECT_LE(restarts, static_cast<std::uint64_t>(
                          actions.restart->max_restarts));
  EXPECT_FALSE(host.FindProcess("dpss")->running);
  EXPECT_EQ(monitor.stats().quarantines, 1u);
}

TEST(ChaosTest, SlowConsumerStaysBoundedUnderChaos) {
  constexpr std::size_t kQueueCap = 16;
  SimClock clock(0);
  gateway::EventGateway gw("gw", clock);
  transport::InProcNetwork net;
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(gw, std::move(*listener));

  auto channel = net.Dial("gw");
  ASSERT_TRUE(channel.ok());
  gateway::GatewayClient client(std::move(*channel));
  service.PollOnce();  // accept
  ASSERT_TRUE(client.channel()
                  .Send({"gw.subscribe",
                         "slow\nall|CPU*\n\nqueue:drop-oldest:16"})
                  .ok());
  service.PollOnce();
  auto reply = client.channel().Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, "gw.ok");

  // The consumer drains only while its seeded schedule says it is healthy;
  // its long sick segments overflow first the transport buffer
  // (transport::kInProcChannelCapacity messages), then the bounded queue —
  // where the protection kicks in.
  resilience::CrashSchedule consumer_schedule(/*seed=*/3, 4 * kSecond,
                                              30 * kSecond);
  std::uint64_t published = 0;
  std::uint64_t received = 0;
  for (TimePoint now = 0; now <= 2 * kMinute; now = clock.Now()) {
    for (int i = 0; i < 300; ++i) {
      ulm::Record rec(now, "h", "sensor", "Usage", "CPU");
      rec.SetField("VAL", static_cast<std::int64_t>(published++));
      test::Publish(gw, rec);
    }
    service.PollOnce();
    if (consumer_schedule.AliveAt(now)) {
      received += client.DrainEvents().size();
    }
    // The core memory invariant: no matter how long the consumer has been
    // sick, the gateway holds at most kQueueCap messages for it.
    for (const auto& q : service.QueueStats()) {
      ASSERT_LE(q.queued_messages, kQueueCap) << "at t=" << now;
    }
    clock.Advance(kSecond);
  }

  // Let the consumer fully recover, then check exact accounting:
  // every published event was either delivered, dropped, or still queued —
  // and after a full drain, delivered matches what the client saw.
  received += client.DrainEvents().size();
  service.PollOnce();
  received += client.DrainEvents().size();
  auto stats = service.QueueStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].sent_records + stats[0].dropped_records +
                stats[0].queued_records,
            published);
  EXPECT_EQ(received, stats[0].sent_records);
  EXPECT_GT(stats[0].dropped_records, 0u);  // the chaos actually bit
}

// ISSUE 6 satellite: kill a mid-tier republisher under a seeded
// CrashSchedule while the leaf keeps publishing and a root consumer keeps
// draining through a reconnecting client. Invariants:
//   * the root never sees a sequence number twice (no duplicates across
//     crash/replay boundaries);
//   * every republisher incarnation's accounting is exact (records_in ==
//     republished + pushdown + duplicates + stale);
//   * after the final revival the tree reconverges — a marker event
//     published at the leaf reaches the root.
TEST(ChaosTest, FederationTreeReconvergesAfterMidTierCrashes) {
  SimClock clock(0);
  transport::InProcNetwork net;

  gateway::EventGateway leaf("leaf", clock);  // the leaf stays up
  auto leaf_listener = net.Listen("leaf");
  ASSERT_TRUE(leaf_listener.ok());
  gateway::GatewayService leaf_service(leaf, std::move(*leaf_listener));

  std::unique_ptr<federation::RepublisherGateway> site;
  std::unique_ptr<gateway::GatewayService> site_service;
  auto revive_site = [&] {
    site = std::make_unique<federation::RepublisherGateway>("site", clock);
    ASSERT_TRUE(
        site->AddDownstream(
                {"leaf", [&net] { return net.Dial("leaf"); }, true, ""})
            .ok());
    auto listener = net.Listen("site");
    ASSERT_TRUE(listener.ok());
    site_service = std::make_unique<gateway::GatewayService>(
        *site, std::move(*listener));
  };
  revive_site();

  // Accumulate accounting across incarnations (a crash discards the
  // in-memory stats with the object).
  federation::RepublisherGateway::Stats total;
  auto accumulate = [&] {
    const auto stats = site->stats();
    total.records_in += stats.records_in;
    total.republished += stats.republished;
    total.pushdown_records += stats.pushdown_records;
    total.duplicates_dropped += stats.duplicates_dropped;
    total.stale_dropped += stats.stale_dropped;
  };

  gateway::GatewayClient root([&net] { return net.Dial("site"); });
  ASSERT_TRUE(root.SubscribeBatchedAsync("root", {}, 8).ok());

  resilience::CrashSchedule schedule(/*seed=*/13, 8 * kSecond, 3 * kSecond);
  std::vector<std::int64_t> seqs;
  std::int64_t published = 0;
  bool site_up = true;
  bool chaos_over = false;  // reconvergence phase: schedule stops mattering
  int crashes = 0;

  auto step = [&](bool publish) {
    const bool alive = chaos_over || schedule.AliveAt(clock.Now());
    if (alive && !site_up) {
      revive_site();
      site_up = true;
    } else if (!alive && site_up) {
      accumulate();
      ++crashes;
      site_service.reset();
      site.reset();
      site_up = false;
    }
    if (publish) {
      ulm::Record rec(clock.Now(), "h1", "sensor", "Usage", "CPU");
      rec.SetField("SEQ", published++);
      rec.SetField("VAL", static_cast<double>(published % 100));
      test::Publish(leaf, rec);
    }
    leaf_service.PollOnce();
    if (site_up) {
      site->Pump();
      site_service->PollOnce();
    }
    const ulm::FlatBatch& events = root.DrainEvents();
    for (std::size_t e = 0; e < events.size(); ++e) {
      auto seq = events.View(e).GetInt(ulm::InternSymbol("SEQ"));
      ASSERT_TRUE(seq.ok());
      seqs.push_back(*seq);
    }
    clock.Advance(kSecond);
  };

  for (int i = 0; i < 120; ++i) step(/*publish=*/true);
  ASSERT_GT(crashes, 0) << "schedule never crashed the mid-tier";

  // Reconvergence: force the site up and keep it up (a new crash mid-check
  // would just be more of the same chaos), let subscriptions replay, then a
  // marker published at the leaf must reach the root.
  chaos_over = true;
  if (!site_up) {
    revive_site();
    site_up = true;
  }
  for (int i = 0; i < 3; ++i) step(/*publish=*/false);
  const std::int64_t marker = published;
  step(/*publish=*/true);
  for (int i = 0; i < 3; ++i) step(/*publish=*/false);

  // No duplicate deliveries at the root, ever.
  std::set<std::int64_t> unique_seqs(seqs.begin(), seqs.end());
  EXPECT_EQ(unique_seqs.size(), seqs.size());
  for (std::int64_t seq : seqs) EXPECT_LT(seq, published);
  // The marker made it through the revived tier.
  EXPECT_TRUE(unique_seqs.count(marker)) << "tree did not reconverge";
  // Outage loss is real (events published into a dead tier are shed, not
  // duplicated or resurrected)...
  EXPECT_LT(unique_seqs.size(), static_cast<std::size_t>(published));
  // ...and every record that DID enter a republisher incarnation is
  // accounted for exactly.
  accumulate();
  EXPECT_GT(total.records_in, 0u);
  EXPECT_EQ(total.records_in, total.republished + total.pushdown_records +
                                  total.duplicates_dropped +
                                  total.stale_dropped);
}

// ISSUE 9: seeded hard kills of the shard primary mid-heartbeat-storm and
// of the replica mid-catch-up. Crash() loses every volatile structure and
// the unsynced WAL tail; the invariants are:
//   * no acked write (structural or renewal) is ever lost — after the
//     final reconvergence every tracked entry is on both servers with at
//     least its last acked lease;
//   * once heartbeats for a subset stop, the pool reconverges — the dead
//     entries vanish from every server — within 2×TTL;
//   * accounting is exact: both servers end with precisely the modeled
//     entry count.
TEST(ChaosTest, DirectoryCrashStormLosesNoAckedWrite) {
  constexpr Duration kTtl = 10 * kSecond;
  SimClock clock(0);
  const Dn suffix = *Dn::Parse("ou=sensors, o=jamm");
  auto storage = std::make_shared<directory::WalStorage>();
  auto primary = std::make_shared<directory::DirectoryServer>(
      suffix, "ldap://primary", storage);
  auto replica =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://replica");
  primary->SetClock(&clock);
  replica->SetClock(&clock);
  directory::Replicator forward(primary);
  forward.AddReplica(replica);
  directory::DirectoryPool pool;
  pool.AddServer(primary);
  pool.AddServer(replica);

  // Population: four hosts, six leased sensors each, all acked up front.
  std::vector<Dn> all_sensors;
  std::vector<Dn> h3_sensors;
  for (int h = 0; h < 4; ++h) {
    const std::string host = "h" + std::to_string(h);
    ASSERT_TRUE(
        pool.Upsert(directory::schema::MakeHostEntry(suffix, host)).ok());
    for (int s = 0; s < 6; ++s) {
      auto entry = directory::schema::MakeSensorEntry(
          suffix, host, "s" + std::to_string(s), "cpu", "inproc:gw." + host,
          1000, 0);
      directory::schema::StampLease(entry, kTtl);
      ASSERT_TRUE(pool.Upsert(entry).ok());
      all_sensors.push_back(entry.dn());
      if (h == 3) h3_sensors.push_back(entry.dn());
    }
  }
  forward.SyncAll();
  ASSERT_TRUE(forward.Converged());
  const std::size_t initial_sensors = all_sensors.size();

  // Last ACKED lease expiry per DN — the durability contract under test.
  std::map<std::string, TimePoint> acked;
  for (const Dn& dn : all_sensors) acked[dn.ToString()] = kTtl;

  resilience::CrashSchedule primary_schedule(/*seed=*/5, 7 * kSecond,
                                             2 * kSecond);
  resilience::CrashSchedule replica_schedule(/*seed=*/9, 9 * kSecond,
                                             3 * kSecond);
  int primary_crashes = 0;
  int replica_crashes = 0;
  std::uint64_t acked_rounds = 0;
  std::uint64_t dark_rounds = 0;  // both servers down: nothing acked

  for (int tick = 0; tick <= 90; ++tick) {
    const TimePoint now = clock.Now();
    // Seeded HARD kills (volatile state + unsynced WAL tail gone), timed
    // to land mid-storm and mid-catch-up.
    if (!primary_schedule.AliveAt(now) && primary->alive()) {
      primary->Crash();
      ++primary_crashes;
    } else if (primary_schedule.AliveAt(now) && !primary->alive()) {
      primary->Restart();
    }
    if (!replica_schedule.AliveAt(now) && replica->alive()) {
      replica->Crash();
      ++replica_crashes;
    } else if (replica_schedule.AliveAt(now) && !replica->alive()) {
      replica->Restart();
    }

    // The heartbeat storm: every sensor renews every second, through the
    // pool (sticky write failover decides who acks).
    std::vector<Dn> missing;
    auto renewed = pool.RenewLeases(all_sensors, now + kTtl, "", &missing);
    if (renewed.ok()) {
      ++acked_rounds;
      std::set<std::string> missed;
      for (const Dn& dn : missing) missed.insert(dn.ToString());
      for (const Dn& dn : all_sensors) {
        if (!missed.count(dn.ToString())) acked[dn.ToString()] = now + kTtl;
      }
    } else {
      ++dark_rounds;
    }

    // Occasional new publication mid-storm.
    if (tick % 7 == 3) {
      auto extra = directory::schema::MakeSensorEntry(
          suffix, "h0", "extra" + std::to_string(tick), "cpu",
          "inproc:gw.h0", 1000, 0);
      directory::schema::StampLease(extra, now + kTtl);
      if (pool.Upsert(extra).ok()) {
        all_sensors.push_back(extra.dn());
        acked[extra.dn().ToString()] = now + kTtl;
      }
    }

    // Reads of the pre-chaos population fail over; they must succeed
    // whenever any server is up.
    if (primary->alive() || replica->alive()) {
      ASSERT_TRUE(
          pool.Lookup(all_sensors[tick % initial_sensors]).ok())
          << "at t=" << now;
    }

    forward.SyncAll();  // the replica may be killed mid-catch-up
    clock.Advance(kSecond);
  }
  ASSERT_GT(primary_crashes, 0) << "schedule never crashed the primary";
  ASSERT_GT(replica_crashes, 0) << "schedule never crashed the replica";
  ASSERT_GT(acked_rounds, 0u);

  // Reconverge: both up, ship both logs (failover writes live only in the
  // promoted server's WAL until pushed back).
  if (!primary->alive()) primary->Restart();
  if (!replica->alive()) replica->Restart();
  forward.SyncAll();
  directory::Replicator reverse(replica);
  reverse.AddReplica(primary);
  reverse.SyncAll();
  forward.SyncAll();
  EXPECT_TRUE(forward.Converged());

  // No acked write lost: every tracked entry is on both servers, carrying
  // at least its last acked lease wherever that lease is still ahead.
  const TimePoint storm_end = clock.Now();
  for (const auto& [dn_text, expiry] : acked) {
    const Dn dn = *Dn::Parse(dn_text);
    for (const auto& server : {primary, replica}) {
      auto entry = server->Lookup(dn);
      ASSERT_TRUE(entry.ok()) << dn_text << " lost on " << server->address();
      if (expiry > storm_end) {
        auto lease = directory::schema::LeaseExpiry(*entry);
        ASSERT_TRUE(lease.has_value());
        EXPECT_GE(*lease, expiry) << dn_text;
      }
    }
  }

  // Phase 2 — convergence bound: h3's manager dies (its heartbeats stop);
  // the reaper runs on the current write primary and the tombstones reach
  // every server within 2×TTL.
  std::vector<Dn> survivors;
  std::set<std::string> dead;
  for (const Dn& dn : h3_sensors) dead.insert(dn.ToString());
  for (const Dn& dn : all_sensors) {
    if (!dead.count(dn.ToString())) survivors.push_back(dn);
  }
  const TimePoint phase2_start = clock.Now();
  TimePoint gone_everywhere = -1;
  for (int tick = 0; tick <= 30; ++tick) {
    const TimePoint now = clock.Now();
    ASSERT_TRUE(pool.RenewLeases(survivors, now + kTtl).ok());
    auto write_primary =
        pool.write_primary() == "ldap://primary" ? primary : replica;
    ASSERT_TRUE(write_primary->ExpireLeases(now).ok());
    forward.SyncAll();
    reverse.SyncAll();
    if (gone_everywhere < 0) {
      bool all_gone = true;
      for (const std::string& dn_text : dead) {
        const Dn dn = *Dn::Parse(dn_text);
        if (primary->Lookup(dn).ok() || replica->Lookup(dn).ok()) {
          all_gone = false;
          break;
        }
      }
      if (all_gone) gone_everywhere = now;
    }
    clock.Advance(kSecond);
  }
  ASSERT_GE(gone_everywhere, 0) << "dead sensors never reaped everywhere";
  EXPECT_LE(gone_everywhere, phase2_start + 2 * kTtl);

  // Accounting exact: both servers hold precisely the modeled population —
  // four immortal hosts plus every tracked sensor except the reaped six.
  const std::size_t expected_entries = 4 + acked.size() - dead.size();
  EXPECT_EQ(primary->stats().entries, expected_entries);
  EXPECT_EQ(replica->stats().entries, expected_entries);
  for (const Dn& dn : survivors) {
    EXPECT_TRUE(primary->Lookup(dn).ok()) << dn.ToString();
    EXPECT_TRUE(replica->Lookup(dn).ok()) << dn.ToString();
  }
}

// ISSUE 10: the secured gateway under crash chaos. A client that sent its
// cert-bundle auth line is killed mid-handshake (the gateway dies before
// processing it); on revival the client's declarative credential replay
// must complete the handshake unaided. Then a policy reload revokes one
// principal while its subscription is live:
//   * the live subscription keeps streaming (enforcement is at subscribe
//     time — the per-event path re-checks nothing);
//   * the already-minted bearer token keeps working on NEW connections
//     until its not_after, and is refused after;
//   * fresh cert authentications under the new policy are denied;
//   * every sec.* audit event is accounted for exactly, including across
//     seeded crash/revive cycles where credentials replay repeatedly.
TEST(ChaosTest, SecuredGatewayCrashMidAuthAndPolicyReloadRace) {
  SimClock clock(kSecond);
  Rng rng(77);
  security::CertificateAuthority ca("/O=Grid/CN=chaos-ca", rng);

  security::PolicyEngine policy;
  const security::UseCondition alice_cond{
      {security::action::kSubscribe}, "/O=LBNL/CN=alice-chaos", "", ""};
  const security::UseCondition bob_cond{
      {security::action::kSubscribe}, "/O=LBNL/CN=bob-chaos", "", ""};
  policy.AddUseCondition("gw.sec", alice_cond);
  policy.AddUseCondition("gw.sec", bob_cond);

  security::Authorizer authorizer(policy, {ca.ca_certificate()}, clock);
  Rng authority_rng(78);
  authorizer.EnableTokens(security::TokenAuthority("gw.sec", authority_rng));
  authorizer.EnableDecisionCache();
  std::map<std::string, int> audits;  // event name -> count
  authorizer.SetAuditSink(
      [&audits](const ulm::Record& rec) { ++audits[rec.event_name()]; });

  const security::KeyPair alice_keys = security::GenerateKeyPair(rng);
  const security::Certificate alice_cert = ca.IssueIdentity(
      "/O=LBNL/CN=alice-chaos", alice_keys.public_key, 0, kHour);
  const security::KeyPair bob_keys = security::GenerateKeyPair(rng);
  const security::Certificate bob_cert = ca.IssueIdentity(
      "/O=LBNL/CN=bob-chaos", bob_keys.public_key, 0, kHour);

  transport::InProcNetwork net;
  std::unique_ptr<gateway::EventGateway> gw;
  std::unique_ptr<gateway::GatewayService> service;
  auto revive = [&] {
    gw = std::make_unique<gateway::EventGateway>("gw.sec", clock);
    gw->SetAccessChecker(authorizer.GatewayChecker("gw.sec"));
    auto listener = net.Listen("gw.sec");
    ASSERT_TRUE(listener.ok());
    service = std::make_unique<gateway::GatewayService>(
        *gw, std::move(*listener));
    service->SetAuthenticator(
        authorizer.GatewayAuthenticator("gw.sec", /*token_ttl=*/20 * kSecond));
  };
  revive();
  auto dial = [&net] { return net.Dial("gw.sec"); };

  gateway::GatewayClient alice(dial);
  ASSERT_TRUE(alice
                  .AuthenticateWithAsync(security::MakeCertAuthPayload(
                      alice_cert, alice_keys.private_key))
                  .ok());
  ASSERT_TRUE(alice.SubscribeAsync("alice", {}).ok());

  gateway::GatewayClient bob(dial);
  gateway::GatewayClient resumer(dial);
  gateway::GatewayClient late(dial);
  gateway::GatewayClient bob2(dial);

  // Expected audit ledger, maintained step by step alongside the chaos.
  int want_mints = 1, want_grants = 1, want_denies = 0;
  int want_expired = 0, want_reloads = 0;

  bool up = true;
  int revivals = 0;
  std::int64_t published = 0;
  std::vector<std::int64_t> want_alice, want_bob, want_resumer;
  std::vector<std::int64_t> got_alice, got_bob, got_resumer;
  bool bob_streaming = false;
  std::string bob_token;

  auto collect = [](std::vector<std::int64_t>& into,
                    const ulm::FlatBatch& events) {
    for (std::size_t e = 0; e < events.size(); ++e) {
      auto seq = events.View(e).GetInt(ulm::InternSymbol("SEQ"));
      ASSERT_TRUE(seq.ok());
      into.push_back(*seq);
    }
  };

  resilience::CrashSchedule schedule(/*seed=*/21, 10 * kSecond, 4 * kSecond);

  for (int i = 0; i < 125; ++i) {
    // --- crash plan: scripted through step 49, seeded 50..119, then up.
    bool want_up;
    if (i < 50) {
      want_up = (i != 6);
    } else if (i < 120) {
      want_up = schedule.AliveAt(clock.Now());
    } else {
      want_up = true;
    }
    if (want_up && !up) {
      revive();
      up = true;
      ++revivals;
      // Alice's drain below replays her cert bundle: one mint, and her
      // replayed subscribe re-evaluates (her own re-auth bumped the
      // decision-cache generation, so the verdict is audited, not a hit).
      want_mints += 1;
      want_grants += 1;
      if (i == 7) {
        // Bob's step-5 auth line died with the gateway; his replay now
        // completes the interrupted handshake.
        want_mints += 1;
        want_grants += 1;
      } else {
        // Post-reload replays: bob's mint is refused (no granted actions)
        // and his replayed subscribe lands unauthenticated ("no session").
        want_denies += 2;
      }
    } else if (!want_up && up) {
      service.reset();
      gw.reset();
      up = false;
      bob_streaming = false;  // his next replay is post-reload: denied
    }

    // --- scripted actors.
    if (i == 10) {
      // Stakeholder revokes bob; applied atomically with the reload.
      authorizer.PolicyReloaded([&](security::PolicyEngine& p) {
        p.SetUseConditions("gw.sec", {alice_cond});
      });
      want_reloads += 1;
    }
    if (i == 15) {
      // Bob's bearer token (minted at step 7, TTL 20s) outlives the
      // reload: a brand-new connection presenting it is granted — once at
      // adoption, once at the token-answered subscribe.
      ASSERT_FALSE(bob_token.empty());
      ASSERT_TRUE(resumer
                      .AuthenticateWithAsync(
                          std::string(gateway::kAuthTokenPrefix) + bob_token)
                      .ok());
      ASSERT_TRUE(resumer.SubscribeAsync("bob-resumed", {}).ok());
      want_grants += 2;
    }
    if (i == 32) {
      // Past not_after (28s): the same token is expired, and the
      // unauthenticated subscribe that follows is a "no session" deny.
      ASSERT_TRUE(late.AuthenticateWithAsync(
                          std::string(gateway::kAuthTokenPrefix) + bob_token)
                      .ok());
      ASSERT_TRUE(late.SubscribeAsync("bob-late", {}).ok());
      want_expired += 1;
      want_denies += 1;
    }
    if (i == 35) {
      // Fresh cert authentication under the new policy: mint refused,
      // subscribe lands unauthenticated.
      ASSERT_TRUE(bob2.AuthenticateWithAsync(security::MakeCertAuthPayload(
                          bob_cert, bob_keys.private_key))
                      .ok());
      ASSERT_TRUE(bob2.SubscribeAsync("bob-again", {}).ok());
      want_denies += 2;
    }

    // --- pre-drain: detect dead channels, replay credentials.
    collect(got_alice, alice.DrainEvents());
    if (i >= 7) collect(got_bob, bob.DrainEvents());
    if (i >= 15 && i < 50) collect(got_resumer, resumer.DrainEvents());
    if (up) service->PollOnce();
    if (i == 7) bob_streaming = true;

    // --- publish while up; delivery is same-step (publish then poll).
    if (up) {
      ulm::Record rec(clock.Now(), "h1", "sensor", "Usage", "CPU_LOAD");
      rec.SetField("SEQ", published);
      test::Publish(*gw, rec);
      service->PollOnce();
      want_alice.push_back(published);
      if (bob_streaming) want_bob.push_back(published);
      if (i >= 15 && i < 50) want_resumer.push_back(published);
      ++published;
    }

    // --- post-drain: collect this step's deliveries.
    collect(got_alice, alice.DrainEvents());
    if (i >= 7) collect(got_bob, bob.DrainEvents());
    if (i >= 15 && i < 50) collect(got_resumer, resumer.DrainEvents());
    if (i >= 8 && bob_token.empty()) bob_token = bob.token();
    if (i >= 33 && i <= 35) {
      EXPECT_TRUE(late.DrainEvents().empty());
    }
    if (i >= 36 && i <= 38) {
      EXPECT_TRUE(bob2.DrainEvents().empty());
    }

    if (i == 5) {
      // Bob's handshake goes on the wire after the step's last poll...
      // and the gateway dies at step 6 with the auth line unprocessed.
      ASSERT_TRUE(bob.AuthenticateWithAsync(security::MakeCertAuthPayload(
                          bob_cert, bob_keys.private_key))
                      .ok());
      ASSERT_TRUE(bob.SubscribeAsync("bob", {}).ok());
    }

    clock.Advance(kSecond);
  }
  ASSERT_GT(revivals, 1) << "schedule never crashed the secured gateway";

  // Streams: alice saw every event published while the gateway was up —
  // exactly once, across every crash/replay boundary. Bob's live
  // subscription kept streaming THROUGH the policy reload (step 10) and
  // only went dark at the first post-reload crash. The token-resumed
  // subscription streamed from adoption on, outliving its token's expiry
  // (enforcement is at subscribe time).
  EXPECT_EQ(got_alice, want_alice);
  EXPECT_EQ(got_bob, want_bob);
  EXPECT_EQ(got_resumer, want_resumer);
  ASSERT_GT(want_bob.size(), 5u);  // streamed well past the reload

  // Exact sec.* accounting.
  EXPECT_EQ(audits[security::audit::kTokenMint], want_mints);
  EXPECT_EQ(audits[security::audit::kGrant], want_grants);
  EXPECT_EQ(audits[security::audit::kDeny], want_denies);
  EXPECT_EQ(audits[security::audit::kTokenExpired], want_expired);
  EXPECT_EQ(audits[security::audit::kPolicyReload], want_reloads);
}

}  // namespace
}  // namespace jamm
