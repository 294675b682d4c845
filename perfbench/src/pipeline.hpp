// The measured system: simulated hosts → SensorManager → site/leaf
// EventGateway + GatewayService → (optional depth-3 RepublisherGateway
// tree) → ArchiverAgent (batched remote feed) → EventArchive, plus
// filtered live consumers and an ArchiveQueryService behind an RpcServer.
// Every component is the library's own; the benchmark only wires them over
// the in-proc transport and drives them one sim-time wave at a time.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "consumers/archiver.hpp"
#include "directory/replication.hpp"
#include "directory/server.hpp"
#include "federation/republisher.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "manager/sensor_manager.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "sensors/sensor.hpp"
#include "sysmon/simhost.hpp"
#include "trace.hpp"
#include "transport/inproc.hpp"

namespace perfbench {

using jamm::Duration;
using jamm::TimePoint;

/// One wave is one sim-time step of 1 s / groups: every host's sensors
/// poll once a (sim) second, each host in its own stagger group. Services
/// flush partial batches on every poll (batch age 0), so the drain loop
/// needs no sim time: it repeats bottom-up passes until the wave is
/// visible, within a bound.
inline constexpr Duration kPollInterval = jamm::kSecond;
inline constexpr int kMaxDrainPasses = 8;
/// Records per gw.event.batch frame on every batched feed.
inline constexpr std::size_t kBatchRecords = 64;
/// Hosts mirrored bench-side as the read-back queries' reference.
inline constexpr int kShadowHosts = 8;

struct PipelineOptions {
  std::uint64_t seed = 1;
  TimePoint start = 0;       // sim time of wave 0
  int hosts = 1024;
  int groups = 64;           // a host polls every `groups` waves (staggered)
  int gateways = 4;          // site gateways, or leaves under the tree
  bool federation = false;   // depth-3, fan-out-4 tree over the gateways
  int consumers = 3;         // filtered live remote consumers
  bool count_wire = false;   // CountingChannel on every dialer
};

/// One event as a shadow sensor emitted it: the reference the read-back
/// queries are checked against.
struct RefEvent {
  TimePoint ts = 0;
  std::string event;
  std::string val;
};

class Pipeline {
 public:
  Pipeline(PipelineOptions options, jamm::archive::EventArchive& archive);
  ~Pipeline();

  /// Build every component and settle the subscriptions (no events yet).
  jamm::Status Build();

  /// One wave: perturb the due hosts, Tick every manager, then drain
  /// pass by pass until the archive holds every emitted event.
  /// Returns the events the wave emitted; on a wave that never became
  /// visible, marks the pipeline failed.
  std::size_t Wave();

  /// Serve pending arch.query calls (one RpcServer::PollOnce).
  std::size_t PollRpc();

  const std::string& rpc_address() const { return rpc_address_; }
  std::string archive_object() const;

  /// Dialer for a client of `address`, counted on `hop` when wire
  /// counting is on.
  jamm::rpc::RpcClient::Dialer MakeDialer(const std::string& address,
                                          const std::string& hop);

  std::int64_t wave() const { return wave_; }
  Duration wave_step() const { return kPollInterval / options_.groups; }
  std::uint64_t stuck_waves() const { return stuck_waves_; }
  bool failed() const { return stuck_waves_ > 0; }

  struct Ledger {
    std::uint64_t emitted = 0;       // events managers forwarded
    std::uint64_t archived = 0;      // records the archive gained
    std::uint64_t counted_drops = 0; // dropped by a named layer counter
    std::uint64_t service_dropped = 0;
    std::uint64_t archiver_dropped = 0;
    std::uint64_t federation_dropped = 0;  // duplicates + stale
    std::uint64_t archive_dropped = 0;     // archive sampling policy
    bool exact = false;  // emitted == archived + counted_drops
    std::uint64_t waves_mismatched = 0;  // archived != emitted, per wave
    std::uint64_t failed = 0;  // events not archived exactly once
  };
  Ledger TakeLedger() const;

  /// Layer counters, summed over every instance.
  struct LayerStats {
    std::uint64_t gw_events_in = 0;
    std::uint64_t gw_delivered = 0;
    std::uint64_t gw_filtered = 0;
    std::uint64_t fed_records_in = 0;
    std::uint64_t fed_duplicates = 0;
    std::uint64_t fed_stale = 0;
    std::uint64_t consumer_events = 0;
    std::uint64_t wire_msgs = 0;
    std::uint64_t wire_bytes = 0;
  };
  LayerStats Stats() const;
  const std::deque<WireCounters>& wire() const { return wire_; }

  /// Shadow reference: host name → wave timestamp → emitted events.
  struct Shadow;
  const std::vector<std::unique_ptr<Shadow>>& shadows() const {
    return shadows_;
  }
  static const std::string& ShadowHost(const Shadow& shadow);
  static const std::map<TimePoint, std::vector<RefEvent>>& ShadowEvents(
      const Shadow& shadow);

 private:
  struct Host {
    std::unique_ptr<jamm::sysmon::SimHost> machine;
    std::unique_ptr<jamm::manager::SensorManager> manager;
  };
  struct Consumer {
    std::unique_ptr<jamm::gateway::GatewayClient> client;
    std::uint64_t received = 0;
  };

  void StartGroup(int group);
  void Perturb(int group);
  void PollShadows(int group);
  void DrainOnce();
  std::uint64_t GatewayEventsIn() const;

  PipelineOptions options_;
  jamm::archive::EventArchive& archive_;
  std::uint64_t base_ingested_ = 0;  // archive counters at Build()
  std::uint64_t base_stored_ = 0;
  std::uint64_t base_archive_dropped_ = 0;
  jamm::SimClock clock_;
  jamm::transport::InProcNetwork net_;
  jamm::Rng rng_;
  std::shared_ptr<jamm::directory::DirectoryServer> directory_;
  jamm::directory::DirectoryPool pool_;
  jamm::directory::Dn suffix_;
  jamm::Config sensor_config_;

  std::deque<WireCounters> wire_;
  std::vector<Host> hosts_;
  std::vector<std::unique_ptr<jamm::gateway::EventGateway>> gateways_;
  std::vector<std::unique_ptr<jamm::gateway::GatewayService>> services_;
  // tiers_[0] sits above the gateways; tiers_.back() is the root.
  std::vector<std::vector<std::unique_ptr<jamm::federation::RepublisherGateway>>>
      tiers_;
  std::vector<std::vector<std::unique_ptr<jamm::gateway::GatewayService>>>
      tier_services_;
  std::vector<std::unique_ptr<jamm::consumers::ArchiverAgent>> archivers_;
  std::vector<Consumer> consumers_;
  std::vector<std::unique_ptr<Shadow>> shadows_;

  std::unique_ptr<jamm::rpc::Registry> registry_;
  std::unique_ptr<jamm::rpc::RpcServer> rpc_server_;
  std::string rpc_address_;

  std::int64_t wave_ = 0;
  std::uint64_t emitted_ = 0;
  std::vector<std::uint32_t> wave_emitted_;  // events per wave, by wave id
  std::uint64_t stuck_waves_ = 0;
};

}  // namespace perfbench
