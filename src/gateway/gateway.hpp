// EventGateway — the producer-side "event channel" (paper §2.1: "the event
// channel is embedded in the producer of the data, which is responsible
// for multiplexing/demultiplexing events").
//
// Responsibilities (§2.2):
//   * accept streaming subscriptions and one-shot queries from consumers;
//   * filter per subscription (all / on-change / threshold / delta);
//   * compute 1/10/60-minute summary data;
//   * fan out: N consumers cost the monitored host ONE event stream — the
//     gateway, typically on a separate host, does the multiplication
//     (§2.3 scalability);
//   * enforce access control per action (§2.2: "provide access control to
//     the sensors, allowing different access to different classes of
//     users", e.g. streams internal-only, summaries off-site).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "gateway/filter.hpp"
#include "gateway/summary.hpp"
#include "ulm/encoded.hpp"
#include "ulm/flat.hpp"

namespace jamm::gateway {

/// Consumer-visible actions, for the access-control hook.
enum class Action { kSubscribe, kQuery, kSummary, kStartSensor };

/// The consumer-facing surface a GatewayService serves over the wire
/// (ISSUE 6). Both a plain EventGateway and a federation
/// RepublisherGateway implement it, so the same gw.* protocol fronts a
/// single monitored host or a whole aggregation tree — which is what lets
/// republisher levels stack to arbitrary depth out of existing pieces.
class GatewaySurface {
 public:
  /// Subscription callback (encode-once): it receives the shared
  /// per-publish EncodedRecord, so every subscriber wanting the same wire
  /// format reuses one serialization, and enc.view() is the record itself.
  /// The EncodedRecord is only valid for the duration of the callback —
  /// copy what you keep.
  using EncodedCallback = std::function<void(const ulm::EncodedRecord&)>;

  virtual ~GatewaySurface() = default;

  virtual const std::string& name() const = 0;
  virtual const Clock& clock() const = 0;

  /// Events enter the surface here; implementations fan them out. The
  /// record arrives by reference, is stamped in place when traced, and
  /// fans out as a RecordView with zero copies. Non-const because hop
  /// stamping mutates the record — which is the point: the pipeline
  /// annotates one record instead of copying it at every layer.
  virtual void Publish(ulm::FlatRecord& rec) = 0;

  virtual Result<std::string> SubscribeEncoded(
      const std::string& consumer, FilterSpec spec, EncodedCallback callback,
      const std::string& principal = "") = 0;
  virtual Status Unsubscribe(const std::string& subscription_id) = 0;

  virtual Result<ulm::FlatRecord> Query(
      const std::string& event_glob = "",
      const std::string& principal = "") const = 0;
  virtual Result<std::string> QueryXml(
      const std::string& event_glob = "",
      const std::string& principal = "") const = 0;
  virtual Result<SummaryData> GetSummary(
      const std::string& event_name, const std::string& principal = "") const = 0;

  virtual Status StartSensor(const std::string& sensor,
                             const std::string& principal = "") = 0;
  virtual Status StopSensor(const std::string& sensor,
                            const std::string& principal = "") = 0;
};

class EventGateway : public GatewaySurface {
 public:
  EventGateway(std::string name, const Clock& clock);

  const std::string& name() const override { return name_; }
  const Clock& clock() const override { return clock_; }

  // ------------------------------------------------------- producer side

  /// Sensors' events enter here (the sensor manager pushes each poll's
  /// output). One call per record regardless of consumer count.
  void Publish(ulm::FlatRecord& rec) override;

  // ------------------------------------------------------- consumer side

  /// Open a streaming subscription ("the consumer opens an event channel
  /// and the events are returned in a stream"). Returns the subscription
  /// id used to unsubscribe.
  Result<std::string> SubscribeEncoded(
      const std::string& consumer, FilterSpec spec, EncodedCallback callback,
      const std::string& principal = "") override;

  Status Unsubscribe(const std::string& subscription_id) override;

  /// Query mode: "the consumer does not open an event channel, but only
  /// requests the most recent event". `event_glob` narrows by NL.EVNT
  /// (empty = the most recent event of any kind).
  Result<ulm::FlatRecord> Query(
      const std::string& event_glob = "",
      const std::string& principal = "") const override;

  /// Query with the result converted to XML (paper §7.0: "a consumer can
  /// request either format").
  Result<std::string> QueryXml(
      const std::string& event_glob = "",
      const std::string& principal = "") const override;

  // ----------------------------------------------------------- summaries

  /// Track 1/10/60-minute averages of `value_field` for events matching
  /// `event_name` exactly.
  void EnableSummary(const std::string& event_name,
                     const std::string& value_field = "VAL");

  Result<SummaryData> GetSummary(
      const std::string& event_name,
      const std::string& principal = "") const override;

  // ------------------------------------------------------ sensor control

  /// §7.1: "Starting new sensors is done by a request to a gateway, which
  /// then contacts a sensor manager." The host's manager registers this
  /// hook; remote consumers call StartSensor/StopSensor (access-checked
  /// as Action::kStartSensor). The requesting principal rides along
  /// (ISSUE 10) so the manager can enforce its own authorization on top
  /// of the gateway's check.
  using SensorControl = std::function<Status(
      const std::string& sensor, bool start, const std::string& principal)>;
  void SetSensorControl(SensorControl control) {
    sensor_control_ = std::move(control);
  }
  Status StartSensor(const std::string& sensor,
                     const std::string& principal = "") override;
  Status StopSensor(const std::string& sensor,
                    const std::string& principal = "") override;

  // ------------------------------------------------------ access control

  using AccessChecker =
      std::function<bool(Action action, const std::string& principal)>;
  void SetAccessChecker(AccessChecker checker) {
    access_checker_ = std::move(checker);
  }

  /// Exposed so wrappers (federation republishers) can enforce this
  /// gateway's policy on subscriptions they route around the local fan-out.
  Status CheckAccess(Action action, const std::string& principal) const;

  // ----------------------------------------------------------- telemetry

  struct Stats {
    std::uint64_t events_in = 0;         // records Published
    std::uint64_t events_delivered = 0;  // records × subscribers delivered
    std::uint64_t events_filtered = 0;   // suppressed by filters
    std::size_t subscriptions = 0;
  };
  Stats stats() const;

  std::size_t subscription_count() const { return subs_by_id_.size(); }

 private:
  struct Subscription {
    std::string id;
    std::string consumer;
    EventFilter filter;
    EncodedCallback callback;
    bool active = true;        // false = unsubscribed, awaiting sweep
  };

  /// The cached record Query answers with (access-checked and counted);
  /// valid until the next Publish.
  Result<const ulm::FlatRecord*> Latest(const std::string& event_glob,
                                        const std::string& principal) const;

  std::string name_;
  const Clock& clock_;
  /// Fan-out order. Subscriptions live behind stable shared_ptrs so
  /// Publish can walk this vector by index with no per-subscriber lookup
  /// or id-snapshot copy (both dominated the per-subscriber overhead in
  /// bench_pipeline_throughput). Callbacks may append (invisible to the
  /// in-flight fan-out) or deactivate entries; inactive entries are swept
  /// once no fan-out is running.
  std::vector<std::shared_ptr<Subscription>> subscriptions_;
  std::map<std::string, std::shared_ptr<Subscription>> subs_by_id_;
  // Symbol-keyed caches (ISSUE 7): the per-publish writes are flat-record
  // assignments that reuse capacity, so the query caches stop allocating
  // on the hot path. Query copies the cached record out; QueryXml renders
  // it in place.
  std::map<ulm::Symbol, SummaryWindow> summaries_;    // event sym → window
  std::map<ulm::Symbol, ulm::Symbol> summary_fields_; // event sym → field sym
  ulm::FlatRecord last_event_;
  bool has_last_event_ = false;
  std::map<ulm::Symbol, ulm::FlatRecord> last_by_event_;  // event sym → last
  AccessChecker access_checker_;
  SensorControl sensor_control_;
  mutable Stats stats_;
  std::string encode_buffer_;  // outermost fan-out's binary form, reused
  std::uint32_t fanout_sample_ = 0;  // 1-in-8 latency sampling phase
  int fanout_depth_ = 0;             // re-entrant Publish guard for sweeps
  bool sweep_pending_ = false;       // inactive entries await removal
};

}  // namespace jamm::gateway
