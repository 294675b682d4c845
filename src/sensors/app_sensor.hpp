// Application sensor bridge (paper §2.2): "Autonomous sensors can also be
// embedded inside of applications... These types of sensors would not be
// directly under JAMM control, but could still feed their results to the
// JAMM system."
//
// Applications log through the NetLogger API into this bridge's sink; the
// sensor manager polls the bridge like any other sensor and forwards the
// buffered application events into the event stream. The buffer holds flat
// records; a poll converts them to the Records a sensor emits. A
// static-threshold helper reproduces the "if the number of locks taken
// exceeds a threshold" example.
#pragma once

#include <memory>

#include "netlogger/sinks.hpp"
#include "sensors/sensor.hpp"

namespace jamm::sensors {

namespace event {
inline constexpr char kAppThreshold[] = "APP_THRESHOLD_EXCEEDED";
}  // namespace event

class AppSensorBridge final : public Sensor {
 public:
  AppSensorBridge(std::string name, const Clock& clock, std::string host,
                  Duration interval);

  /// The sink applications attach to their NetLogger ("feed their results
  /// to the JAMM system"). Thread-compatible with the manager's poll loop.
  std::shared_ptr<netlogger::LogSink> sink() { return sink_; }

  /// Direct injection for application sensors that build records
  /// themselves; the record joins the NetLogger buffer like any write.
  void Inject(const ulm::Record& rec);

  /// Static threshold: when a buffered record carries `field` and its
  /// numeric value exceeds `limit`, an APP_THRESHOLD_EXCEEDED event is
  /// appended after it.
  void SetStaticThreshold(std::string field, double limit);

  /// Deterministic failure injection (ISSUE 4): while set non-OK, every
  /// DoPoll returns this status — the hook chaos tests use to drive the
  /// manager's supervisor into backoff and quarantine. Set OK to heal.
  void SetPollFailure(Status status) { poll_failure_ = std::move(status); }

 private:
  Status DoPoll(std::vector<ulm::Record>& out) override;

  std::shared_ptr<netlogger::MemorySink> buffer_;
  std::shared_ptr<netlogger::LogSink> sink_;
  std::string threshold_field_;
  double threshold_limit_ = 0;
  bool threshold_set_ = false;
  Status poll_failure_;  // OK = healthy
};

}  // namespace jamm::sensors
