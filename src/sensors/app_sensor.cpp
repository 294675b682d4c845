#include "sensors/app_sensor.hpp"

namespace jamm::sensors {

AppSensorBridge::AppSensorBridge(std::string name, const Clock& clock,
                                 std::string host, Duration interval)
    : Sensor(std::move(name), type::kApplication, clock, std::move(host),
             interval),
      buffer_(std::make_shared<netlogger::MemorySink>()) {
  sink_ = buffer_;
}

void AppSensorBridge::Inject(const ulm::Record& rec) {
  (void)buffer_->Write(ulm::FlatRecord::FromRecord(rec).View());
}

void AppSensorBridge::SetStaticThreshold(std::string field, double limit) {
  threshold_field_ = std::move(field);
  threshold_limit_ = limit;
  threshold_set_ = true;
}

Status AppSensorBridge::DoPoll(std::vector<ulm::Record>& out) {
  if (!poll_failure_.ok()) return poll_failure_;
  const ulm::FlatBatch buffered = buffer_->TakeRecords();
  for (std::size_t i = 0; i < buffered.size(); ++i) {
    ulm::Record rec = buffered.View(i).ToRecord();
    bool fire_threshold = false;
    double value = 0;
    if (threshold_set_) {
      auto v = rec.GetDouble(threshold_field_);
      if (v.ok() && *v > threshold_limit_) {
        fire_threshold = true;
        value = *v;
      }
    }
    out.push_back(std::move(rec));
    if (fire_threshold) {
      auto alert = MakeEvent(event::kAppThreshold, ulm::level::kWarning);
      alert.SetField("FIELD", threshold_field_);
      alert.SetField("VAL", value);
      alert.SetField("THRESHOLD", threshold_limit_);
      out.push_back(std::move(alert));
    }
  }
  return Status::Ok();
}

}  // namespace jamm::sensors
