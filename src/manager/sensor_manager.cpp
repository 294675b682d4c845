#include "manager/sensor_manager.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jamm::manager {

namespace {

// Process-wide self-telemetry for the manager's scheduling hot path.
struct ManagerTelemetry {
  telemetry::Counter& polls;
  telemetry::Counter& events_forwarded;
  telemetry::Counter& sensor_starts;
  telemetry::Counter& sensor_stops;
  telemetry::Counter& port_triggers;
  telemetry::Counter& port_stops;
  telemetry::Counter& config_refreshes;
  telemetry::Counter& config_stale;
  telemetry::Counter& poll_errors;
  telemetry::Counter& supervised_restarts;
  telemetry::Counter& quarantines;
  telemetry::Counter& lease_renewals;
  telemetry::Histogram& tick_us;
};

ManagerTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ManagerTelemetry t{m.counter("manager.polls"),
                            m.counter("manager.events_forwarded"),
                            m.counter("manager.sensor_starts"),
                            m.counter("manager.sensor_stops"),
                            m.counter("manager.port_triggers"),
                            m.counter("manager.port_stops"),
                            m.counter("manager.config_refreshes"),
                            m.counter("manager.config_stale"),
                            m.counter("manager.poll_errors"),
                            m.counter("manager.supervised_restarts"),
                            m.counter("manager.quarantines"),
                            m.counter("manager.lease_renewals"),
                            m.histogram("manager.tick_us")};
  return t;
}

}  // namespace

Result<RunMode> ParseRunMode(std::string_view text) {
  if (text == "always" || text.empty()) return RunMode::kAlways;
  if (text == "on-request") return RunMode::kOnRequest;
  if (text == "on-port") return RunMode::kOnPort;
  return Status::InvalidArgument("unknown run mode '" + std::string(text) +
                                 "'");
}

SensorManager::SensorManager(Options options)
    : options_(std::move(options)),
      port_monitor_(*options_.clock, *options_.host,
                    options_.port_idle_timeout) {
  // §7.1: consumers start sensors "by a request to a gateway, which then
  // contacts a sensor manager" — wire that path up. The manager must
  // outlive the gateway's use of this hook (they share the host's
  // lifetime in every deployment here).
  if (options_.gateway) {
    options_.gateway->SetSensorControl(
        [this](const std::string& name, bool start,
               const std::string& principal) {
          if (options_.control_access) {
            JAMM_RETURN_IF_ERROR(
                options_.control_access(name, start, principal));
          }
          return start ? StartSensor(name) : StopSensor(name);
        });
  }
  // Sharded directory (ISSUE 9): cache chased referral routes no longer
  // than a lease — a shard layout change is visible to the pool at worst
  // one TTL after cutover, the same staleness bound leases already give.
  if (options_.directory && options_.clock && options_.lease_ttl > 0) {
    options_.directory->SetReferralCacheTtl(options_.lease_ttl,
                                            *options_.clock);
  }
}

Status SensorManager::ApplyConfig(const Config& config) {
  sensors::SensorContext context;
  context.clock = options_.clock;
  context.host = options_.host;
  context.devices = options_.devices;

  std::map<std::string, const ConfigSection*> wanted;
  for (const ConfigSection* section : config.SectionsNamed("sensor")) {
    const std::string name = section->GetString("name");
    if (name.empty()) {
      return Status::InvalidArgument("sensor block missing 'name'");
    }
    wanted[name] = section;
  }

  // Remove sensors no longer configured.
  for (auto it = sensors_.begin(); it != sensors_.end();) {
    if (!wanted.count(it->first)) {
      (void)StopManaged(it->second);
      UnpublishSensor(it->first);
      it = sensors_.erase(it);
    } else {
      ++it;
    }
  }

  // Add new / recreate changed sensors.
  for (const auto& [name, section] : wanted) {
    const std::string fingerprint = section->ToString();
    auto existing = sensors_.find(name);
    if (existing != sensors_.end() &&
        existing->second.config_fingerprint == fingerprint) {
      continue;  // unchanged
    }
    auto mode = ParseRunMode(section->GetString("mode", "always"));
    if (!mode.ok()) return mode.status();
    auto sensor = sensors::CreateSensor(*section, context);
    if (!sensor.ok()) return sensor.status();

    if (existing != sensors_.end()) {
      (void)StopManaged(existing->second);
      UnpublishSensor(name);
      sensors_.erase(existing);
    }
    Managed managed;
    managed.sensor = std::move(*sensor);
    managed.mode = *mode;
    managed.config_fingerprint = fingerprint;
    for (const auto& port_text : section->GetList("ports")) {
      auto port = ParseInt(port_text);
      if (!port.ok() || *port <= 0 || *port > 65535) {
        return Status::InvalidArgument("sensor '" + name + "': bad port '" +
                                       port_text + "'");
      }
      managed.ports.push_back(static_cast<std::uint16_t>(*port));
      port_monitor_.AddPort(static_cast<std::uint16_t>(*port));
    }
    if (managed.mode == RunMode::kOnPort && managed.ports.empty()) {
      return Status::InvalidArgument("sensor '" + name +
                                     "': mode on-port needs ports");
    }
    auto [it, inserted] = sensors_.emplace(name, std::move(managed));
    (void)inserted;
    if (it->second.mode == RunMode::kAlways) {
      JAMM_RETURN_IF_ERROR(StartManaged(it->second));
    }
  }
  return Status::Ok();
}

void SensorManager::SetConfigFetcher(
    std::function<Result<std::string>()> fetcher) {
  config_fetcher_ = std::move(fetcher);
}

Status SensorManager::RefreshConfig() {
  if (!config_fetcher_) return Status::Ok();
  auto text = config_fetcher_();
  if (!text.ok()) return text.status();
  ++stats_.config_refreshes;
  Instruments().config_refreshes.Increment();
  if (*text == last_config_text_) return Status::Ok();
  auto config = Config::ParseString(*text);
  if (!config.ok()) return config.status();
  JAMM_RETURN_IF_ERROR(ApplyConfig(*config));
  last_config_text_ = std::move(*text);
  return Status::Ok();
}

Status SensorManager::StartManaged(Managed& managed) {
  if (managed.sensor->running()) return Status::Ok();
  JAMM_RETURN_IF_ERROR(managed.sensor->Start());
  Instruments().sensor_starts.Increment();
  managed.next_poll = options_.clock->Now();
  PublishSensor(managed);
  return Status::Ok();
}

Status SensorManager::StopManaged(Managed& managed) {
  if (!managed.sensor->running()) return Status::Ok();
  JAMM_RETURN_IF_ERROR(managed.sensor->Stop());
  Instruments().sensor_stops.Increment();
  // Keep the directory entry but mark it stopped, so the Sensor Data GUI
  // still lists the sensor.
  if (options_.directory) {
    auto entry = options_.directory->Lookup(directory::schema::SensorDn(
        options_.directory_suffix, options_.host->host(),
        managed.sensor->name()));
    if (entry.ok()) {
      entry->Set(directory::schema::kAttrStatus, "stopped");
      (void)options_.directory->Upsert(*entry);
    }
  }
  return Status::Ok();
}

void SensorManager::PublishSensor(const Managed& managed) {
  if (!options_.directory) return;
  const std::string& host = options_.host->host();
  const TimePoint now = options_.clock->Now();
  // The host entry is the parent of every leased child and carries no
  // lease itself: the reaper reprieves non-leaf entries anyway, and an
  // immortal parent keeps re-registration cheap.
  (void)options_.directory->Upsert(directory::schema::MakeHostEntry(
      options_.directory_suffix, host));
  if (!options_.gateway_address.empty()) {
    auto gw_entry = directory::schema::MakeGatewayEntry(
        options_.directory_suffix, host, options_.gateway_address);
    if (options_.lease_ttl > 0) {
      directory::schema::StampLease(gw_entry, now + options_.lease_ttl);
    }
    (void)options_.directory->Upsert(gw_entry);
  }
  auto entry = directory::schema::MakeSensorEntry(
      options_.directory_suffix, host, managed.sensor->name(),
      managed.sensor->type(), options_.gateway_address,
      managed.sensor->interval() / kMillisecond, now);
  if (options_.lease_ttl > 0) {
    directory::schema::StampLease(entry, now + options_.lease_ttl);
  }
  (void)options_.directory->Upsert(entry);
}

void SensorManager::UnpublishSensor(const std::string& name) {
  if (!options_.directory) return;
  (void)options_.directory->Delete(directory::schema::SensorDn(
      options_.directory_suffix, options_.host->host(), name));
}

void SensorManager::Tick() {
  auto& tm = Instruments();
  telemetry::ScopedTimer tick_timer(&tm.tick_us);
  const TimePoint now = options_.clock->Now();

  // Periodic configuration refresh. A failed fetch is survivable: keep
  // running on the last-good configuration, but say so on the event
  // stream so operators notice a manager drifting stale (ISSUE 4).
  if (options_.config_refresh > 0 && config_fetcher_ &&
      now >= next_config_refresh_) {
    next_config_refresh_ = now + options_.config_refresh;
    Status s = RefreshConfig();
    if (!s.ok()) {
      JAMM_LOG(kWarn, "sensor-manager")
          << options_.host->host() << ": config refresh failed: "
          << s.ToString();
      ++stats_.config_stale;
      tm.config_stale.Increment();
      PublishManagerEvent(event::kConfigStale, ulm::level::kWarning,
                          s.ToString());
    }
  }

  // Supervised restarts whose backoff delay has elapsed.
  for (auto& [name, managed] : sensors_) {
    if (managed.restart_pending && !managed.quarantined &&
        now >= managed.restart_at) {
      managed.restart_pending = false;
      if (StartManaged(managed).ok()) {
        ++stats_.supervised_restarts;
        tm.supervised_restarts.Increment();
      }
    }
  }

  // Port-monitor triggering.
  for (auto& [name, managed] : sensors_) {
    if (managed.mode != RunMode::kOnPort || managed.quarantined) continue;
    const bool want_running = port_monitor_.AnyActive(managed.ports);
    if (want_running && !managed.sensor->running()) {
      if (StartManaged(managed).ok()) {
        ++stats_.port_triggers;
        tm.port_triggers.Increment();
      }
    } else if (!want_running && managed.sensor->running()) {
      if (StopManaged(managed).ok()) {
        ++stats_.port_stops;
        tm.port_stops.Increment();
      }
    }
  }

  // Poll due sensors; forward everything to the gateway. The manager is
  // where an event enters the pipeline, so this is where its trace is
  // minted: HOP.SENSOR carries the sensor's own emission timestamp,
  // HOP.MANAGER the forwarding time; downstream layers append their hops.
  std::vector<ulm::Record> events;
  for (auto& [name, managed] : sensors_) {
    if (!managed.sensor->running() || now < managed.next_poll) continue;
    managed.next_poll = now + managed.sensor->interval();
    events.clear();
    Status polled = managed.sensor->Poll(events);
    ++stats_.polls;
    tm.polls.Increment();
    // Events gathered before a failure are still forwarded. Each record
    // is converted into the reusable flat scratch once; tracing stamps it
    // in place and the gateway fans the same buffer out by reference.
    for (auto& rec : events) {
      publish_scratch_.AssignRecord(rec);
      if (options_.trace_events) {
        telemetry::EnsureTrace(publish_scratch_);
        telemetry::StampHop(publish_scratch_, "sensor", rec.timestamp());
        telemetry::StampHop(publish_scratch_, "manager", now);
      }
      if (options_.gateway) options_.gateway->Publish(publish_scratch_);
      ++stats_.events_forwarded;
      tm.events_forwarded.Increment();
    }
    if (!polled.ok()) {
      HandlePollFailure(name, managed, polled);
    } else if (managed.supervisor) {
      managed.supervisor->OnSuccess();
    }
  }

  // Heartbeat: renew this manager's directory leases in one batch.
  if (options_.directory && options_.lease_ttl > 0 &&
      options_.heartbeat_interval > 0 && now >= next_heartbeat_) {
    next_heartbeat_ = now + options_.heartbeat_interval;
    HeartbeatLeases(now);
  }
}

void SensorManager::HandlePollFailure(const std::string& name,
                                      Managed& managed,
                                      const Status& status) {
  auto& tm = Instruments();
  ++stats_.poll_errors;
  tm.poll_errors.Increment();
  if (!managed.supervisor) {
    managed.supervisor.emplace(options_.sensor_restart, *options_.clock);
  }
  auto decision = managed.supervisor->OnFailure();
  if (decision.action == resilience::Supervisor::Action::kQuarantine) {
    managed.quarantined = true;
    managed.restart_pending = false;
    (void)StopManaged(managed);
    // De-register: a quarantined sensor must not look discoverable.
    UnpublishSensor(name);
    ++stats_.quarantines;
    tm.quarantines.Increment();
    JAMM_LOG(kWarn, "sensor-manager")
        << options_.host->host() << ": sensor '" << name
        << "' quarantined after repeated poll failures: "
        << status.ToString();
    PublishManagerEvent(event::kQuarantined, ulm::level::kAlert,
                        "sensor " + name + ": " + status.ToString());
    return;
  }
  // Restart the sensor: stop now, start when the backoff allows. The first
  // failure in a calm period restarts within this very Tick.
  (void)StopManaged(managed);
  if (decision.restart_at <= options_.clock->Now()) {
    if (StartManaged(managed).ok()) {
      ++stats_.supervised_restarts;
      tm.supervised_restarts.Increment();
    }
  } else {
    managed.restart_pending = true;
    managed.restart_at = decision.restart_at;
  }
}

void SensorManager::HeartbeatLeases(TimePoint now) {
  std::vector<directory::Dn> batch;
  const std::string& host = options_.host->host();
  for (const auto& [name, managed] : sensors_) {
    if (!managed.sensor->running() || managed.quarantined) continue;
    batch.push_back(directory::schema::SensorDn(options_.directory_suffix,
                                                host, name));
  }
  if (!options_.gateway_address.empty() && !batch.empty()) {
    batch.push_back(
        directory::schema::GatewayDn(options_.directory_suffix, host));
  }
  if (batch.empty()) return;
  const TimePoint expiry = now + options_.lease_ttl;
  std::vector<directory::Dn> missing;
  auto renewed = options_.directory->RenewLeases(batch, expiry, "", &missing);
  if (!renewed.ok()) return;  // pool down; retried next heartbeat
  stats_.lease_renewals += *renewed;
  Instruments().lease_renewals.Add(static_cast<std::int64_t>(*renewed));
  // Entries the directory lost (reaped during a partition, failed-over
  // replica missing our writes) are simply re-published.
  for (const auto& dn : missing) {
    const std::string dn_text = dn.ToString();
    for (const auto& [name, managed] : sensors_) {
      if (directory::schema::SensorDn(options_.directory_suffix, host, name)
              .ToString() == dn_text) {
        PublishSensor(managed);
        break;
      }
    }
    if (!options_.gateway_address.empty() &&
        directory::schema::GatewayDn(options_.directory_suffix, host)
                .ToString() == dn_text &&
        !sensors_.empty()) {
      PublishSensor(sensors_.begin()->second);  // re-publishes gateway too
    }
  }
}

void SensorManager::PublishManagerEvent(std::string_view event_name,
                                        std::string_view lvl,
                                        std::string_view detail) {
  if (!options_.gateway) return;
  ulm::FlatRecord rec(options_.clock->Now(), options_.host->host(),
                      "sensor-manager", lvl, event_name);
  rec.SetField("DETAIL", detail);
  options_.gateway->Publish(rec);
}

Status SensorManager::StartSensor(const std::string& name) {
  auto it = sensors_.find(name);
  if (it == sensors_.end()) return Status::NotFound("no sensor " + name);
  // Manual start is the operator override that lifts quarantine.
  it->second.quarantined = false;
  it->second.restart_pending = false;
  if (it->second.supervisor) it->second.supervisor->Reset();
  return StartManaged(it->second);
}

Status SensorManager::StopSensor(const std::string& name) {
  auto it = sensors_.find(name);
  if (it == sensors_.end()) return Status::NotFound("no sensor " + name);
  return StopManaged(it->second);
}

bool SensorManager::IsQuarantined(const std::string& name) const {
  auto it = sensors_.find(name);
  return it != sensors_.end() && it->second.quarantined;
}

sensors::Sensor* SensorManager::FindSensor(const std::string& name) {
  auto it = sensors_.find(name);
  return it == sensors_.end() ? nullptr : it->second.sensor.get();
}

std::vector<std::string> SensorManager::SensorNames() const {
  std::vector<std::string> out;
  out.reserve(sensors_.size());
  for (const auto& [name, managed] : sensors_) out.push_back(name);
  return out;
}

std::vector<std::string> SensorManager::RunningSensors() const {
  std::vector<std::string> out;
  for (const auto& [name, managed] : sensors_) {
    if (managed.sensor->running()) out.push_back(name);
  }
  return out;
}

}  // namespace jamm::manager
