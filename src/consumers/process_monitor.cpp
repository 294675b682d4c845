#include "consumers/process_monitor.hpp"

#include "telemetry/metrics.hpp"

namespace jamm::consumers {

namespace {

struct MonitorTelemetry {
  telemetry::Counter& restarts;
  telemetry::Counter& quarantines;
};

MonitorTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static MonitorTelemetry t{m.counter("consumers.process_monitor.restarts"),
                            m.counter("consumers.process_monitor.quarantines")};
  return t;
}

}  // namespace

ProcessMonitorConsumer::ProcessMonitorConsumer(std::string name,
                                               const Clock& clock)
    : name_(std::move(name)), clock_(clock) {}

ProcessMonitorConsumer::~ProcessMonitorConsumer() { UnsubscribeAll(); }

Status ProcessMonitorConsumer::Watch(gateway::EventGateway& gw,
                                     sysmon::SimHost* host,
                                     const std::string& process_name,
                                     ProcessActions actions) {
  auto watch = std::make_unique<Watched>();
  watch->gw = &gw;
  watch->host = host;
  watch->process_name = process_name;
  watch->actions = std::move(actions);
  if (watch->actions.restart) {
    watch->supervisor.emplace(*watch->actions.restart, clock_);
  }
  Watched* raw = watch.get();
  gateway::FilterSpec spec;
  spec.mode = gateway::FilterSpec::Mode::kAll;
  spec.event_glob = "PROC_*";
  auto sub = gw.SubscribeEncoded(
      name_, spec,
      [this, raw](const ulm::EncodedRecord& enc) {
        HandleEvent(*raw, enc.view());
      });
  if (!sub.ok()) return sub.status();
  raw->subscription_id = *sub;
  watched_.push_back(std::move(watch));
  return Status::Ok();
}

void ProcessMonitorConsumer::HandleEvent(Watched& watch,
                                         const ulm::RecordView& view) {
  const auto proc = view.GetField("PROC");
  if (!proc || *proc != watch.process_name) return;
  const std::string_view ev = view.event_name();
  if (ev != sensors::event::kProcDiedNormal &&
      ev != sensors::event::kProcDiedAbnormal) {
    return;
  }
  ++stats_.deaths_seen;
  const std::string description =
      watch.process_name + " on " + std::string(view.host()) + " " +
      (ev == sensors::event::kProcDiedAbnormal ? "crashed" : "exited");
  if (watch.supervisor && watch.host && !watch.quarantined) {
    auto decision = watch.supervisor->OnFailure();
    if (decision.action == resilience::Supervisor::Action::kQuarantine) {
      Quarantine(watch, description);
    } else if (decision.restart_at <= clock_.Now()) {
      DoRestart(watch);  // first death in the window: restart inline
    } else {
      watch.restart_pending = true;
      watch.restart_at = decision.restart_at;
    }
  }
  if (watch.actions.email) {
    watch.actions.email(description);
    ++stats_.emails;
  }
  if (watch.actions.page) {
    watch.actions.page(description);
    ++stats_.pages;
  }
}

void ProcessMonitorConsumer::DoRestart(Watched& watch) {
  watch.restart_pending = false;
  watch.host->StartProcess(watch.process_name);
  ++stats_.restarts;
  Instruments().restarts.Increment();
}

void ProcessMonitorConsumer::Quarantine(Watched& watch,
                                        const std::string& description) {
  watch.quarantined = true;
  watch.restart_pending = false;
  ++stats_.quarantines;
  Instruments().quarantines.Increment();
  ulm::FlatRecord rec(clock_.Now(), watch.host ? watch.host->host() : "",
                      name_, ulm::level::kAlert, kProcQuarantined);
  rec.SetField("PROC", watch.process_name);
  rec.SetField("REASON", description);
  watch.gw->Publish(rec);
}

void ProcessMonitorConsumer::Tick() {
  const TimePoint now = clock_.Now();
  for (auto& watch : watched_) {
    if (watch->restart_pending && !watch->quarantined &&
        watch->restart_at <= now) {
      DoRestart(*watch);
    }
  }
}

bool ProcessMonitorConsumer::IsQuarantined(
    const std::string& process_name) const {
  for (const auto& watch : watched_) {
    if (watch->process_name == process_name && watch->quarantined) {
      return true;
    }
  }
  return false;
}

void ProcessMonitorConsumer::UnsubscribeAll() {
  for (auto& w : watched_) {
    (void)w->gw->Unsubscribe(w->subscription_id);
  }
  watched_.clear();
}

}  // namespace jamm::consumers
