#include "pipeline.hpp"

#include <cstdio>

#include "archive/analysis.hpp"
#include "sensors/factory.hpp"

namespace perfbench {

using namespace jamm;  // NOLINT: bench brevity

struct Pipeline::Shadow {
  int host = 0;
  std::string name;
  std::unique_ptr<sysmon::SimHost> machine;
  std::vector<std::unique_ptr<sensors::Sensor>> sensors;  // manager order
  std::map<TimePoint, std::vector<RefEvent>> events;
};

const std::string& Pipeline::ShadowHost(const Shadow& shadow) {
  return shadow.name;
}

const std::map<TimePoint, std::vector<RefEvent>>& Pipeline::ShadowEvents(
    const Shadow& shadow) {
  return shadow.events;
}

namespace {

// Three sensors per host. Names sort in the order the manager polls them,
// which the shadow hosts replicate.
std::string SensorConfigText(Duration interval) {
  const long long ms = interval / kMillisecond;
  std::string text;
  for (const char* kind : {"iostat", "netstat", "vmstat"}) {
    char block[160];
    std::snprintf(block, sizeof(block),
                  "[sensor]\nname = %s\nkind = %s\ninterval_ms = %lld\n"
                  "mode = always\n\n",
                  kind, kind, ms);
    text += block;
  }
  return text;
}

std::uint64_t HostSeed(std::uint64_t seed, int host) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(host) + 1;
}

std::string HostName(int host) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "host-%04d", host);
  return buf;
}

/// Seeded per-host baseline; draws in a fixed order so shadows replay it.
void ApplyBaseLoad(sysmon::SimHost& machine, Rng& rng) {
  const double user = rng.UniformReal(5, 90);
  const double sys = rng.UniformReal(1, 9);
  const std::int64_t free_kb = rng.Uniform(1 << 20, 15 << 20);
  machine.SetBaseLoad(user, sys);
  machine.SetMemory(16 << 20, free_kb);
}

gateway::FilterSpec Spec(const char* text) {
  auto spec = gateway::FilterSpec::Parse(text);
  return spec.ok() ? *spec : gateway::FilterSpec{};
}

// Live consumer filters: a threshold, a glob, and a delta filter — all
// pushdown-able, so under the federation tree they travel to the leaves.
const char* const kConsumerSpecs[] = {"threshold:60|VMSTAT_USER_TIME",
                                      "all|TCPD_*",
                                      "delta:25|IOSTAT_READ_KB"};

}  // namespace

Pipeline::Pipeline(PipelineOptions options, archive::EventArchive& archive)
    : options_(std::move(options)),
      archive_(archive),
      clock_(options_.start),
      rng_(options_.seed ^ 0xA5A5A5A5ull) {}

Pipeline::~Pipeline() {
  // Consumers and archivers hold channels into the services; drop them
  // first so no client outlives the endpoint it dialed.
  consumers_.clear();
  archivers_.clear();
}

rpc::RpcClient::Dialer Pipeline::MakeDialer(const std::string& address,
                                            const std::string& hop) {
  WireCounters* counters = nullptr;
  if (options_.count_wire) {
    for (auto& w : wire_) {
      if (w.hop == hop) counters = &w;
    }
    if (counters == nullptr) {
      counters = &wire_.emplace_back();
      counters->hop = hop;
    }
  }
  return [this, address, counters]()
             -> Result<std::unique_ptr<transport::Channel>> {
    auto dialed = net_.Dial(address);
    if (!dialed.ok()) return dialed;
    std::unique_ptr<transport::Channel> channel = std::move(*dialed);
    if (counters != nullptr) {
      channel = std::make_unique<CountingChannel>(std::move(channel), *counters);
    }
    return channel;
  };
}

Status Pipeline::Build() {
  if (options_.groups <= 0 || kPollInterval % options_.groups != 0 ||
      options_.hosts < options_.groups) {
    return Status::InvalidArgument("groups must divide the poll interval");
  }
  base_ingested_ = archive_.ingested();
  base_stored_ = archive_.size();
  base_archive_dropped_ = archive_.dropped();
  auto suffix = directory::Dn::Parse("ou=sensors, o=jamm");
  if (!suffix.ok()) return suffix.status();
  suffix_ = *suffix;
  directory_ = std::make_shared<directory::DirectoryServer>(suffix_,
                                                            "ldap://bench");
  pool_.AddServer(directory_);

  auto config = Config::ParseString(
      SensorConfigText(kPollInterval));
  if (!config.ok()) return config.status();
  sensor_config_ = *config;

  // Site / leaf gateways, each fronted by a GatewayService.
  for (int g = 0; g < options_.gateways; ++g) {
    const std::string name = "gw-" + std::to_string(g);
    gateways_.push_back(std::make_unique<gateway::EventGateway>(name, clock_));
    auto listener = net_.Listen(name);
    if (!listener.ok()) return listener.status();
    services_.push_back(std::make_unique<gateway::GatewayService>(
        *gateways_.back(), std::move(*listener)));
    services_.back()->set_batch_max_age(0);
  }

  // Hosts; sensors start group by group in the first waves (StartGroup).
  hosts_.resize(static_cast<std::size_t>(options_.hosts));
  for (int h = 0; h < options_.hosts; ++h) {
    Host& host = hosts_[static_cast<std::size_t>(h)];
    const std::string name = HostName(h);
    host.machine = std::make_unique<sysmon::SimHost>(
        name, clock_, HostSeed(options_.seed, h));
    ApplyBaseLoad(*host.machine, rng_);
    manager::SensorManager::Options mo;
    mo.clock = &clock_;
    mo.host = host.machine.get();
    const int site = h % options_.gateways;
    mo.gateway = gateways_[static_cast<std::size_t>(site)].get();
    mo.directory = &pool_;
    mo.directory_suffix = suffix_;
    mo.gateway_address = "gw-" + std::to_string(site);
    mo.config_refresh = 0;
    host.manager = std::make_unique<manager::SensorManager>(std::move(mo));
  }

  // Shadow hosts: identical SimHosts (same seed and base load) whose
  // sensors the benchmark polls itself — the known emitted set.
  const int stride = options_.hosts / kShadowHosts;
  for (int s = 0; s < kShadowHosts; ++s) {
    const int h = s * stride + (s % options_.groups);
    if (h >= options_.hosts) break;
    auto shadow = std::make_unique<Shadow>();
    shadow->host = h;
    shadow->name = HostName(h);
    shadow->machine = std::make_unique<sysmon::SimHost>(
        shadow->name, clock_, HostSeed(options_.seed, h));
    shadows_.push_back(std::move(shadow));
  }
  // Replay the real hosts' base-load draws onto the shadows.
  {
    Rng replay(options_.seed ^ 0xA5A5A5A5ull);
    std::size_t next = 0;
    sysmon::SimHost scratch("scratch", clock_);
    for (int h = 0; h < options_.hosts && next < shadows_.size(); ++h) {
      const bool shadowed = shadows_[next]->host == h;
      ApplyBaseLoad(shadowed ? *shadows_[next]->machine : scratch, replay);
      if (shadowed) ++next;
    }
  }

  // Federation tree over the gateways (depth 3, fan-out 4: 16 → 4 → 1 →
  // root), a GatewayService at every tier including the root.
  std::vector<std::string> consumer_targets;
  if (options_.federation) {
    std::vector<std::string> below;
    for (int g = 0; g < options_.gateways; ++g) {
      below.push_back("gw-" + std::to_string(g));
    }
    constexpr int kDepth = 3;
    constexpr int kFanout = 4;
    for (int tier = 0; tier < kDepth; ++tier) {
      const bool is_root = tier == kDepth - 1;
      const int nodes = is_root ? 1
                                : std::max<int>(1, static_cast<int>(
                                                       below.size()) /
                                                       kFanout);
      const std::string hop = tier == 0 ? "gw>t0" : tier == 1 ? "t0>t1"
                                                              : "t1>root";
      tiers_.emplace_back();
      tier_services_.emplace_back();
      std::vector<std::string> names;
      for (int i = 0; i < nodes; ++i) {
        const std::string name =
            is_root ? "root"
                    : "t" + std::to_string(tier) + "-" + std::to_string(i);
        federation::RepublisherGateway::Options ro;
        ro.batch_records = kBatchRecords;
        auto node = std::make_unique<federation::RepublisherGateway>(
            name, clock_, ro);
        const int span = static_cast<int>(below.size()) / nodes;
        for (int c = i * span; c < (i + 1) * span; ++c) {
          federation::RepublisherGateway::DownstreamSpec spec;
          spec.name = below[static_cast<std::size_t>(c)];
          spec.dialer = MakeDialer(spec.name, hop);
          JAMM_RETURN_IF_ERROR(node->AddDownstream(std::move(spec)));
        }
        auto listener = net_.Listen(name);
        if (!listener.ok()) return listener.status();
        tier_services_.back().push_back(
            std::make_unique<gateway::GatewayService>(*node,
                                                      std::move(*listener)));
        tier_services_.back().back()->set_batch_max_age(0);
        tiers_.back().push_back(std::move(node));
        names.push_back(name);
      }
      below = std::move(names);
    }
    auto archiver = std::make_unique<consumers::ArchiverAgent>(
        "archiver-root", archive_, "inproc:archive", &clock_);
    JAMM_RETURN_IF_ERROR(archiver->AttachRemote(
        std::make_unique<gateway::GatewayClient>(
            MakeDialer("root", "root>archiver")),
        {}, kBatchRecords));
    archivers_.push_back(std::move(archiver));
    consumer_targets.assign(static_cast<std::size_t>(options_.consumers),
                            "root");
  } else {
    for (int g = 0; g < options_.gateways; ++g) {
      const std::string name = "gw-" + std::to_string(g);
      auto archiver = std::make_unique<consumers::ArchiverAgent>(
          "archiver-" + std::to_string(g), archive_, "inproc:archive",
          &clock_);
      JAMM_RETURN_IF_ERROR(archiver->AttachRemote(
          std::make_unique<gateway::GatewayClient>(
              MakeDialer(name, "gw>archiver")),
          {}, kBatchRecords));
      archivers_.push_back(std::move(archiver));
    }
    for (int c = 0; c < options_.consumers; ++c) {
      consumer_targets.push_back("gw-" + std::to_string(c % options_.gateways));
    }
  }

  for (std::size_t c = 0; c < consumer_targets.size(); ++c) {
    Consumer consumer;
    consumer.client = std::make_unique<gateway::GatewayClient>(
        MakeDialer(consumer_targets[c], "consumer"));
    const char* spec = kConsumerSpecs[c % std::size(kConsumerSpecs)];
    JAMM_RETURN_IF_ERROR(consumer.client->SubscribeBatchedAsync(
        "consumer-" + std::to_string(c), Spec(spec), 16));
    consumers_.push_back(std::move(consumer));
  }

  // Archive query service, served by the pipeline thread between waves.
  registry_ = std::make_unique<rpc::Registry>(clock_);
  JAMM_RETURN_IF_ERROR(archive::RegisterArchiveService(*registry_, archive_));
  auto listener = net_.Listen("archive");
  if (!listener.ok()) return listener.status();
  rpc_server_ =
      std::make_unique<rpc::RpcServer>(*registry_, std::move(*listener));
  rpc_address_ = "archive";

  // Settle: subscriptions (and pushdown groups down the tree) established.
  for (int i = 0; i < 8; ++i) DrainOnce();
  return Status::Ok();
}

std::string Pipeline::archive_object() const {
  return archive::ArchiveObjectName(archive_.name());
}

void Pipeline::StartGroup(int group) {
  for (int h = group; h < options_.hosts; h += options_.groups) {
    (void)hosts_[static_cast<std::size_t>(h)].manager->ApplyConfig(
        sensor_config_);
  }
  sensors::SensorContext context;
  context.clock = &clock_;
  for (auto& shadow : shadows_) {
    if (shadow->host % options_.groups != group) continue;
    context.host = shadow->machine.get();
    for (const auto& section : sensor_config_.sections()) {
      auto sensor = sensors::CreateSensor(section, context);
      if (!sensor.ok()) continue;
      (void)(*sensor)->Start();
      shadow->sensors.push_back(std::move(*sensor));
    }
  }
}

void Pipeline::Perturb(int group) {
  ScopedSpan span(SpanName::kPerturb);
  std::size_t next_shadow = 0;
  for (int h = group; h < options_.hosts; h += options_.groups) {
    sysmon::SimHost* shadow = nullptr;
    while (next_shadow < shadows_.size() &&
           shadows_[next_shadow]->host < h) {
      ++next_shadow;
    }
    if (next_shadow < shadows_.size() && shadows_[next_shadow]->host == h) {
      shadow = shadows_[next_shadow]->machine.get();
    }
    sysmon::SimHost& machine = *hosts_[static_cast<std::size_t>(h)].machine;
    const std::int64_t read_kb = rng_.Uniform(0, 4096);
    const std::int64_t write_kb = rng_.Uniform(0, 2048);
    const std::int64_t interrupts = rng_.Uniform(100, 5000);
    const bool retrans = rng_.Chance(0.3);
    const std::int64_t retrans_n = rng_.Uniform(1, 20);
    const bool window = rng_.Chance(0.1);
    const std::int64_t window_bytes = rng_.Uniform(16, 1024) * 1024;
    for (sysmon::SimHost* m : {&machine, shadow}) {
      if (m == nullptr) continue;
      m->AddDiskIo(read_kb, write_kb);
      m->AddInterrupts(interrupts);
      if (retrans) m->AddTcpRetransmits(retrans_n);
      if (window) m->SetTcpWindow(window_bytes);
    }
  }
}

void Pipeline::PollShadows(int group) {
  std::vector<ulm::Record> out;
  for (auto& shadow : shadows_) {
    if (shadow->host % options_.groups != group) continue;
    auto& events = shadow->events[clock_.Now()];
    for (auto& sensor : shadow->sensors) {
      out.clear();
      (void)sensor->Poll(out);
      for (const auto& rec : out) {
        events.push_back({rec.timestamp(), rec.event_name(),
                          rec.GetField("VAL").value_or("")});
      }
    }
  }
}

void Pipeline::DrainOnce() {
  for (auto& service : services_) {
    ScopedSpan span(SpanName::kServicePoll);
    service->PollOnce();
  }
  static constexpr SpanName kTierSpans[] = {
      SpanName::kFedPumpT0, SpanName::kFedPumpT1, SpanName::kFedPumpRoot};
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    for (auto& node : tiers_[t]) {
      ScopedSpan span(kTierSpans[std::min<std::size_t>(t, 2)]);
      node->Pump();
    }
    for (auto& service : tier_services_[t]) {
      ScopedSpan span(SpanName::kServicePoll);
      service->PollOnce();
    }
  }
  for (auto& archiver : archivers_) {
    ScopedSpan span(SpanName::kArchiverPump);
    archiver->PumpRemote();
  }
  for (auto& consumer : consumers_) {
    ScopedSpan span(SpanName::kConsumerDrain);
    consumer.received += consumer.client->DrainEvents().size();
  }
}

std::uint64_t Pipeline::GatewayEventsIn() const {
  std::uint64_t total = 0;
  for (const auto& gw : gateways_) total += gw->stats().events_in;
  return total;
}

std::size_t Pipeline::Wave() {
  Tracer::Get().set_wave(wave_);
  std::size_t emitted_now = 0;
  {
    ScopedSpan wave_span(SpanName::kWave);
    const int group = static_cast<int>(wave_ % options_.groups);
    clock_.Set(options_.start + wave_ * wave_step());
    if (wave_ < options_.groups) StartGroup(group);
    Perturb(group);
    // A manager's loop runs at its sensors' interval: only the due
    // group's managers tick (heartbeats ride on those ticks).
    for (int h = group; h < options_.hosts; h += options_.groups) {
      ScopedSpan span(SpanName::kManagerTick);
      hosts_[static_cast<std::size_t>(h)].manager->Tick();
    }
    PollShadows(group);
    const std::uint64_t before = emitted_;
    emitted_ = GatewayEventsIn();
    emitted_now = static_cast<std::size_t>(emitted_ - before);
    wave_emitted_.push_back(static_cast<std::uint32_t>(emitted_now));
    const std::uint64_t target = base_ingested_ + emitted_;
    bool visible = false;
    for (int pass = 0; pass < kMaxDrainPasses && !visible; ++pass) {
      DrainOnce();
      ScopedSpan span(SpanName::kArchiveIngested);
      // ingested() is O(stripes); a record counts once it sits in an
      // active segment, where queries see it.
      visible = archive_.ingested() >= target;
    }
    if (!visible) ++stuck_waves_;
  }
  Tracer::Get().set_wave(-1);
  ++wave_;
  return emitted_now;
}

std::size_t Pipeline::PollRpc() {
  ScopedSpan span(SpanName::kRpcPoll);
  const std::size_t served = rpc_server_->PollOnce();
  if (served == 0) span.Rename(SpanName::kRpcPollIdle);
  return served;
}

Pipeline::Ledger Pipeline::TakeLedger() const {
  Ledger ledger;
  ledger.emitted = GatewayEventsIn();
  ledger.archived = archive_.size() - base_stored_;
  ledger.archive_dropped = archive_.dropped() - base_archive_dropped_;
  auto service_drops = [](const gateway::GatewayService& service) {
    std::uint64_t dropped = 0;
    for (const auto& q : service.QueueStats()) {
      // Live consumers' queues do not feed the archive.
      if (q.consumer.rfind("consumer-", 0) != 0) dropped += q.dropped_records;
    }
    return dropped;
  };
  for (const auto& service : services_) {
    ledger.service_dropped += service_drops(*service);
  }
  for (const auto& tier : tier_services_) {
    for (const auto& service : tier) {
      ledger.service_dropped += service_drops(*service);
    }
  }
  for (const auto& archiver : archivers_) {
    ledger.archiver_dropped += archiver->remote_dropped();
  }
  // Republisher dedup drops (duplicate and stale records) at every tier.
  for (const auto& tier : tiers_) {
    for (const auto& node : tier) {
      const auto s = node->stats();
      ledger.federation_dropped += s.duplicates_dropped + s.stale_dropped;
    }
  }
  ledger.counted_drops = ledger.service_dropped + ledger.archiver_dropped +
                         ledger.federation_dropped + ledger.archive_dropped;
  ledger.exact = ledger.emitted == ledger.archived + ledger.counted_drops;

  // Identity per wave: a sensor stamps its events with the wave's sim
  // time, so wave k's events are the archive's records in
  // [start + k*step, start + (k+1)*step). A lost event and a duplicated
  // one cancel in the totals above but not here, unless both fall in the
  // same wave.
  archive::AnalysisSpec spec;
  spec.bucket = wave_step();
  const auto buckets = archive::AnalysisEngine(archive_).Loadline(
      spec, options_.start, options_.start + wave_ * wave_step());
  std::vector<std::uint64_t> archived(wave_emitted_.size(), 0);
  std::uint64_t in_range = 0;
  for (const auto& b : buckets) {
    archived[static_cast<std::size_t>((b.bucket_start - options_.start) /
                                      wave_step())] = b.count;
    in_range += b.count;
  }
  // Events not archived exactly once: per-wave differences, plus records
  // outside every wave.
  ledger.failed = ledger.archived > in_range ? ledger.archived - in_range
                                             : in_range - ledger.archived;
  for (std::size_t k = 0; k < archived.size(); ++k) {
    const std::uint64_t want = wave_emitted_[k];
    if (archived[k] == want) continue;
    ++ledger.waves_mismatched;
    ledger.failed +=
        archived[k] > want ? archived[k] - want : want - archived[k];
  }
  return ledger;
}

Pipeline::LayerStats Pipeline::Stats() const {
  LayerStats s;
  auto add_gateway = [&s](const gateway::EventGateway& gw) {
    const auto g = gw.stats();
    s.gw_events_in += g.events_in;
    s.gw_delivered += g.events_delivered;
    s.gw_filtered += g.events_filtered;
  };
  for (const auto& gw : gateways_) add_gateway(*gw);
  for (const auto& tier : tiers_) {
    for (const auto& node : tier) {
      add_gateway(node->local());
      const auto f = node->stats();
      s.fed_records_in += f.records_in;
      s.fed_duplicates += f.duplicates_dropped;
      s.fed_stale += f.stale_dropped;
    }
  }
  for (const auto& c : consumers_) s.consumer_events += c.received;
  for (const auto& w : wire_) {
    s.wire_msgs += w.sent_msgs + w.recv_msgs;
    s.wire_bytes += w.sent_bytes + w.recv_bytes;
  }
  return s;
}

}  // namespace perfbench
