#include "matisse/matisse.hpp"

#include <algorithm>

namespace jamm::matisse {

MatisseApp::MatisseApp(netsim::Simulator& sim, netsim::Network& net,
                       const netsim::MatisseTopology& topo,
                       MatisseConfig config)
    : sim_(sim), net_(net), topo_(topo), config_(config) {
  compute_host_ = std::make_unique<sysmon::SimHost>(
      net_.NodeName(topo_.compute), sim_.clock());
  compute_host_->SetBaseLoad(8, 2);  // idle analysis code + OS

  const int n = std::min<int>(config_.dpss_servers,
                              static_cast<int>(topo_.dpss.size()));
  for (int i = 0; i < n; ++i) {
    netsim::TcpConfig tcp = netsim::PaperTcpConfig();  // app-driven flow
    auto flow = std::make_unique<netsim::TcpFlow>(
        net_, topo_.dpss[static_cast<std::size_t>(i)], topo_.compute, tcp);
    flow->on_deliver = [this](std::uint64_t bytes, TimePoint) {
      available_ += bytes;
    };
    flow->on_retransmit = [this](TimePoint) {
      if (!running_) return;
      compute_host_->AddTcpRetransmits(1);
      auto rec = MakeEvent(compute_host_->host(), "tcpdump",
                           event::kTcpdRetransmits);
      rec.SetField("VAL", std::int64_t{1});
      (void)events_.Append(rec.View());
    };
    flow->on_window_change = [this](double cwnd_bytes) {
      compute_host_->SetTcpWindow(static_cast<std::int64_t>(cwnd_bytes));
    };
    flows_.push_back(std::move(flow));
  }
}

MatisseApp::~MatisseApp() { Stop(); }

ulm::FlatRecord MatisseApp::MakeEvent(const std::string& host,
                                      const std::string& prog,
                                      std::string_view event_name) const {
  return ulm::FlatRecord(sim_.Now(), host, prog, "Usage", event_name);
}

void MatisseApp::Start() {
  if (running_) return;
  running_ = true;
  for (auto& flow : flows_) flow->Start();
  StartFrame();
  ReaderTick();
  CoupleSensors();
}

void MatisseApp::Stop() { running_ = false; }

void MatisseApp::StartFrame() {
  if (!running_) return;
  if (config_.max_frames > 0 && frame_id_ >= config_.max_frames) return;
  ++frame_id_;
  frame_in_flight_ = true;
  frame_received_ = 0;

  auto start = MakeEvent(net_.NodeName(topo_.viz), "mplay",
                         event::kStartReadFrame);
  start.SetField("FRAME.ID", static_cast<std::int64_t>(frame_id_));
  (void)events_.Append(start.View());

  // Each stripe server pushes its share of the frame.
  const std::uint64_t stripe =
      config_.frame_bytes / static_cast<std::uint64_t>(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    auto send = MakeEvent(net_.NodeName(topo_.dpss[i]), "dpss",
                          event::kDpssStartSend);
    send.SetField("FRAME.ID", static_cast<std::int64_t>(frame_id_));
    send.SetField("STRIPE.SZ", static_cast<std::int64_t>(stripe));
    (void)events_.Append(send.View());
    flows_[i]->OfferBytes(stripe);
  }
}

void MatisseApp::ReaderTick() {
  if (!running_) return;
  // The application's read() loop: drain at most read_chunk_limit bytes
  // per call — the Figure-3 distribution comes from these sizes.
  if (available_ > 0 && frame_in_flight_) {
    const std::uint64_t got =
        std::min<std::uint64_t>(available_, config_.read_chunk_limit);
    available_ -= got;
    frame_received_ += got;
    read_sizes_.push_back(static_cast<double>(got));
    const std::uint64_t stripe_total =
        (config_.frame_bytes / flows_.size()) * flows_.size();
    if (frame_received_ >= stripe_total) {
      FinishFrameRead();
    }
  }
  sim_.Schedule(config_.read_poll, [this] { ReaderTick(); });
}

void MatisseApp::FinishFrameRead() {
  frame_in_flight_ = false;
  ++frames_completed_;
  frame_arrivals_.push_back(sim_.Now());

  auto end = MakeEvent(compute_host_->host(), "mplay", event::kEndReadFrame);
  end.SetField("FRAME.ID", static_cast<std::int64_t>(frame_id_));
  (void)events_.Append(end.View());

  const std::uint64_t display_frame = frame_id_;
  // Analysis, then display on the workstation; fetch of the next frame is
  // pipelined with both.
  sim_.Schedule(config_.compute_time, [this, display_frame] {
    if (!running_) return;
    auto start = MakeEvent(net_.NodeName(topo_.viz), "mplay",
                           event::kStartPutImage);
    start.SetField("FRAME.ID", static_cast<std::int64_t>(display_frame));
    (void)events_.Append(start.View());
    sim_.Schedule(config_.display_time, [this, display_frame] {
      if (!running_) return;
      auto end_put = MakeEvent(net_.NodeName(topo_.viz), "mplay",
                               event::kEndPutImage);
      end_put.SetField("FRAME.ID", static_cast<std::int64_t>(display_frame));
      (void)events_.Append(end_put.View());
    });
  });
  StartFrame();
}

void MatisseApp::CoupleSensors() {
  if (!running_) return;
  // Mirror the receiving host's simulated NIC/driver load into the
  // SimHost the JAMM vmstat sensor reads.
  compute_host_->SetBaseLoad(8, 2 + net_.ReceiverCpuPct(topo_.compute));
  sim_.Schedule(500 * kMillisecond, [this] { CoupleSensors(); });
}

std::uint64_t MatisseApp::total_retransmits() const {
  std::uint64_t total = 0;
  for (const auto& flow : flows_) total += flow->stats().retransmits;
  return total;
}

double MatisseApp::AggregateThroughputBps() const {
  double total = 0;
  for (const auto& flow : flows_) total += flow->ThroughputBps();
  return total;
}

}  // namespace jamm::matisse
