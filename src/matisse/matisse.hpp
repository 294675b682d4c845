// Matisse application simulation (paper §6, Figures 5-7): MEMS video
// frames striped across DPSS storage servers at Berkeley stream over
// DARPA Supernet to a compute cluster at ISI East, which analyses each
// frame and hands the result to a visualization workstation.
//
// The pipeline per frame:
//   MPLAY_START_READ_FRAME  (player requests the next frame)
//   DPSS_START_SEND ×N      (each stripe server starts sending)
//   ... TCP transfer over the WAN (netsim) ...
//   MPLAY_END_READ_FRAME    (all stripes received at the compute host)
//   [compute_time]          (frame analysis)
//   MPLAY_START_PUT_IMAGE   (result displayed on the workstation)
//   MPLAY_END_PUT_IMAGE
// and the next frame's read begins as soon as the previous read ends
// (fetch is pipelined with analysis/display, as a double-buffered player).
//
// The app also:
//  * records every application read() size — reads drain the socket in
//    chunks of at most `read_chunk_limit`, which is what produces the
//    Figure-3 two-cluster scatter (full-buffer reads vs trickle reads);
//  * couples the netsim state to a sysmon::SimHost for the receiving
//    host so ordinary JAMM vmstat/netstat sensors observe the Figure-7
//    signals (high system CPU, TCP retransmits, window changes).
#pragma once

#include <memory>
#include <vector>

#include "netsim/profiles.hpp"
#include "netsim/tcp.hpp"
#include "sysmon/simhost.hpp"
#include "ulm/flat.hpp"

namespace jamm::matisse {

struct MatisseConfig {
  int dpss_servers = 4;                       // stripes (the demo used 4)
  std::uint64_t frame_bytes = 3'000'000;      // ≈3 MB per video frame
  Duration compute_time = 20 * kMillisecond;  // per-frame analysis
  Duration display_time = 30 * kMillisecond;  // put-image on the viz host
  std::size_t read_chunk_limit = 64 * 1024;   // app read() buffer size
  Duration read_poll = kMillisecond;          // reader loop period
  std::uint64_t max_frames = 0;               // 0 = run until Stop()
};

class MatisseApp {
 public:
  MatisseApp(netsim::Simulator& sim, netsim::Network& net,
             const netsim::MatisseTopology& topo, MatisseConfig config = {});
  ~MatisseApp();

  MatisseApp(const MatisseApp&) = delete;
  MatisseApp& operator=(const MatisseApp&) = delete;

  void Start();
  void Stop();

  // ----------------------------------------------------------- outputs

  /// Every ULM event emitted so far (MPLAY_*, DPSS_*, TCPD_RETRANSMITS),
  /// in emission order.
  const ulm::FlatBatch& events() const { return events_; }

  /// read() sizes observed by the application reader (Figure 3 data).
  const std::vector<double>& read_sizes() const { return read_sizes_; }

  /// Completion stamp of each frame's read (frame arrival times — the
  /// frame-rate series comes from these).
  const std::vector<TimePoint>& frame_arrivals() const {
    return frame_arrivals_;
  }

  std::uint64_t frames_completed() const { return frames_completed_; }

  /// Simulated host mirroring the receiving compute node; run JAMM host
  /// sensors against it. Its CPU/system load, TCP retransmit counter, and
  /// window size are refreshed from the network simulation every 500 ms.
  sysmon::SimHost& compute_host() { return *compute_host_; }

  /// Total retransmissions across all stripe flows.
  std::uint64_t total_retransmits() const;
  /// Aggregate goodput so far (bits/s).
  double AggregateThroughputBps() const;

 private:
  void StartFrame();
  void ReaderTick();
  void FinishFrameRead();
  void CoupleSensors();
  ulm::FlatRecord MakeEvent(const std::string& host, const std::string& prog,
                            std::string_view event_name) const;

  netsim::Simulator& sim_;
  netsim::Network& net_;
  netsim::MatisseTopology topo_;
  MatisseConfig config_;

  std::vector<std::unique_ptr<netsim::TcpFlow>> flows_;
  std::unique_ptr<sysmon::SimHost> compute_host_;

  bool running_ = false;
  std::uint64_t frame_id_ = 0;
  std::uint64_t frame_received_ = 0;   // bytes of current frame read
  std::uint64_t available_ = 0;        // delivered but not yet read()
  bool frame_in_flight_ = false;

  ulm::FlatBatch events_;
  std::vector<double> read_sizes_;
  std::vector<TimePoint> frame_arrivals_;
  std::uint64_t frames_completed_ = 0;
};

/// Event names (Figure 7's y-axis).
namespace event {
inline constexpr char kStartReadFrame[] = "MPLAY_START_READ_FRAME";
inline constexpr char kEndReadFrame[] = "MPLAY_END_READ_FRAME";
inline constexpr char kStartPutImage[] = "MPLAY_START_PUT_IMAGE";
inline constexpr char kEndPutImage[] = "MPLAY_END_PUT_IMAGE";
inline constexpr char kDpssStartSend[] = "DPSS_START_SEND";
inline constexpr char kTcpdRetransmits[] = "TCPD_RETRANSMITS";
}  // namespace event

}  // namespace jamm::matisse
