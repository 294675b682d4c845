// ISSUE 6 satellite: federation tree benchmark.
//
// Part A — tree scaling. Builds republisher trees of depth {1,2,3} ×
// fan-out {2,4} over leaf EventGateways carrying 10k simulated hosts,
// subscribes one consumer at the root with a pushdown-able spec, and
// measures end-to-end events/s (publish at the leaves → delivery at the
// root, including every tier's wire hop) plus the median single-record
// propagation latency through the full tree. The gated depth-scaling
// ratio — depth-3×4 over depth-1 events/s — is the median of
// kRatioPairs interleaved pass pairs: a single pass pair is too noisy to
// gate (0.98 and 0.77 on one 4-vCPU VM).
//
// Part B — pushdown send reduction. One leaf, one republisher, a spec
// matching 1 of kEventSpecies event species. With pushdown the leaf
// serializes only matching records onto the wire; with the local-eval
// fallback (a downstream that predates pushdown) the leaf ships its whole
// base stream and the republisher filters. The ratio of leaf wire records
// is deterministic (≈ kEventSpecies) and machine-independent — it is the
// gated metric in scripts/check_bench.sh.
//
// Part C — stream floor (self-enforced, exit 1): with lazy base streams,
// the leaf gateway must carry exactly ONE outgoing stream regardless of
// how many root subscribers share the spec (1, 8, 64).
//
// Emits BENCH_federation.json (path = argv[1], default
// ./BENCH_federation.json) for scripts/check_bench.sh.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "federation/republisher.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "transport/inproc.hpp"
#include "ulm/record.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr int kHosts = 10000;
constexpr int kTreeEvents = 50000;
constexpr int kEventSpecies = 10;  // CPU plus 9 the spec never matches
constexpr int kLatencyTrips = 50;
constexpr int kRatioPairs = 7;
constexpr double kMinSendReduction = 5.0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpeciesName(int species) {
  static const char* kNames[kEventSpecies] = {
      "CPU",  "MEM",  "NET", "DSK", "SWAP",
      "LOAD", "PROC", "TCP", "UDP", "IRQ"};
  return kNames[species % kEventSpecies];
}

// ------------------------------------------------- Part A: tree scaling

/// A full federation tree: f^(depth-1) leaf gateways under depth-1 tiers
/// of republishers and a root republisher. Every inter-tier hop crosses
/// the in-proc transport through a real GatewayService.
struct Tree {
  SimClock clock;
  transport::InProcNetwork net;
  std::vector<std::unique_ptr<gateway::EventGateway>> leaves;
  std::vector<std::unique_ptr<gateway::GatewayService>> leaf_services;
  // tiers[0] is just above the leaves; tiers.back() holds only the root.
  std::vector<std::vector<std::unique_ptr<federation::RepublisherGateway>>>
      tiers;
  std::vector<std::vector<std::unique_ptr<gateway::GatewayService>>>
      tier_services;  // no service above the root

  federation::RepublisherGateway& root() { return *tiers.back().front(); }

  /// One bottom-up wave: leaf services flush, then each tier pumps and
  /// flushes. Advances the sim clock past batch_max_age so partial
  /// batches never linger.
  void Pump() {
    clock.Advance(60 * kMillisecond);
    for (auto& service : leaf_services) service->PollOnce();
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      for (auto& node : tiers[t]) node->Pump();
      if (t < tier_services.size()) {
        for (auto& service : tier_services[t]) service->PollOnce();
      }
    }
  }
};

std::unique_ptr<Tree> BuildTree(int depth, int fanout) {
  auto tree = std::make_unique<Tree>();
  federation::RepublisherGateway::Options options;
  options.lazy_base_stream = true;

  int leaf_count = 1;
  for (int d = 1; d < depth; ++d) leaf_count *= fanout;
  std::vector<std::string> below;  // dialable names of the tier below
  for (int i = 0; i < leaf_count; ++i) {
    const std::string name = "leaf-" + std::to_string(i);
    tree->leaves.push_back(
        std::make_unique<gateway::EventGateway>(name, tree->clock));
    auto listener = tree->net.Listen(name);
    tree->leaf_services.push_back(std::make_unique<gateway::GatewayService>(
        *tree->leaves.back(), std::move(*listener)));
    below.push_back(name);
  }

  for (int tier = 0; tier < depth; ++tier) {
    const bool is_root = tier == depth - 1;
    const int nodes = is_root ? 1 : leaf_count / fanout;
    leaf_count = nodes;
    std::vector<std::string> names;
    tree->tiers.emplace_back();
    if (!is_root) tree->tier_services.emplace_back();
    for (int i = 0; i < nodes; ++i) {
      const std::string name =
          is_root ? "root" : "t" + std::to_string(tier) + "-" +
                                 std::to_string(i);
      auto node = std::make_unique<federation::RepublisherGateway>(
          name, tree->clock, options);
      const int span = static_cast<int>(below.size()) / nodes;
      for (int c = i * span; c < (i + 1) * span; ++c) {
        const std::string child = below[static_cast<std::size_t>(c)];
        transport::InProcNetwork& net = tree->net;
        (void)node->AddDownstream(
            {child, [&net, child] { return net.Dial(child); }, true, ""});
      }
      if (!is_root) {
        auto listener = tree->net.Listen(name);
        tree->tier_services.back().push_back(
            std::make_unique<gateway::GatewayService>(*node,
                                                      std::move(*listener)));
      }
      tree->tiers.back().push_back(std::move(node));
      names.push_back(name);
    }
    below = std::move(names);
  }
  return tree;
}

gateway::FilterSpec CpuSpec() {
  auto spec = gateway::FilterSpec::Parse("all|CPU");
  return spec.ok() ? *spec : gateway::FilterSpec{};
}

struct TreeRow {
  int depth;
  int fanout;
  int leaves;
  double events_per_s;   // published/s end-to-end, all species
  double latency_us;     // median single-record root arrival, wall clock
  std::uint64_t delivered;
  std::uint64_t expected;  // CPU-species records published
};

TreeRow MeasureTree(int depth, int fanout) {
  auto tree = BuildTree(depth, fanout);
  std::uint64_t delivered = 0;
  (void)tree->root().SubscribeEncoded(
      "bench", CpuSpec(),
      [&delivered](const ulm::EncodedRecord&) { ++delivered; });
  for (int i = 0; i < depth + 2; ++i) tree->Pump();  // propagate the spec

  const std::size_t leaves = tree->leaves.size();
  std::uint64_t expected = 0;
  TimePoint ts = kSecond;
  const double t0 = NowSeconds();
  for (int i = 0; i < kTreeEvents; ++i) {
    const int host = i % kHosts;
    const int species = i % kEventSpecies;
    ts += kMillisecond;
    ulm::FlatRecord rec(ts, "host" + std::to_string(host), "sensor", "Usage",
                    SpeciesName(species));
    rec.SetField("VAL", static_cast<double>(i % 100));
    tree->leaves[static_cast<std::size_t>(host) % leaves]->Publish(rec);
    if (species == 0) ++expected;
    if (i % 256 == 255) tree->Pump();
  }
  for (int i = 0; i < depth + 2; ++i) tree->Pump();  // drain stragglers
  const double elapsed = NowSeconds() - t0;

  // Median single-record propagation: publish one CPU record, pump waves
  // until the root sees it, and time the whole trip.
  std::vector<double> trips;
  for (int trip = 0; trip < kLatencyTrips; ++trip) {
    ts += kSecond;
    ulm::FlatRecord rec(ts, "host0", "sensor", "Usage", "CPU");
    rec.SetField("VAL", 1.0);
    const std::uint64_t before = delivered;
    const double s0 = NowSeconds();
    tree->leaves[0]->Publish(rec);
    while (delivered == before) tree->Pump();
    trips.push_back((NowSeconds() - s0) * 1e6);
  }
  std::sort(trips.begin(), trips.end());

  return {depth,
          fanout,
          static_cast<int>(leaves),
          kTreeEvents / elapsed,
          trips[trips.size() / 2],
          delivered - kLatencyTrips,
          expected};
}

// -------------------------------------- Part B: pushdown send reduction

/// Leaf wire records (sum of sent_records over the leaf's service
/// subscriptions) needed to serve one root subscriber of the CPU spec.
/// `pushdown` false forces the local-eval fallback: the leaf ships its
/// whole base stream.
std::uint64_t LeafWireRecords(bool pushdown) {
  SimClock clock;
  transport::InProcNetwork net;
  gateway::EventGateway leaf("leaf", clock);
  auto listener = net.Listen("leaf");
  gateway::GatewayService service(leaf, std::move(*listener));
  federation::RepublisherGateway::Options options;
  options.lazy_base_stream = true;
  federation::RepublisherGateway site("site", clock, options);
  (void)site.AddDownstream(
      {"leaf", [&net] { return net.Dial("leaf"); }, pushdown, ""});

  std::uint64_t delivered = 0;
  (void)site.SubscribeEncoded(
      "bench", CpuSpec(),
      [&delivered](const ulm::EncodedRecord&) { ++delivered; });
  auto pump = [&] {
    clock.Advance(60 * kMillisecond);
    service.PollOnce();
    site.Pump();
  };
  pump();
  pump();  // second wave: the subscribe sent by the first Pump round-trips
  TimePoint ts = kSecond;
  for (int i = 0; i < kTreeEvents; ++i) {
    ts += kMillisecond;
    ulm::FlatRecord rec(ts, "host" + std::to_string(i % kHosts), "sensor",
                    "Usage", SpeciesName(i % kEventSpecies));
    rec.SetField("VAL", static_cast<double>(i % 100));
    leaf.Publish(rec);
    if (i % 256 == 255) pump();
  }
  pump();
  pump();
  if (delivered != kTreeEvents / kEventSpecies) {
    std::fprintf(stderr, "delivery mismatch: %llu of %d\n",
                 static_cast<unsigned long long>(delivered),
                 kTreeEvents / kEventSpecies);
  }
  std::uint64_t wire = 0;
  for (const auto& sub : service.QueueStats()) wire += sub.sent_records;
  return wire;
}

// ----------------------------------------- Part C: leaf stream floor

/// With lazy base streams, N root subscribers sharing a spec must
/// collapse to ONE leaf stream. Returns the leaf subscription count.
std::size_t LeafStreams(int root_subscribers) {
  SimClock clock;
  transport::InProcNetwork net;
  gateway::EventGateway leaf("leaf", clock);
  auto listener = net.Listen("leaf");
  gateway::GatewayService service(leaf, std::move(*listener));
  federation::RepublisherGateway::Options options;
  options.lazy_base_stream = true;
  federation::RepublisherGateway site("site", clock, options);
  (void)site.AddDownstream(
      {"leaf", [&net] { return net.Dial("leaf"); }, true, ""});
  for (int i = 0; i < root_subscribers; ++i) {
    (void)site.SubscribeEncoded("c" + std::to_string(i), CpuSpec(),
                                [](const ulm::EncodedRecord&) {});
  }
  site.Pump();
  service.PollOnce();
  return leaf.subscription_count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_federation.json";

  std::printf("federation tree — pushdown republisher scaling (%d simulated "
              "hosts)\n\n", kHosts);

  // Part A: depth × fan-out sweep.
  std::printf("tree scaling (%d events round-robin across leaves, spec "
              "matches 1 of %d species)\n", kTreeEvents, kEventSpecies);
  std::printf("%-6s | %-7s | %-6s | %12s | %12s | %10s\n", "depth", "fanout",
              "leaves", "events/s", "latency us", "delivered");
  std::vector<TreeRow> rows;
  for (int depth : {1, 2, 3}) {
    for (int fanout : {2, 4}) {
      if (depth == 1 && fanout == 2) continue;  // same tree as 1×4 modulo leaves
      rows.push_back(MeasureTree(depth, fanout));
      const auto& r = rows.back();
      std::printf("%-6d | %-7d | %-6d | %12.0f | %12.1f | %7llu/%llu\n",
                  r.depth, r.fanout, r.leaves, r.events_per_s, r.latency_us,
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.expected));
    }
  }
  bool exact = true;
  for (const auto& r : rows) exact &= r.delivered == r.expected;

  // The gated depth-scaling ratio, from interleaved depth-1 / depth-3×4
  // pass pairs so host drift hits both sides of each pair alike.
  std::vector<double> ratios;
  for (int pair = 0; pair < kRatioPairs; ++pair) {
    const TreeRow shallow = MeasureTree(1, 4);
    const TreeRow deep = MeasureTree(3, 4);
    exact &= shallow.delivered == shallow.expected &&
             deep.delivered == deep.expected;
    ratios.push_back(deep.events_per_s / shallow.events_per_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double depth_ratio = ratios[ratios.size() / 2];
  std::printf("\ndepth3_vs_depth1_throughput: %.2f (median of %d pass "
              "pairs, range %.2f-%.2f)\n",
              depth_ratio, kRatioPairs, ratios.front(), ratios.back());

  // Part B: the gated ratio.
  const std::uint64_t wire_fallback = LeafWireRecords(/*pushdown=*/false);
  const std::uint64_t wire_pushdown = LeafWireRecords(/*pushdown=*/true);
  const double reduction =
      static_cast<double>(wire_fallback) /
      static_cast<double>(wire_pushdown ? wire_pushdown : 1);
  std::printf("\nleaf wire records for one filtered root subscriber:\n");
  std::printf("  local-eval fallback (base stream): %llu\n",
              static_cast<unsigned long long>(wire_fallback));
  std::printf("  pushdown (filter at the leaf):     %llu\n",
              static_cast<unsigned long long>(wire_pushdown));
  std::printf("  pushdown_send_reduction: %.1fx (floor %.1fx)\n", reduction,
              kMinSendReduction);

  // Part C: the stream floor.
  bool one_stream = true;
  std::printf("\nleaf streams vs root subscriber count (must stay 1):\n");
  for (int subs : {1, 8, 64}) {
    const std::size_t streams = LeafStreams(subs);
    std::printf("  %2d subscribers -> %zu leaf stream(s)\n", subs, streams);
    one_stream &= streams == 1;
  }

  // Machine-readable results for scripts/check_bench.sh.
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"bench_federation\",\n");
  std::fprintf(json, "  \"workload\": \"%d events, %d simulated hosts, "
               "republisher trees depth {1,2,3} x fan-out {2,4} over in-proc "
               "transport; spec matches 1 of %d event species\",\n",
               kTreeEvents, kHosts, kEventSpecies);
  std::fprintf(json, "  \"method\": \"events/s = wall time for all events "
               "leaf->root; latency = median of %d single-record trips; "
               "depth3_vs_depth1_throughput = median over %d interleaved "
               "pass pairs of depth-3x4 / depth-1 events/s; send "
               "reduction = leaf wire records fallback/pushdown\",\n",
               kLatencyTrips, kRatioPairs);
  std::fprintf(json, "  \"results\": {\n");
  std::fprintf(json, "    \"trees\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(json, "      {\"depth\": %d, \"fanout\": %d, \"leaves\": %d, "
                 "\"events_per_s\": %.0f, \"latency_us\": %.1f}%s\n",
                 r.depth, r.fanout, r.leaves, r.events_per_s, r.latency_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "    ],\n");
  std::fprintf(json, "    \"depth3_vs_depth1_throughput\": %.2f,\n",
               depth_ratio);
  std::fprintf(json, "    \"leaf_wire_records_fallback\": %llu,\n",
               static_cast<unsigned long long>(wire_fallback));
  std::fprintf(json, "    \"leaf_wire_records_pushdown\": %llu,\n",
               static_cast<unsigned long long>(wire_pushdown));
  std::fprintf(json, "    \"pushdown_send_reduction\": %.1f,\n", reduction);
  std::fprintf(json, "    \"pushdown_send_reduction_floor\": %.1f,\n",
               kMinSendReduction);
  std::fprintf(json, "    \"leaf_streams_stay_one\": %s\n",
               one_stream ? "true" : "false");
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!one_stream) {
    std::printf("FAIL: leaf stream count grew with root subscribers\n");
    return 1;
  }
  if (!exact) {
    std::printf("FAIL: tree lost or duplicated records\n");
    return 1;
  }
  if (reduction < kMinSendReduction) {
    std::printf("FAIL: pushdown send reduction below floor\n");
    return 1;
  }
  std::printf("PASS: pushdown floors met; delivery exact at every depth\n");
  return 0;
}
