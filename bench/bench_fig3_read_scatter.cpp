// E2 (Figure 3): the read() scatter plot. The paper instrumented
// low-level read() calls and found "the (unexpected) clustering of the
// data around two distinct values". We run the 4-server Matisse pipeline,
// record every application read() size, render the scatter, and report
// the two cluster centers.
#include <cmath>
#include <cstdio>

#include "archive/nlv.hpp"
#include "matisse/matisse.hpp"

using namespace jamm;  // NOLINT: bench brevity

int main() {
  netsim::Simulator sim;
  netsim::Network net(sim, 31);
  auto topo = netsim::BuildMatisseWan(net, 4);
  matisse::MatisseConfig config;
  config.dpss_servers = 4;
  matisse::MatisseApp app(sim, net, topo, config);
  app.Start();
  sim.RunUntil(20 * kSecond);

  const auto& sizes = app.read_sizes();
  std::printf("E2 / Figure 3 — scatter of application read() sizes\n");
  std::printf("paper: reads cluster around two distinct values "
              "(point primitive scaled to the byte count).\n\n");

  // ASCII scatter: x = time bucket, y = size decile.
  constexpr int kWidth = 100, kRows = 12;
  double max_size = 1;
  for (double v : sizes) max_size = std::max(max_size, v);
  std::vector<std::string> grid(kRows, std::string(kWidth, ' '));
  const std::size_t per_col = std::max<std::size_t>(1, sizes.size() / kWidth);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int col = std::min<int>(kWidth - 1,
                                  static_cast<int>(i / per_col));
    const int row = std::min<int>(kRows - 1,
                                  static_cast<int>(sizes[i] / max_size *
                                                   (kRows - 1)));
    grid[static_cast<std::size_t>(kRows - 1 - row)]
        [static_cast<std::size_t>(col)] = 'x';
  }
  for (int r = 0; r < kRows; ++r) {
    std::printf("%7.0fB |%s|\n",
                max_size * (kRows - 1 - r) / (kRows - 1), grid[r].c_str());
  }
  std::printf("          time →  (%zu reads over 20 s)\n\n", sizes.size());

  auto centers = archive::FindClusters1D(sizes, 2);
  std::size_t lower = 0, upper = 0;
  const double midpoint = (centers[0] + centers[1]) / 2;
  for (double v : sizes) {
    (v > midpoint ? upper : lower)++;
  }
  std::printf("cluster centers: %.0f B (%zu reads) and %.0f B (%zu reads)\n",
              centers[0], lower, centers[1], upper);
  std::printf("separation: %.1fx; tightness within ±%0.0fB of a center: "
              "%.1f%%\n",
              centers[1] / std::max(centers[0], 1.0), centers[1] / 3,
              100 * archive::ClusterTightness(sizes, centers,
                                              centers[1] / 3));
  std::printf("\nshape check: two distinct, well-separated modes — %s\n",
              centers[1] > 3 * centers[0] ? "OK" : "NOT REPRODUCED");
  return 0;
}
