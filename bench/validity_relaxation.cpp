/// Regenerates the paper's §VI-E validity-relaxation analysis: how far
/// Delphi's output sits from the honest-input average, compared with the
/// exact convex protocols (FIN/Abraham whose outputs stay inside [m, M]).
///
/// Paper numbers: oracle network — Delphi ~25$ from the honest average in
/// expectation vs ~12.5$ for exact protocols (0.05 % of a 40000$ price);
/// drones — ~2.6 m vs ~1.3 m.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "drone/detection.hpp"
#include "oracle/feed.hpp"
#include "stats/summary.hpp"

using namespace delphi;
using namespace delphi::bench;
using scenario::TestbedKind;

namespace {

struct Accum {
  double delphi_dist = 0.0;
  double exact_dist = 0.0;
  double delta_sum = 0.0;
  int trials = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const int trials = quick ? 3 : 12;
  const std::size_t n = 16;

  print_title("§VI-E — validity relaxation in practice",
              "distance of the agreed output from the honest-input average, "
              "Delphi vs an exact convex protocol (FIN-style ACS median), "
              "averaged over independent runs.");

  // ---------------------------------------------------------------- oracle
  {
    Accum acc;
    auto params = protocol::DelphiParams::oracle_network();
    for (int trial = 0; trial < trials; ++trial) {
      oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(100 + trial));
      const auto snapshot = feed.next_minute();
      Rng obs(200 + trial);
      std::vector<double> inputs(n);
      for (auto& v : inputs) v = oracle::node_observation(snapshot, 3, obs);
      const auto s = stats::summarize(inputs);

      const auto r = scenario::SweepRunner().run(
          {delphi_spec(TestbedKind::kAws, n, 300 + trial, params, inputs),
           fin_spec(TestbedKind::kAws, n, 400 + trial, inputs)});
      const auto &d = r[0], &f = r[1];
      if (!d.ok || !f.ok) continue;
      acc.delphi_dist += std::fabs(d.outputs.front() - s.mean);
      acc.exact_dist += std::fabs(f.outputs.front() - s.mean);
      acc.delta_sum += s.range();
      ++acc.trials;
    }
    std::printf("oracle network (n = %zu, %d runs):\n", n, acc.trials);
    std::printf("  mean honest range delta: %.1f$  (paper: ~25$)\n",
                acc.delta_sum / acc.trials);
    std::printf("  |Delphi - honest avg|:   %.1f$  (paper: ~delta, 25$)\n",
                acc.delphi_dist / acc.trials);
    std::printf("  |exact  - honest avg|:   %.1f$  (paper: ~delta/2, 12.5$)\n",
                acc.exact_dist / acc.trials);
    std::printf("  relative error on a %.0f$ price: %.3f%%  (paper: 0.05%%)\n\n",
                40'000.0,
                100.0 * acc.delphi_dist / acc.trials / 40'000.0);
  }

  // ----------------------------------------------------------------- drone
  {
    Accum acc;
    auto params = protocol::DelphiParams::drone_cps();
    drone::DetectionModel model{drone::DetectionConfig{}};
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(500 + trial);
      const drone::Vec2 gt{25.0, -40.0};
      const auto obs = drone::fleet_observations(model, gt, n, rng);
      std::vector<double> inputs(n);
      for (std::size_t i = 0; i < n; ++i) inputs[i] = obs[i].x;
      const auto s = stats::summarize(inputs);

      const auto r = scenario::SweepRunner().run(
          {delphi_spec(TestbedKind::kCps, n, 600 + trial, params, inputs),
           fin_spec(TestbedKind::kCps, n, 700 + trial, inputs)});
      const auto &d = r[0], &f = r[1];
      if (!d.ok || !f.ok) continue;
      acc.delphi_dist += std::fabs(d.outputs.front() - s.mean);
      acc.exact_dist += std::fabs(f.outputs.front() - s.mean);
      acc.delta_sum += s.range();
      ++acc.trials;
    }
    std::printf("drone localization, per coordinate (n = %zu, %d runs):\n", n,
                acc.trials);
    std::printf("  mean honest range delta: %.2f m (paper: ~0.92 m)\n",
                acc.delta_sum / acc.trials);
    std::printf("  |Delphi - honest avg|:   %.2f m (paper: <= ~2.6 m)\n",
                acc.delphi_dist / acc.trials);
    std::printf("  |exact  - honest avg|:   %.2f m (paper: ~1.3 m)\n",
                acc.exact_dist / acc.trials);
  }
  return 0;
}
