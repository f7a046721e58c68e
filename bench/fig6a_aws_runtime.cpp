/// Regenerates Fig 6a: runtime vs n on the (simulated) geo-distributed AWS
/// testbed for the oracle-network workload.
///
/// Paper config: Delphi rho0 = 10$, Delta = 2000$, eps = 2$, curves for
/// delta = 20$ and delta = 180$; baselines FIN and Abraham et al. at
/// delta = 20$.
///
/// Reproduction target (shape): Delphi is *slower* at small n (round count x
/// WAN RTT dominates), scales much flatter, and wins by roughly 3-6x at
/// n = 160; Delphi's runtime barely moves with delta on AWS.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;
using scenario::TestbedKind;

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Fig 6a — runtime vs n on AWS (oracle network)",
              "Delphi config rho0 = 10$, Delta = 2000$, eps = 2$; runtimes in "
              "milliseconds of simulated time (see README \"Substitutions\" "
              "for the testbed model).");

  protocol::DelphiParams params;
  params.space_min = 0.0;
  params.space_max = 200'000.0;
  params.rho0 = 10.0;
  params.eps = 2.0;
  params.delta_max = 2000.0;

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 64, 112, 160};

  const std::vector<int> w = {8, 22, 14, 12, 12};
  print_row({"n", "protocol", "runtime_ms", "MB", "ok"}, w);

  // Per n: Delphi at delta = 20$ and 180$, FIN, Abraham — independent runs,
  // so one sweep fans them across all cores.
  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t n : sizes) {
    const auto in20 = scenario::clustered_inputs(n, 40'000.0, 20.0, 7 + n);
    const auto in180 = scenario::clustered_inputs(n, 40'000.0, 180.0, 9 + n);
    specs.push_back(delphi_spec(TestbedKind::kAws, n, 1, params, in20));
    specs.push_back(delphi_spec(TestbedKind::kAws, n, 2, params, in180));
    specs.push_back(fin_spec(TestbedKind::kAws, n, 3, in20));
    specs.push_back(abraham_spec(TestbedKind::kAws, n, 4, /*rounds=*/10, 0.0,
                                 200'000.0, in20));
  }
  const auto results = scenario::SweepRunner().run(specs);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const auto& d20 = results[4 * i];
    const auto& d180 = results[4 * i + 1];
    const auto& f = results[4 * i + 2];
    const auto& a = results[4 * i + 3];
    print_row({std::to_string(n), "Delphi delta=20$", fmt(d20.runtime_ms, 0),
               fmt(d20.megabytes(), 2), d20.ok ? "y" : "N"},
              w);
    print_row({std::to_string(n), "Delphi delta=180$",
               fmt(d180.runtime_ms, 0), fmt(d180.megabytes(), 2),
               d180.ok ? "y" : "N"},
              w);
    print_row({std::to_string(n), "FIN", fmt(f.runtime_ms, 0),
               fmt(f.megabytes(), 2), f.ok ? "y" : "N"},
              w);
    print_row({std::to_string(n), "Abraham et al. d=20$",
               fmt(a.runtime_ms, 0), fmt(a.megabytes(), 2), a.ok ? "y" : "N"},
              w);
    std::printf("  speedup at n=%zu: FIN/Delphi = %.2fx, Abraham/Delphi = "
                "%.2fx\n",
                n, f.runtime_ms / d20.runtime_ms,
                a.runtime_ms / d20.runtime_ms);
  }
  std::printf(
      "\npaper shape: Delphi slower at n = 16, ~3x faster than FIN and ~6x "
      "faster than Abraham at n = 160; delta barely affects Delphi on "
      "AWS.\n");
  return 0;
}
