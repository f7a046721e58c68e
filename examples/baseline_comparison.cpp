/// Baseline comparison example: the same oracle workload through all three
/// convex-agreement protocols in the repo — Delphi, the FIN-style ACS, and
/// Abraham et al. — showing outputs, guarantees, and costs side by side
/// (Table I of the paper, in one screen).
///
/// Each contender is one declarative ScenarioSpec differing only in the
/// `protocol` field; scenario::SweepRunner fans the three independent
/// deterministic simulations across cores and returns the unified
/// RunReports in spec order (bit-identical to running them serially).
///
/// Build: cmake --build build && ./build/example_baseline_comparison

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"
#include "delphi/params.hpp"
#include "oracle/feed.hpp"
#include "scenario/sweep.hpp"

using namespace delphi;

namespace {

/// Print one contender's row; false if the run did not terminate.
bool report(const char* name, const scenario::RunReport& rep,
            const char* validity) {
  if (!rep.ok || rep.outputs.empty()) {
    std::printf("%-16s did not terminate\n", name);
    return false;
  }
  const auto [mn, mx] =
      std::minmax_element(rep.outputs.begin(), rep.outputs.end());
  std::printf("%-16s out=[%.2f, %.2f]$  spread=%.3f$  %6.2f MB  %6.0f ms  %s\n",
              name, *mn, *mx, *mx - *mn, rep.megabytes(), rep.runtime_ms,
              validity);
  return true;
}

}  // namespace

int main() {
  const std::size_t n = 16;

  oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(3));
  const auto snapshot = feed.next_minute();
  Rng obs(4);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = oracle::node_observation(snapshot, 3, obs);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  std::printf("honest inputs in [%.2f, %.2f]$ (delta = %.2f$), mid price "
              "%.2f$\n\n",
              *mn, *mx, *mx - *mn, feed.mid());

  // One spec per contender; everything but `protocol`, seed, and the
  // per-suite parameters is shared.
  scenario::ScenarioSpec base;
  base.testbed = scenario::TestbedKind::kAws;
  base.n = n;
  base.inputs = inputs;

  // Delphi (approximate agreement, relaxed validity, signature/coin-free).
  auto delphi_spec = base;
  delphi_spec.protocol = "delphi";
  delphi_spec.seed = 1;
  const auto p = protocol::DelphiParams::oracle_network();
  delphi_spec.params = {{"space-min", p.space_min},
                        {"space-max", p.space_max},
                        {"rho0", p.rho0},
                        {"eps", p.eps},
                        {"delta-max", p.delta_max}};

  // FIN-style ACS (exact agreement, convex validity, needs a common coin).
  auto fin_spec = base;
  fin_spec.protocol = "fin";
  fin_spec.seed = 2;
  fin_spec.params = {{"coin-seed", 99.0},
                     {"coin-us", 250.0 * static_cast<double>(n / 3 + 1)}};

  // Abraham et al. (approximate agreement, convex validity, O(n^3)/round).
  auto abraham_spec = base;
  abraham_spec.protocol = "abraham";
  abraham_spec.seed = 3;
  abraham_spec.params = {{"rounds", 10.0},
                         {"space-min", 0.0},
                         {"space-max", 200'000.0}};

  const auto reports =
      scenario::SweepRunner().run({delphi_spec, fin_spec, abraham_spec});

  bool ok = report("Delphi", reports[0],
                   "validity [m-d, M+d], eps-agreement, no crypto");
  ok &= report("FIN (ACS)", reports[1],
               "validity [m, M], exact agreement, threshold coin");
  ok &= report("Abraham et al.", reports[2],
               "validity [m, M], eps-agreement, O(n^3)/round");

  std::printf("\nSee bench/ for the full Table I / Fig 6 sweeps, and "
              "SCENARIOS.md for running any of these from delphi_cli.\n");
  return ok ? 0 : 1;
}
