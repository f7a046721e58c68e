/// Ablation: the resilience / communication / validity trade across the
/// three asynchronous AA designs the paper situates itself against (§III-A,
/// §VII):
///
///   Dolev et al. '86   n = 5t+1, pure multicast, O(n²ℓ) bits/round, strict
///                      convex validity — resilience paid for communication;
///   Abraham et al.'04  n = 3t+1, RBC + witnesses, O(n³ℓ) bits/round, strict
///                      convex validity — communication paid for resilience;
///   Delphi             n = 3t+1, checkpoint BinAA, Õ(n²) bits/round,
///                      *relaxed* validity — validity paid for both.
///
/// Two sweeps: (a) matched fault budget t (each protocol at its minimum n),
/// the "how many machines does tolerating t faults cost" view; (b) matched
/// system size n = 16, the "what does a fixed fleet buy" view.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace delphi;
using namespace delphi::bench;
constexpr auto kAws = scenario::TestbedKind::kAws;

namespace {

protocol::DelphiParams oracle_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 200'000.0;
  p.rho0 = 10.0;
  p.eps = 2.0;
  p.delta_max = 2000.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Ablation — resilience vs communication vs validity",
              "Dolev (5t+1) / Abraham (3t+1) / Delphi (3t+1, relaxed "
              "validity) on the AWS testbed, delta = 20$ oracle workload.");

  const auto params = oracle_params();
  const std::vector<int> w = {6, 6, 24, 14, 12, 10};

  std::printf("(a) matched fault budget t — each protocol at its minimum n\n");
  print_row({"t", "n", "protocol", "runtime_ms", "MB", "validity"}, w);
  const std::vector<std::size_t> budgets =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 3, 5};
  for (std::size_t t : budgets) {
    const std::size_t n5 = 5 * t + 1;
    const std::size_t n3 = 3 * t + 1;
    const auto in5 = scenario::clustered_inputs(n5, 40'000.0, 20.0, 11 + t);
    const auto in3 = scenario::clustered_inputs(n3, 40'000.0, 20.0, 13 + t);
    const auto r = scenario::SweepRunner().run(
        {dolev_spec(kAws, n5, 1, /*rounds=*/10, 0.0, 200'000.0, in5),
         abraham_spec(kAws, n3, 2, /*rounds=*/10, 0.0, 200'000.0, in3),
         delphi_spec(kAws, n3, 3, params, in3)});
    const auto &d = r[0], &a = r[1], &dp = r[2];
    print_row({std::to_string(t), std::to_string(n5), "Dolev et al.",
               fmt(d.runtime_ms, 0), fmt(d.megabytes(), 3), "[m, M]"},
              w);
    print_row({std::to_string(t), std::to_string(n3), "Abraham et al.",
               fmt(a.runtime_ms, 0), fmt(a.megabytes(), 3), "[m, M]"},
              w);
    print_row({std::to_string(t), std::to_string(n3), "Delphi",
               fmt(dp.runtime_ms, 0), fmt(dp.megabytes(), 3), "relaxed"},
              w);
  }

  std::printf("\n(b) matched system size n = 16 — fault budget differs\n");
  print_row({"t", "n", "protocol", "runtime_ms", "MB", "validity"}, w);
  {
    const std::size_t n = 16;
    const auto in = scenario::clustered_inputs(n, 40'000.0, 20.0, 17);
    const auto r = scenario::SweepRunner().run(
        {dolev_spec(kAws, n, 4, /*rounds=*/10, 0.0, 200'000.0, in),
         abraham_spec(kAws, n, 5, /*rounds=*/10, 0.0, 200'000.0, in),
         delphi_spec(kAws, n, 6, params, in)});
    const auto &d = r[0], &a = r[1], &dp = r[2];
    print_row({"3", std::to_string(n), "Dolev et al.", fmt(d.runtime_ms, 0),
               fmt(d.megabytes(), 3), "[m, M]"},
              w);
    print_row({"5", std::to_string(n), "Abraham et al.", fmt(a.runtime_ms, 0),
               fmt(a.megabytes(), 3), "[m, M]"},
              w);
    print_row({"5", std::to_string(n), "Delphi", fmt(dp.runtime_ms, 0),
               fmt(dp.megabytes(), 3), "relaxed"},
              w);
  }

  std::printf(
      "\nexpected shape: Dolev is the traffic floor throughout but needs\n"
      "~67%% more machines per fault; Abraham and Delphi share optimal\n"
      "resilience, with Delphi's bytes at parity or above at these small n\n"
      "(its per-round constants dominate) and pulling decisively ahead as n\n"
      "grows — table1_complexity measures the n^2.2-vs-n^3.0 separation that\n"
      "makes Delphi the large-n winner; the validity column is what it\n"
      "trades for that.\n");
  return 0;
}
