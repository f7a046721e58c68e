#pragma once
/// Shared infrastructure for the experiment benches: testbed configurations
/// (AWS-geo / CPS, matching §VI-C), controlled-range workload generators,
/// one-call protocol runners, and table printing.
///
/// Every bench binary regenerates one table/figure of the paper; see the
/// README "Substitutions" section for where this reproduction departs from
/// the paper's setup.

#include <cstdint>
#include <string>
#include <vector>

#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "delphi/delphi.hpp"
#include "dolev/dolev.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "sim/harness.hpp"

namespace delphi::bench {

/// Which simulated testbed to run on (§VI-C).
enum class Testbed { kAws, kCps };

/// Map to the scenario layer's testbed kind (the construction point).
scenario::TestbedKind to_scenario(Testbed tb) noexcept;

/// Simulation config for a testbed: latency model + cost model.
sim::SimConfig testbed_config(Testbed tb, std::size_t n, std::uint64_t seed);

/// Default CPU charge per threshold-coin toss, per testbed — the stand-in
/// for the O(n) pairing bill of a real common coin (README "Substitutions"). Pairings run
/// ~1 ms on a Pi-class core and ~0.25 ms on t2.micro-class cores; a Cachin
/// coin verifies a quorum of shares.
SimTime default_coin_cost(Testbed tb, std::size_t n);

/// Honest inputs clustered with *realized range exactly delta* around
/// `center` (endpoints pinned, the rest uniform inside) — this is how the
/// paper's "Delphi delta = 20$ / 180$" curves are driven.
std::vector<double> clustered_inputs(std::size_t n, double center,
                                     double delta, std::uint64_t seed);

/// Result of one protocol run.
struct Result {
  bool ok = false;
  double runtime_ms = 0.0;   ///< honest completion time
  double megabytes = 0.0;    ///< total honest traffic
  std::uint64_t messages = 0;
  std::vector<double> outputs;
};

/// Project a scenario RunReport onto the bench result shape.
Result from_report(const scenario::RunReport& rep);

/// ScenarioSpec builders mirroring the one-call runners below — use these
/// to batch independent runs through scenario::SweepRunner (multi-core
/// sweeps) while producing numbers identical to the serial runners.
scenario::ScenarioSpec delphi_spec(Testbed tb, std::size_t n,
                                   std::uint64_t seed,
                                   const protocol::DelphiParams& params,
                                   const std::vector<double>& inputs);
scenario::ScenarioSpec abraham_spec(Testbed tb, std::size_t n,
                                    std::uint64_t seed, std::uint32_t rounds,
                                    double space_min, double space_max,
                                    const std::vector<double>& inputs);
scenario::ScenarioSpec fin_spec(Testbed tb, std::size_t n, std::uint64_t seed,
                                const std::vector<double>& inputs,
                                SimTime coin_cost_us = -1);
scenario::ScenarioSpec dolev_spec(Testbed tb, std::size_t n,
                                  std::uint64_t seed, std::uint32_t rounds,
                                  double space_min, double space_max,
                                  const std::vector<double>& inputs);

/// Run a batch of specs across `jobs` worker threads (0 = all cores) and
/// project each report; results are in spec order and bit-identical to
/// running the specs one by one.
std::vector<Result> run_specs(const std::vector<scenario::ScenarioSpec>& specs,
                              unsigned jobs = 0);

/// One labeled point on the standard fault axis.
struct FaultCase {
  std::string name;              ///< row label, e.g. "partition(t,500ms)"
  scenario::ScenarioSpec spec;   ///< the base spec with the fault applied
};

/// The standard fault axis for sweeps: the base spec replicated under every
/// declarative fault family (fault-free first, then crashes at the
/// protocol's resilience bound t, both byzantine= behaviours, and all four
/// adversary= strategies, each sized relative to t). Feed the specs straight
/// into run_specs / SweepRunner — a fault dimension for any protocol × n
/// grid (bench_fault_sweep is the canonical consumer).
std::vector<FaultCase> fault_axis(const scenario::ScenarioSpec& base);

/// Run Delphi on a testbed.
Result run_delphi(Testbed tb, std::size_t n, std::uint64_t seed,
                  const protocol::DelphiParams& params,
                  const std::vector<double>& inputs);

/// Run the Abraham et al. baseline.
Result run_abraham(Testbed tb, std::size_t n, std::uint64_t seed,
                   std::uint32_t rounds, double space_min, double space_max,
                   const std::vector<double>& inputs);

/// Run the FIN-style ACS baseline (coin cost defaulted per testbed; pass
/// `coin_cost_us >= 0` to override).
Result run_fin(Testbed tb, std::size_t n, std::uint64_t seed,
               const std::vector<double>& inputs,
               SimTime coin_cost_us = -1);

/// Run the Dolev et al. (JACM '86) multicast AA baseline; tolerates
/// t = (n-1)/5 faults.
Result run_dolev(Testbed tb, std::size_t n, std::uint64_t seed,
                 std::uint32_t rounds, double space_min, double space_max,
                 const std::vector<double>& inputs);

/// --quick on the command line trims sweeps for CI-speed runs.
bool quick_mode(int argc, char** argv);

/// --xl on the command line adds extra-large system sizes beyond the paper's
/// sweeps (e.g. fig6c's n = 211 point) — opt-in because they multiply run
/// time; the optimized simulator makes them practical at all.
bool xl_mode(int argc, char** argv);

/// Pretty-printing helpers.
void print_title(const std::string& title, const std::string& subtitle);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string fmt(double v, int precision = 2);
std::string fmt_int(std::uint64_t v);

}  // namespace delphi::bench
