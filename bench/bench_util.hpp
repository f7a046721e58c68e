#pragma once
/// Shared infrastructure for the experiment benches: scenario spec builders
/// for the paper's protocols, the standard fault axis, command-line modes,
/// and table printing. Runs go through the scenario layer
/// (scenario::SweepRunner / SimRuntime) and print from its RunReport.
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
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace delphi::bench {

/// ScenarioSpec builders for the paper's protocols on a simulated testbed
/// (§VI-C), with explicit honest inputs. Benches batch the specs through
/// scenario::SweepRunner, which runs independent specs on all cores and
/// returns reports in spec order, bit-identical to running them serially.
scenario::ScenarioSpec delphi_spec(scenario::TestbedKind tb, std::size_t n,
                                   std::uint64_t seed,
                                   const protocol::DelphiParams& params,
                                   const std::vector<double>& inputs);
/// The Abraham et al. baseline.
scenario::ScenarioSpec abraham_spec(scenario::TestbedKind tb, std::size_t n,
                                    std::uint64_t seed, std::uint32_t rounds,
                                    double space_min, double space_max,
                                    const std::vector<double>& inputs);
/// The FIN-style ACS baseline (coin cost defaulted per testbed; pass
/// `coin_cost_us >= 0` to override).
scenario::ScenarioSpec fin_spec(scenario::TestbedKind tb, std::size_t n,
                                std::uint64_t seed,
                                const std::vector<double>& inputs,
                                SimTime coin_cost_us = -1);
/// The Dolev et al. (JACM '86) multicast AA baseline; tolerates
/// t = (n-1)/5 faults.
scenario::ScenarioSpec dolev_spec(scenario::TestbedKind tb, std::size_t n,
                                  std::uint64_t seed, std::uint32_t rounds,
                                  double space_min, double space_max,
                                  const std::vector<double>& inputs);

/// One labeled point on the standard fault axis.
struct FaultCase {
  std::string name;              ///< row label, e.g. "partition(t,500ms)"
  scenario::ScenarioSpec spec;   ///< the base spec with the fault applied
};

/// The standard fault axis for sweeps: the base spec replicated under every
/// declarative fault family (fault-free first, then crashes at the
/// protocol's resilience bound t, both byzantine= behaviours, and all four
/// adversary= strategies, each sized relative to t). Feed the specs straight
/// into SweepRunner — a fault dimension for any protocol × n
/// grid (bench_fault_sweep is the canonical consumer).
std::vector<FaultCase> fault_axis(const scenario::ScenarioSpec& base);

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
