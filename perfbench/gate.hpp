#pragma once
/// \file gate.hpp
/// The benchmark's correctness gate for Delphi, one instance at a time:
///   * ε-agreement (Theorem IV.4): honest outputs spread at most `eps`;
///   * relaxed validity (Theorem IV.3): every honest output lies in
///     [min − r, max + r] of the honest inputs, r = max(ρ0, max − min),
///     with the same 1e-9 slack as tests/delphi_test.cpp.
/// Multi-instance runs append each node's outputs in instance order, so the
/// run-level output vector is split back into instances before checking.

#include <algorithm>
#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Empty when the instance passes; otherwise why it fails.
inline std::string check_instance(std::span<const double> inputs,
                                  std::span<const double> outputs, double eps,
                                  double rho0) {
  if (inputs.empty()) return "no honest inputs";
  if (outputs.empty()) return "no honest outputs";
  const auto [in_lo, in_hi] = std::minmax_element(inputs.begin(), inputs.end());
  const auto [out_lo, out_hi] =
      std::minmax_element(outputs.begin(), outputs.end());
  const double relax = std::max(rho0, *in_hi - *in_lo);
  std::ostringstream why;
  why.precision(17);
  if (*out_hi - *out_lo > eps) {
    why << "eps-agreement: output spread " << (*out_hi - *out_lo) << " > eps "
        << eps;
  } else if (*out_lo < *in_lo - relax - 1e-9 ||
             *out_hi > *in_hi + relax + 1e-9) {
    why << "relaxed validity: outputs [" << *out_lo << ", " << *out_hi
        << "] outside [" << (*in_lo - relax) << ", " << (*in_hi + relax)
        << "]";
  }
  return why.str();
}

/// Regroups a run's node-major output vector (node 0's decided instances in
/// instance order, then node 1's, ...) into per-instance honest outputs.
/// decided[node][sid] says whether node decided instance sid, i.e. whether
/// it contributed a value. Returns an empty vector when the output count
/// does not match the decisions.
inline std::vector<std::vector<double>> split_by_instance(
    std::span<const double> outputs,
    const std::vector<std::vector<bool>>& decided) {
  const std::size_t instances = decided.empty() ? 0 : decided[0].size();
  std::vector<std::vector<double>> per(instances);
  std::size_t k = 0;
  for (const auto& node : decided) {
    for (std::size_t sid = 0; sid < node.size() && sid < instances; ++sid) {
      if (!node[sid]) continue;
      if (k >= outputs.size()) return {};
      per[sid].push_back(outputs[k++]);
    }
  }
  if (k != outputs.size()) return {};
  return per;
}

}  // namespace perfbench
