// Tests of the benchmark's correctness gate (gate.hpp). Exits non-zero on
// the first failed check. Run: ctest --test-dir <build dir>.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "gate.hpp"

namespace {

int failures = 0;

void check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::check_instance;
  using perfbench::split_by_instance;
  const std::vector<double> inputs = {0.0, 1.0, 2.0, 3.0};  // range 3
  const double eps = 0.5;
  const double rho0 = 0.5;  // relax = max(0.5, 3) = 3 → hull [-3, 6]

  check(check_instance(inputs, std::vector<double>{1.5, 1.6, 1.7, 1.5}, eps,
                       rho0)
            .empty(),
        "agreeing outputs inside the hull pass");
  check(check_instance(inputs, std::vector<double>{5.9, 6.0, 6.0, 5.8}, eps,
                       rho0)
            .empty(),
        "outputs at the relaxed edge pass");
  check(!check_instance(inputs, std::vector<double>{6.2, 6.3, 6.3, 6.25}, eps,
                        rho0)
             .empty(),
        "agreeing outputs outside the relaxed hull fail");
  check(!check_instance(inputs, std::vector<double>{-3.2, -3.1, -3.2, -3.3},
                        eps, rho0)
             .empty(),
        "agreeing outputs below the relaxed hull fail");
  check(!check_instance(inputs, std::vector<double>{1.0, 1.0, 1.0, 1.6}, eps,
                        rho0)
             .empty(),
        "spread above eps fails");
  check(!check_instance(inputs, std::vector<double>{}, eps, rho0).empty(),
        "an instance with no outputs fails");

  // Two nodes, two instances, node-major outputs: node 0 = {i0, i1},
  // node 1 = {i0, i1}. Instance 1 is out of hull on both nodes.
  const std::vector<std::vector<bool>> decided = {{true, true}, {true, true}};
  const std::vector<double> run_outputs = {1.5, 9.0, 1.6, 9.1};
  const auto per = split_by_instance(run_outputs, decided);
  check(per.size() == 2, "split yields one vector per instance");
  if (per.size() == 2) {
    check(check_instance(inputs, per[0], eps, rho0).empty(),
          "instance 0 of the run passes");
    check(!check_instance(inputs, per[1], eps, rho0).empty(),
          "instance 1 of the run (out of hull) fails");
  }
  // An undecided instance contributes nothing on that node.
  const auto partial = split_by_instance(std::vector<double>{1.5, 1.6, 9.1},
                                         {{true, false}, {true, true}});
  check(partial.size() == 2 && partial[0].size() == 2 &&
            partial[1].size() == 1,
        "split skips undecided instances");
  check(split_by_instance(run_outputs, {{true, false}, {true, false}}).empty(),
        "split rejects an output count that does not match the decisions");

  if (failures == 0) std::puts("gate_test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
