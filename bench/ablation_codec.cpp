/// Ablation: BinAA's plain value codec vs the paper's compact VAL move-code
/// encoding (§II-C). The compact codec shrinks each echo to kind+move-byte
/// plus the round number — the paper's
/// O(n² log(1/e) loglog(1/e)) refinement over O(n² log²(1/e)).

#include <cstdio>

#include "bench/bench_util.hpp"
#include "binaa/protocol.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

std::uint64_t run_binaa_bytes(std::size_t n, std::uint32_t r_max, bool compact,
                              std::uint64_t seed) {
  auto cfg = scenario::testbed_config(scenario::TestbedKind::kAws, n, seed);
  cfg.fifo_links = compact;  // the delta codec requires FIFO links
  binaa::BinAaProtocol::Config pc;
  pc.core = binaa::BinAaCore::Config{n, max_faults(n), r_max};
  pc.compact = compact;
  const auto rep = scenario::SimRuntime().run(cfg, [&](NodeId i) {
    return std::make_unique<binaa::BinAaProtocol>(pc, i % 2 == 0);
  });
  return rep.ok ? rep.honest_bytes : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title("Ablation — BinAA plain vs compact (VAL) codec",
              "bytes for one BinAA instance (split inputs) across rounds; "
              "compact mode uses FIFO links + 3-bit move codes.");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 40};
  const std::vector<int> w = {8, 10, 14, 14, 10};
  print_row({"n", "rounds", "plain_bytes", "compact_bytes", "saving"}, w);

  for (std::size_t n : sizes) {
    for (std::uint32_t r_max : {8u, 16u, 24u}) {
      const auto plain = run_binaa_bytes(n, r_max, false, 3);
      const auto compact = run_binaa_bytes(n, r_max, true, 3);
      print_row({std::to_string(n), std::to_string(r_max),
                 fmt_int(plain), fmt_int(compact),
                 fmt(100.0 * (1.0 - static_cast<double>(compact) /
                                        static_cast<double>(plain)),
                     1) + "%"},
                w);
    }
  }
  std::printf(
      "\nnote: with 32-byte HMAC tags dominating small frames, payload "
      "savings are bounded; disable auth to see the raw codec effect.\n");
  return 0;
}
