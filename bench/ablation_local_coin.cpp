/// Ablation: common coin vs local coin for asynchronous binary agreement —
/// the setup-freeness / round-complexity trade behind Table I's WaterBear
/// row.
///
/// MMR (aba/) tosses a *common* coin: expected O(1) rounds, but each toss
/// costs threshold-crypto CPU (n/3+1 pairings in real deployments) and the
/// coin needs a DKG-style setup. Ben-Or (benor/) tosses *local* coins: zero
/// crypto, zero setup (WaterBear's "information-theoretic" corner), but
/// split inputs terminate only when enough local coins align — expected
/// rounds grow exponentially in the worst case.
///
/// Sweep: n × {unanimous, split} inputs × both protocols, on the CPS model
/// (where coin crypto hurts most). Reported: rounds, runtime, traffic.

#include <algorithm>
#include <cstdio>

#include "aba/aba.hpp"
#include "bench/bench_util.hpp"
#include "benor/benor.hpp"

using namespace delphi;
using namespace delphi::bench;

namespace {

struct AbaResult {
  bool ok = false;
  double runtime_ms = 0.0;
  double kilobytes = 0.0;
  std::uint32_t max_rounds = 0;
};

AbaResult run_mmr(std::size_t n, std::uint64_t seed, bool split) {
  auto cfg = scenario::testbed_config(scenario::TestbedKind::kCps, n, seed);
  static crypto::CommonCoin coin(0xC01Cu);
  sim::Simulator sim(cfg);
  for (NodeId i = 0; i < n; ++i) {
    aba::AbaInstance::Config c;
    c.n = n;
    c.t = max_faults(n);
    c.coin = &coin;
    c.coin_compute_us =
        scenario::default_coin_cost(scenario::TestbedKind::kCps, n);
    c.instance_id = seed;
    sim.add_node(std::make_unique<aba::AbaProtocol>(c, split ? i % 2 == 0
                                                             : true));
  }
  AbaResult r;
  r.ok = sim.run();
  r.runtime_ms = static_cast<double>(sim.metrics().honest_completion) / 1e3;
  r.kilobytes = static_cast<double>(sim.metrics().total_bytes) / 1e3;
  return r;
}

AbaResult run_benor(std::size_t n, std::uint64_t seed, bool split) {
  auto cfg = scenario::testbed_config(scenario::TestbedKind::kCps, n, seed);
  sim::Simulator sim(cfg);
  benor::BenOrProtocol::Config c;
  c.n = n;
  c.t = (n - 1) / 5;
  for (NodeId i = 0; i < n; ++i) {
    sim.add_node(
        std::make_unique<benor::BenOrProtocol>(c, split ? i % 2 == 0 : true));
  }
  AbaResult r;
  r.ok = sim.run();
  r.runtime_ms = static_cast<double>(sim.metrics().honest_completion) / 1e3;
  r.kilobytes = static_cast<double>(sim.metrics().total_bytes) / 1e3;
  for (NodeId i = 0; i < n; ++i) {
    r.max_rounds = std::max(
        r.max_rounds, sim.node_as<benor::BenOrProtocol>(i).rounds_used());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  print_title(
      "Ablation — common coin (MMR) vs local coin (Ben-Or) binary BA",
      "CPS testbed; MMR charges threshold-coin CPU per round, Ben-Or is "
      "crypto-free but needs coin-alignment luck on split inputs. Medians "
      "over seeds.");

  const std::vector<int> w = {6, 12, 22, 12, 12, 10};
  print_row({"n", "inputs", "protocol", "runtime_ms", "KB", "rounds"}, w);

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{6, 11} : std::vector<std::size_t>{6, 11, 16, 26};
  const std::size_t seeds = quick ? 3 : 9;

  for (std::size_t n : sizes) {
    for (const bool split : {false, true}) {
      const char* in_name = split ? "split" : "unanimous";
      std::vector<double> mmr_ms, ben_ms, ben_rounds;
      double mmr_kb = 0, ben_kb = 0;
      for (std::uint64_t s = 1; s <= seeds; ++s) {
        const auto m = run_mmr(n, s, split);
        const auto b = run_benor(n, s, split);
        if (!m.ok || !b.ok) continue;
        mmr_ms.push_back(m.runtime_ms);
        ben_ms.push_back(b.runtime_ms);
        ben_rounds.push_back(b.max_rounds);
        mmr_kb += m.kilobytes / static_cast<double>(seeds);
        ben_kb += b.kilobytes / static_cast<double>(seeds);
      }
      auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
      };
      print_row({std::to_string(n), in_name, "MMR + common coin",
                 fmt(median(mmr_ms), 0), fmt(mmr_kb, 1), "~2"},
                w);
      print_row({std::to_string(n), in_name, "Ben-Or local coin",
                 fmt(median(ben_ms), 0), fmt(ben_kb, 1),
                 fmt(median(ben_rounds), 0)},
                w);
    }
  }

  std::printf(
      "\nexpected shape: on unanimous inputs Ben-Or matches or beats MMR\n"
      "(one deterministic round, zero crypto); on split inputs Ben-Or's\n"
      "round count grows with n (local coins must align) while MMR stays\n"
      "~2 rounds but pays the coin's CPU bill every round — the Table I\n"
      "trade between WaterBear-style IT protocols and coin-based ones.\n");
  return 0;
}
