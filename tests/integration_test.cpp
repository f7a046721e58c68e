/// Cross-module integration tests: all three convex-agreement protocols on
/// the same workloads, comparing their guarantees and cost profiles — the
/// qualitative content of the paper's Table I, validated in miniature.

#include <gtest/gtest.h>

#include <algorithm>

#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "delphi/delphi.hpp"
#include "oracle/feed.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "stats/summary.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

std::vector<double> oracle_inputs(std::size_t n, std::uint64_t seed) {
  oracle::PriceFeed feed(oracle::FeedConfig{}, Rng(seed));
  const auto snapshot = feed.next_minute();
  Rng rng(seed + 1);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = oracle::node_observation(snapshot, 3, rng);
  return inputs;
}

protocol::DelphiParams oracle_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 200'000.0;
  p.rho0 = 2.0;
  p.eps = 2.0;
  p.delta_max = 2000.0;
  return p;
}

scenario::RunReport simulate_delphi(std::size_t n, std::uint64_t seed,
                                    const std::vector<double>& inputs) {
  protocol::DelphiProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.params = oracle_params();
  return scenario::SimRuntime().run(
      test::async_config(n, seed), [&](NodeId i) {
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      });
}

scenario::RunReport simulate_acs(std::size_t n, std::uint64_t seed,
                                 const std::vector<double>& inputs,
                                 const crypto::CommonCoin& coin) {
  acs::AcsProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.coin = &coin;
  return scenario::SimRuntime().run(
      test::async_config(n, seed), [&](NodeId i) {
        return std::make_unique<acs::AcsProtocol>(c, inputs[i]);
      });
}

scenario::RunReport simulate_abraham(std::size_t n, std::uint64_t seed,
                                     const std::vector<double>& inputs) {
  abraham::AbrahamProtocol::Config c;
  c.n = n;
  c.t = max_faults(n);
  c.rounds = 10;
  c.space_min = 0.0;
  c.space_max = 200'000.0;
  return scenario::SimRuntime().run(
      test::async_config(n, seed), [&](NodeId i) {
        return std::make_unique<abraham::AbrahamProtocol>(c, inputs[i]);
      });
}

TEST(Integration, AllThreeProtocolsAgreeOnOracleWorkload) {
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 5);
  const auto s = stats::summarize(inputs);
  crypto::CommonCoin coin(123);

  const auto delphi = simulate_delphi(n, 1, inputs);
  const auto acs = simulate_acs(n, 2, inputs, coin);
  const auto abr = simulate_abraham(n, 3, inputs);

  for (const auto* run : {&delphi, &acs, &abr}) {
    ASSERT_TRUE(run->ok);
    ASSERT_EQ(run->outputs.size(), n);
  }
  // Exact protocols stay inside [m, M]; Delphi inside the relaxed interval.
  for (double v : acs.outputs) {
    EXPECT_GE(v, s.min);
    EXPECT_LE(v, s.max);
  }
  for (double v : abr.outputs) {
    EXPECT_GE(v, s.min);
    EXPECT_LE(v, s.max);
  }
  const double relax = std::max(2.0, s.range());
  for (double v : delphi.outputs) {
    EXPECT_GE(v, s.min - relax - 1e-9);
    EXPECT_LE(v, s.max + relax + 1e-9);
  }
  // All three land near the same market price (sanity of the whole stack).
  EXPECT_NEAR(delphi.outputs[0], acs.outputs[0],
              relax + 2.0);
  EXPECT_NEAR(abr.outputs[0], acs.outputs[0],
              s.range() + 1e-9);
}

TEST(Integration, DelphiBaselineByteGapWidensWithN) {
  // Table I in miniature: Delphi's honest traffic grows ~n² (times log-factor
  // rounds) while Abraham's grows ~n³, so the byte ratio baseline/Delphi must
  // grow steadily with n. The absolute crossover happens around n ≈ 40-64
  // with the paper's oracle parameters and is demonstrated by
  // bench/table1_complexity and bench/fig6b_bandwidth.
  double prev_ratio_abr = 0.0;
  for (std::size_t n : {4u, 8u, 16u, 25u}) {
    const auto inputs = oracle_inputs(n, 11);
    const auto delphi = simulate_delphi(n, 21, inputs);
    const auto abr = simulate_abraham(n, 22, inputs);
    ASSERT_TRUE(delphi.ok);
    ASSERT_TRUE(abr.ok);
    const double ratio = static_cast<double>(abr.honest_bytes) /
                         static_cast<double>(delphi.honest_bytes);
    EXPECT_GT(ratio, prev_ratio_abr);  // the gap widens with n
    prev_ratio_abr = ratio;
  }
}

TEST(Integration, AdversarialSchedulingDoesNotBreakAnyProtocol) {
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 31);
  crypto::CommonCoin coin(31);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto cfg = test::adversarial_config(n, seed, /*extra=*/150'000);

    protocol::DelphiProtocol::Config dc;
    dc.n = n;
    dc.t = max_faults(n);
    dc.params = oracle_params();
    auto delphi = scenario::SimRuntime().run(cfg, [&](NodeId i) {
      return std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]);
    });
    EXPECT_TRUE(delphi.ok);
    EXPECT_LE(test::spread(delphi.outputs), dc.params.eps);

    acs::AcsProtocol::Config ac;
    ac.n = n;
    ac.t = max_faults(n);
    ac.coin = &coin;
    ac.session = seed;
    auto acs_run = scenario::SimRuntime().run(cfg, [&](NodeId i) {
      return std::make_unique<acs::AcsProtocol>(ac, inputs[i]);
    });
    EXPECT_TRUE(acs_run.ok);
    EXPECT_EQ(test::spread(acs_run.outputs), 0.0);
  }
}

TEST(Integration, MixedFaultsAcrossTheStack) {
  // One crash + one garbage sprayer (t = 2 for n = 7) against Delphi on a
  // live oracle workload with targeted network lag on an honest victim.
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 41);
  auto cfg = test::async_config(n, 41);
  cfg.adversary =
      std::make_shared<sim::TargetedLagAdversary>(std::set<NodeId>{0},
                                                  200'000);
  protocol::DelphiProtocol::Config dc;
  dc.n = n;
  dc.t = max_faults(n);
  dc.params = oracle_params();

  sim::Simulator sim(cfg);
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]));
  }
  sim.add_node(std::make_unique<sim::SilentProtocol>());
  sim.add_node(std::make_unique<sim::GarbageSprayProtocol>());
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());

  std::vector<double> honest_inputs(inputs.begin(), inputs.begin() + 5);
  const auto s = stats::summarize(honest_inputs);
  const double relax = std::max(dc.params.rho0, s.range());
  for (NodeId i = 0; i + 2 < n; ++i) {
    const auto v = sim.node_as<protocol::DelphiProtocol>(i).output_value();
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, s.min - relax - 1e-9);
    EXPECT_LE(*v, s.max + relax + 1e-9);
  }
}

TEST(Integration, CrashMidBroadcastDoesNotSplitDelphi) {
  // CrashAfterProtocol wraps honest Delphi and dies mid-broadcast — the
  // remaining honest nodes must still agree.
  const std::size_t n = 7;
  const auto inputs = oracle_inputs(n, 51);
  protocol::DelphiProtocol::Config dc;
  dc.n = n;
  dc.t = max_faults(n);
  dc.params = oracle_params();

  sim::Simulator sim(test::async_config(n, 51));
  for (NodeId i = 0; i + 2 < n; ++i) {
    sim.add_node(std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]));
  }
  for (NodeId i = static_cast<NodeId>(n) - 2; i < n; ++i) {
    sim.add_node(std::make_unique<sim::CrashAfterProtocol>(
        std::make_unique<protocol::DelphiProtocol>(dc, inputs[i]),
        /*crash_after_sends=*/i * 10));
  }
  sim.set_byzantine({5, 6});
  ASSERT_TRUE(sim.run());
  std::vector<double> outputs;
  for (NodeId i = 0; i + 2 < n; ++i) {
    outputs.push_back(*sim.node_as<protocol::DelphiProtocol>(i).output_value());
  }
  EXPECT_LE(test::spread(outputs), dc.params.eps);
}

}  // namespace
}  // namespace delphi
