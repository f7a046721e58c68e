/// Tests for the network-adversary strategies (partition-until-heal and
/// burst reordering) and for protocol correctness under each of them:
/// asynchronous protocols must deliver unchanged guarantees, merely later.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "abraham/abraham.hpp"
#include "binaa/protocol.hpp"
#include "delphi/delphi.hpp"
#include "dolev/dolev.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "tests/test_util.hpp"

namespace delphi::sim {
namespace {

protocol::DelphiParams delphi_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 64.0;
  return p;
}

// ------------------------------------------------------------ unit behavior

TEST(PartitionAdversary, Validation) {
  EXPECT_THROW(PartitionAdversary({0}, -1), ConfigError);
  EXPECT_THROW(PartitionAdversary({0}, 100, -1), ConfigError);
  EXPECT_NO_THROW(PartitionAdversary({0}, 100));
}

TEST(PartitionAdversary, DelaysOnlyCrossCutUntilHeal) {
  PartitionAdversary adv({0, 1}, /*heal_at=*/1'000'000, /*jitter=*/0);
  Rng rng(1);
  // Same side: never delayed.
  EXPECT_EQ(adv.extra_delay(0, 1, 0, rng), 0);
  EXPECT_EQ(adv.extra_delay(2, 3, 0, rng), 0);
  // Cross cut before heal: held exactly to the heal instant (jitter 0).
  EXPECT_EQ(adv.extra_delay(0, 2, 0, rng), 1'000'000);
  EXPECT_EQ(adv.extra_delay(3, 1, 400'000, rng), 600'000);
  // After heal: no interference.
  EXPECT_EQ(adv.extra_delay(0, 2, 1'000'000, rng), 0);
  EXPECT_EQ(adv.extra_delay(0, 2, 2'000'000, rng), 0);
}

TEST(BurstReorderAdversary, Validation) {
  EXPECT_THROW(BurstReorderAdversary(0), ConfigError);
  EXPECT_THROW(BurstReorderAdversary(-5), ConfigError);
  EXPECT_NO_THROW(BurstReorderAdversary(1000));
}

TEST(BurstReorderAdversary, EarlierSendsHeldLonger) {
  BurstReorderAdversary adv(10'000);
  Rng rng(1);
  // With jitter bounded by period/4, an early send's hold-back strictly
  // exceeds a late send's within the same window.
  const SimTime early = adv.extra_delay(0, 1, 100, rng);
  const SimTime late = adv.extra_delay(0, 1, 9'900, rng);
  EXPECT_GT(early, late);
  // Both still land after their window boundary.
  EXPECT_GE(100 + early, 10'000);
  EXPECT_GE(9'900 + late, 10'000);
}

// -------------------------------------------------- protocols under attack

sim::SimConfig partition_config(std::size_t n, std::uint64_t seed,
                                std::size_t minority) {
  auto cfg = test::async_config(n, seed);
  std::set<NodeId> group_a;
  for (NodeId i = 0; i < minority; ++i) group_a.insert(i);
  cfg.adversary =
      std::make_shared<PartitionAdversary>(group_a, /*heal_at=*/2 * kSecond);
  return cfg;
}

sim::SimConfig burst_config(std::size_t n, std::uint64_t seed) {
  auto cfg = test::async_config(n, seed);
  cfg.adversary = std::make_shared<BurstReorderAdversary>(50 * kMillisecond);
  return cfg;
}

class AdversarySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversarySweep, DelphiSurvivesPartition) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  const auto p = delphi_params();
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = 400.0 + rng.uniform(0.0, 20.0);

  auto outcome = scenario::SimRuntime().run(
      partition_config(n, seed, /*minority=*/2), [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      });
  ASSERT_TRUE(outcome.ok);
  // Guarantees unchanged; completion necessarily after the heal.
  EXPECT_GE(outcome.runtime_ms, 2 * kSecond / 1000.0);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  const double relax = std::max(p.rho0, *mx - *mn);
  EXPECT_LE(test::spread(outcome.outputs), p.eps);
  for (double o : outcome.outputs) {
    EXPECT_GE(o, *mn - relax - 1e-9);
    EXPECT_LE(o, *mx + relax + 1e-9);
  }
}

TEST_P(AdversarySweep, DelphiSurvivesBurstReordering) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  const auto p = delphi_params();
  std::vector<double> inputs(n);
  Rng rng(seed + 50);
  for (auto& v : inputs) v = 700.0 + rng.uniform(0.0, 8.0);

  auto outcome = scenario::SimRuntime().run(
      burst_config(n, seed), [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      });
  ASSERT_TRUE(outcome.ok);
  EXPECT_LE(test::spread(outcome.outputs), p.eps);
}

TEST_P(AdversarySweep, DolevSurvivesPartitionWithFaults) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  dolev::DolevProtocol::Config cfg;
  cfg.n = n;
  cfg.t = dolev::DolevProtocol::max_faults_5t(n);
  cfg.rounds = 8;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(100.0, 110.0);
  const auto byz = scenario::top_ids(n, cfg.t);

  auto outcome = scenario::SimRuntime().run(
      partition_config(n, seed, /*minority=*/3),
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (byz.contains(i)) return std::make_unique<SilentProtocol>();
        return std::make_unique<dolev::DolevProtocol>(cfg, inputs[i]);
      },
      byz);
  ASSERT_TRUE(outcome.ok);
  std::vector<double> honest_inputs(inputs.begin(),
                                    inputs.begin() + (n - cfg.t));
  const auto [mn, mx] =
      std::minmax_element(honest_inputs.begin(), honest_inputs.end());
  for (double o : outcome.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
}

TEST_P(AdversarySweep, AbrahamSurvivesPartition) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  abraham::AbrahamProtocol::Config cfg;
  cfg.n = n;
  cfg.t = max_faults(n);
  cfg.rounds = 8;
  cfg.space_min = -1e6;
  cfg.space_max = 1e6;
  std::vector<double> inputs(n);
  Rng rng(seed);
  for (auto& v : inputs) v = rng.uniform(-3.0, 3.0);

  auto outcome = scenario::SimRuntime().run(
      partition_config(n, seed, /*minority=*/2), [&](NodeId i) {
        return std::make_unique<abraham::AbrahamProtocol>(cfg, inputs[i]);
      });
  ASSERT_TRUE(outcome.ok);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  for (double o : outcome.outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
}

TEST_P(AdversarySweep, BinAaSurvivesBurstReordering) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 7;
  auto outcome = scenario::SimRuntime().run(
      burst_config(n, seed), [&](NodeId i) {
        binaa::BinAaProtocol::Config c;
        c.core.n = n;
        c.core.t = max_faults(n);
        c.core.r_max = 12;
        return std::make_unique<binaa::BinAaProtocol>(c, i % 3 == 0);
      });
  ASSERT_TRUE(outcome.ok);
  EXPECT_LE(test::spread(outcome.outputs), std::ldexp(1.0, -12) + 1e-12);
  for (double o : outcome.outputs) {
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarySweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------------------- determinism

TEST(AdversaryDeterminism, IdenticalSeedsIdenticalRuns) {
  // Drives the simulator directly: the check covers the engine's event
  // count, which RunReport does not carry.
  const std::size_t n = 7;
  const auto p = delphi_params();
  auto run_once = [&](std::uint64_t seed) {
    std::vector<double> inputs(n);
    Rng rng(123);
    for (auto& v : inputs) v = 250.0 + rng.uniform(0.0, 10.0);
    auto sim = std::make_unique<Simulator>(partition_config(n, seed, 2));
    for (NodeId i = 0; i < n; ++i) {
      protocol::DelphiProtocol::Config c;
      c.n = n;
      c.t = max_faults(n);
      c.params = p;
      sim->add_node(std::make_unique<protocol::DelphiProtocol>(c, inputs[i]));
    }
    sim->run();
    return sim;
  };
  const auto a = run_once(9);
  const auto b = run_once(9);
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(a->node_as<protocol::DelphiProtocol>(i).output_value(),
              b->node_as<protocol::DelphiProtocol>(i).output_value());
  }
  EXPECT_EQ(a->traffic_totals().honest_bytes, b->traffic_totals().honest_bytes);
  EXPECT_EQ(a->metrics().honest_completion, b->metrics().honest_completion);
  EXPECT_EQ(a->metrics().events_processed, b->metrics().events_processed);
}

}  // namespace
}  // namespace delphi::sim
