/// Stress and cross-protocol consistency tests: larger systems, boundary
/// inputs, protocol-vs-protocol output comparison on identical readings, and
/// a bigger TCP cluster exercising the real-socket path under load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "abraham/abraham.hpp"
#include "acs/acs.hpp"
#include "delphi/delphi.hpp"
#include "dolev/dolev.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi {
namespace {

protocol::DelphiParams stress_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  return p;
}

std::vector<double> clustered_inputs(std::size_t n, std::uint64_t seed,
                                     double center, double spread) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (auto& x : v) x = center + rng.uniform(-spread / 2, spread / 2);
  return v;
}

// -------------------------------------------------------------- large scale

TEST(Stress, DelphiFortyNodes) {
  const std::size_t n = 40;
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 61, 500.0, 6.0);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 61;
  cfg.latency = std::make_shared<sim::UniformLatency>(100, 5'000);
  auto outcome = scenario::SimRuntime().run(cfg, [&](NodeId i) {
    protocol::DelphiProtocol::Config c;
    c.n = n;
    c.t = max_faults(n);
    c.params = p;
    return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
  });
  ASSERT_TRUE(outcome.ok);
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  const double relax = std::max(p.rho0, *mx - *mn);
  EXPECT_LE(test::spread(outcome.outputs), p.eps);
  for (double o : outcome.outputs) {
    EXPECT_GE(o, *mn - relax - 1e-9);
    EXPECT_LE(o, *mx + relax + 1e-9);
  }
}

TEST(Stress, DelphiFortyNodesWithMaxFaults) {
  const std::size_t n = 40;
  const std::size_t t = max_faults(n);  // 13
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 62, 300.0, 4.0);
  const auto byz = scenario::top_ids(n, t);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 62;
  cfg.latency = std::make_shared<sim::UniformLatency>(100, 5'000);
  auto outcome = scenario::SimRuntime().run(
      cfg,
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (byz.contains(i)) return std::make_unique<sim::SilentProtocol>();
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = t;
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      },
      byz);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.outputs.size(), n - t);
  EXPECT_LE(test::spread(outcome.outputs), p.eps);
}

// ---------------------------------------------------------- boundary inputs

TEST(Stress, AllInputsAtSpaceEdges) {
  // Everyone at the lower edge; then everyone at the upper edge.
  for (const double edge : {0.0, 1000.0}) {
    const std::size_t n = 7;
    const auto p = stress_params();
    auto outcome =
        scenario::SimRuntime().run(test::async_config(n, 63), [&](NodeId) {
          protocol::DelphiProtocol::Config c;
          c.n = n;
          c.t = max_faults(n);
          c.params = p;
          return std::make_unique<protocol::DelphiProtocol>(c, edge);
        });
    ASSERT_TRUE(outcome.ok) << "edge " << edge;
    for (double o : outcome.outputs) {
      EXPECT_NEAR(o, edge, p.rho0 + 1e-9) << "edge " << edge;
    }
  }
}

TEST(Stress, TwoClustersAtMaxRange) {
  // Honest inputs split into two clusters delta_max apart — the worst
  // admissible input spread; Delphi must still terminate and agree.
  const std::size_t n = 8;
  const auto p = stress_params();
  std::vector<double> inputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs[i] = (i < n / 2) ? 500.0 : 500.0 + p.delta_max;
  }
  auto outcome = scenario::SimRuntime().run(
      test::adversarial_config(n, 64), [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      });
  ASSERT_TRUE(outcome.ok);
  EXPECT_LE(test::spread(outcome.outputs), p.eps);
  for (double o : outcome.outputs) {
    EXPECT_GE(o, 500.0 - p.delta_max - 1e-9);
    EXPECT_LE(o, 500.0 + 2 * p.delta_max + 1e-9);
  }
}

// ------------------------------------------------- cross-protocol agreement

TEST(Stress, AllProtocolsLandNearTheHonestCluster) {
  // Same readings through Delphi, Abraham, Dolev, and ACS-median: the exact
  // protocols stay inside [m, M]; Delphi inside the relaxed hull; and all
  // four land within (relaxed hull) of each other — the "any of these is a
  // sane oracle" sanity property.
  const std::size_t n = 11;
  const auto inputs = clustered_inputs(n, 65, 420.0, 10.0);
  const auto [mn_it, mx_it] = std::minmax_element(inputs.begin(), inputs.end());
  const double m = *mn_it, M = *mx_it;

  const auto p = stress_params();
  auto delphi_out = scenario::SimRuntime().run(
      test::async_config(n, 65), [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      });
  abraham::AbrahamProtocol::Config ac;
  ac.n = n;
  ac.t = max_faults(n);
  ac.rounds = 8;
  ac.space_min = 0.0;
  ac.space_max = 1000.0;
  auto abraham_out = scenario::SimRuntime().run(
      test::async_config(n, 66), [&](NodeId i) {
        return std::make_unique<abraham::AbrahamProtocol>(ac, inputs[i]);
      });
  dolev::DolevProtocol::Config dc;
  dc.n = n;
  dc.t = dolev::DolevProtocol::max_faults_5t(n);
  dc.rounds = 8;
  dc.space_min = 0.0;
  dc.space_max = 1000.0;
  auto dolev_out = scenario::SimRuntime().run(
      test::async_config(n, 67), [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(dc, inputs[i]);
      });

  ASSERT_TRUE(delphi_out.ok);
  ASSERT_TRUE(abraham_out.ok);
  ASSERT_TRUE(dolev_out.ok);

  const double delta = M - m;
  const double relax = std::max(p.rho0, delta);
  for (double o : abraham_out.outputs) {
    EXPECT_GE(o, m);
    EXPECT_LE(o, M);
  }
  for (double o : dolev_out.outputs) {
    EXPECT_GE(o, m);
    EXPECT_LE(o, M);
  }
  for (double o : delphi_out.outputs) {
    EXPECT_GE(o, m - relax - 1e-9);
    EXPECT_LE(o, M + relax + 1e-9);
  }
  // Pairwise: every pair of protocol outputs within the relaxed hull width.
  const double hull = (M + relax) - (m - relax);
  for (double a : delphi_out.outputs) {
    for (double b : abraham_out.outputs) EXPECT_LE(std::abs(a - b), hull);
    for (double b : dolev_out.outputs) EXPECT_LE(std::abs(a - b), hull);
  }
}

// ------------------------------------------------------------- TCP at load

TEST(Stress, TcpClusterTenNodesDelphi) {
  const std::size_t n = 10;
  const auto p = stress_params();
  const auto inputs = clustered_inputs(n, 68, 250.0, 5.0);

  transport::TcpCluster::Options opts;
  opts.n = n;
  opts.timeout_ms = 60'000;
  transport::TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = p;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      },
      transport::decoders::delphi());
  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& prot =
        dynamic_cast<const protocol::DelphiProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(prot.output_value().has_value());
    outputs.push_back(*prot.output_value());
    EXPECT_EQ(cluster.metrics(i).malformed_dropped, 0u);
  }
  EXPECT_LE(test::spread(outputs), p.eps);
}

}  // namespace
}  // namespace delphi
