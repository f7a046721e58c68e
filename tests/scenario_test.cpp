/// Tests for the scenario API: registry completeness (every registered
/// protocol builds and runs at small n on the simulator), ScenarioSpec text
/// round-trip, cross-substrate equivalence (same spec on SimRuntime and
/// TcpRuntime → same honest outputs and honest byte counts, both sides
/// accounting via net::framed_size), custom registration, crash-fault
/// wiring, and unfinished-node reporting on TCP timeout.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"

namespace delphi::scenario {
namespace {

/// Small-n spec every built-in suite can run: n = 6 satisfies the 5t+1
/// protocols at t = 1 and the 3t+1 protocols at t = 1 (auto).
ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = TestbedKind::kAsync;
  spec.n = 6;
  spec.seed = 7;
  return spec;
}

// ------------------------------------------------------------- registry

TEST(Registry, CoversEveryProtocolSuite) {
  const auto names = ProtocolRegistry::global().names();
  for (const char* expected :
       {"aba", "abraham", "acs", "benor", "binaa", "delphi", "dolev", "dora",
        "fin", "multidim", "rbc"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing registry entry: " << expected;
  }
}

TEST(Registry, EveryEntryBuildsAndRunsAtSmallN) {
  for (const auto& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto rep = SimRuntime().run(small_spec(name));
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.unfinished.empty());
    EXPECT_FALSE(rep.outputs.empty());
    EXPECT_EQ(rep.nodes.size(), 6u);
    EXPECT_GT(rep.honest_msgs, 0u);
    EXPECT_GT(rep.honest_bytes, 0u);
  }
}

TEST(Registry, UnknownProtocolThrowsWithKnownNames) {
  try {
    SimRuntime().run(small_spec("nonesuch"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("delphi"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateAndIncompleteEntries) {
  ProtocolRegistry reg;
  ProtocolInfo incomplete;
  EXPECT_THROW(reg.add("x", incomplete), ConfigError);

  ProtocolInfo ok;
  ok.make_factory = [](const ScenarioSpec&, std::vector<double>) {
    return [](NodeId) { return std::unique_ptr<net::Protocol>(); };
  };
  ok.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  reg.add("x", ok);
  EXPECT_THROW(reg.add("x", ok), ConfigError);
  EXPECT_NE(reg.find("x"), nullptr);
  EXPECT_EQ(reg.find("y"), nullptr);
}

// ------------------------------------------------------------- spec text

TEST(Spec, TextRoundTripIsExact) {
  ScenarioSpec spec;
  spec.protocol = "dolev";
  spec.substrate = Substrate::kTcp;
  spec.testbed = TestbedKind::kCps;
  spec.n = 11;
  spec.t = 2;
  spec.crashes = 1;
  spec.seed = 42;
  spec.center = 1000.25;
  spec.delta = 5.125;
  spec.params["rounds"] = 8;
  spec.params["space-min"] = -1e6;
  spec.params["space-max"] = 0.1;  // not exactly representable — %.17g path
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);

  // Explicit inputs (including a value needing full precision).
  spec.inputs = {1.0, 2.5, 0.1 + 0.2, -7.75, 1e-300, 40000.0, 3.0, 4.0, 5.0,
                 6.0, 7.0};
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);

  // auto fault bound round-trips too.
  spec.t = kAutoFaults;
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
}

TEST(Spec, ParsesHandWrittenText) {
  const auto spec = ScenarioSpec::from_text(
      "protocol=abraham substrate=tcp testbed=cps n=8 seed=3 rounds=6 "
      "space-max=500");
  EXPECT_EQ(spec.protocol, "abraham");
  EXPECT_EQ(spec.substrate, Substrate::kTcp);
  EXPECT_EQ(spec.testbed, TestbedKind::kCps);
  EXPECT_EQ(spec.n, 8u);
  EXPECT_EQ(spec.t, kAutoFaults);
  EXPECT_EQ(spec.seed, 3u);
  EXPECT_EQ(spec.param("rounds", 0.0), 6.0);
  EXPECT_EQ(spec.param("space-max", 0.0), 500.0);
  EXPECT_EQ(spec.param("absent", -1.0), -1.0);
}

TEST(Spec, RejectsMalformedText) {
  EXPECT_THROW(ScenarioSpec::from_text("n"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("n=four"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("substrate=carrier-pigeon"),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("testbed=gcp"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("rho0=abc"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("=3"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("n=0"), ConfigError);
  EXPECT_THROW(ScenarioSpec::from_text("inputs=1,2 n=3"), ConfigError);
}

TEST(Spec, MakeInputsGeneratorAndExplicit) {
  ScenarioSpec spec;
  spec.n = 8;
  spec.center = 100.0;
  spec.delta = 10.0;
  const auto gen = spec.make_inputs();
  ASSERT_EQ(gen.size(), 8u);
  const auto [mn, mx] = std::minmax_element(gen.begin(), gen.end());
  EXPECT_DOUBLE_EQ(*mx - *mn, 10.0);  // realized range exactly delta

  spec.inputs = {1, 2, 3};  // wrong size
  EXPECT_THROW(spec.make_inputs(), ConfigError);
}

// ------------------------------------------- cross-substrate equivalence

TEST(CrossSubstrate, RbcOutputsAndBytesMatch) {
  // RBC's traffic is schedule-independent (every node sends exactly one
  // ECHO and one READY, the broadcaster one SEND per peer) and its output
  // is exact, so the two substrates must agree bit-for-bit on both. Byte
  // parity holds because the simulator accounts net::framed_size for
  // exactly the frames TCP really sends.
  ScenarioSpec spec;
  spec.protocol = "rbc";
  spec.n = 5;
  spec.seed = 11;
  spec.inputs = {40012.5, 40013.0, 40011.0, 40014.5, 40012.0};

  spec.substrate = Substrate::kSim;
  const auto sim_rep = SimRuntime().run(spec);
  spec.substrate = Substrate::kTcp;
  const auto tcp_rep = TcpRuntime().run(spec);

  ASSERT_TRUE(sim_rep.ok);
  ASSERT_TRUE(tcp_rep.ok);
  EXPECT_EQ(sim_rep.outputs, tcp_rep.outputs);
  ASSERT_EQ(sim_rep.outputs.size(), 5u);
  for (const double v : sim_rep.outputs) EXPECT_EQ(v, 40012.5);
  EXPECT_EQ(sim_rep.honest_bytes, tcp_rep.honest_bytes);
  EXPECT_EQ(sim_rep.honest_msgs, tcp_rep.honest_msgs);
}

TEST(CrossSubstrate, DolevUnanimousOutputsAndBytesMatch) {
  // Dolev broadcasts exactly `rounds` messages per node regardless of
  // schedule, and unanimous honest inputs pin the outputs.
  ScenarioSpec spec;
  spec.protocol = "dolev";
  spec.n = 6;
  spec.seed = 5;
  spec.params["rounds"] = 5;
  spec.inputs = std::vector<double>(6, 42.0);

  spec.substrate = Substrate::kSim;
  const auto sim_rep = SimRuntime().run(spec);
  spec.substrate = Substrate::kTcp;
  const auto tcp_rep = TcpRuntime().run(spec);

  ASSERT_TRUE(sim_rep.ok);
  ASSERT_TRUE(tcp_rep.ok);
  EXPECT_EQ(sim_rep.outputs, tcp_rep.outputs);
  ASSERT_EQ(sim_rep.outputs.size(), 6u);
  for (const double v : sim_rep.outputs) EXPECT_EQ(v, 42.0);
  EXPECT_EQ(sim_rep.honest_bytes, tcp_rep.honest_bytes);
}

// --------------------------------------------------- faults & timeouts

TEST(Runtime, CrashFaultsWorkForAnyProtocol) {
  for (const char* name : {"delphi", "dolev"}) {
    SCOPED_TRACE(name);
    auto spec = small_spec(name);
    spec.n = name == std::string("dolev") ? 11u : 7u;
    spec.crashes = 1;
    const auto rep = SimRuntime().run(spec);
    EXPECT_TRUE(rep.ok);
    // The crashed node (top id) is excluded from honest outputs.
    EXPECT_EQ(rep.outputs.size(), spec.n - 1);
    // It sent nothing.
    EXPECT_EQ(rep.nodes.back().msgs_sent, 0u);
  }
}

TEST(Runtime, TcpTimeoutReportsUnfinishedNodeIds) {
  /// Terminates on node 0 only; 1 and 2 hang forever.
  class Stuck final : public net::Protocol {
   public:
    void on_start(net::Context&) override {}
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return false; }
  };

  // A private registry keeps the never-terminating suite out of
  // ProtocolRegistry::global() (the completeness sweep iterates it).
  ProtocolRegistry reg;
  ProtocolInfo info;
  info.make_factory = [](const ScenarioSpec&, std::vector<double>) {
    return [](NodeId i) -> std::unique_ptr<net::Protocol> {
      if (i == 0) return std::make_unique<sim::SilentProtocol>();
      return std::make_unique<Stuck>();
    };
  };
  info.make_decoder = [](const ScenarioSpec&) {
    return transport::decoders::delphi();
  };
  reg.add("test-stuck", info);

  ScenarioSpec spec;
  spec.protocol = "test-stuck";
  spec.substrate = Substrate::kTcp;
  spec.n = 3;
  spec.params["timeout-ms"] = 300;
  const auto rep = TcpRuntime(&reg).run(spec);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.unfinished, (std::vector<NodeId>{1, 2}));
}

TEST(Runtime, RbcRejectsOutOfRangeBroadcaster) {
  auto spec = small_spec("rbc");
  spec.params["broadcaster"] = 9;  // n = 6
  EXPECT_THROW(SimRuntime().run(spec), ConfigError);
  spec.params["broadcaster"] = -1;
  EXPECT_THROW(SimRuntime().run(spec), ConfigError);
}

// ------------------------------------------------------- report parity

TEST(Runtime, SpecRunMatchesHandBuiltRun) {
  // A spec run and a hand-built run of the same deployment are one code
  // path: the reports agree field for field.
  ScenarioSpec spec = small_spec("delphi");
  const auto rep = SimRuntime().run(spec);

  const auto& info = ProtocolRegistry::global().require("delphi");
  ScenarioSpec resolved = spec;
  resolved.t = max_faults(spec.n);
  const auto factory = info.make_factory(resolved, resolved.make_inputs());
  EXPECT_EQ(rep, SimRuntime().run(
                     testbed_config(spec.testbed, spec.n, spec.seed), factory));
}

TEST(Runtime, TopIdsPlacement) {
  EXPECT_EQ(top_ids(10, 3), (std::set<NodeId>{7, 8, 9}));
  EXPECT_TRUE(top_ids(4, 0).empty());
}

}  // namespace
}  // namespace delphi::scenario
