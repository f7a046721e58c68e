/// Churn & recovery plane tests (scenario::ChurnSpec + the restart machinery
/// on all three substrates):
///   * spec grammar — churn=/churn-seed= round-trip through canonical text,
///     malformed values and invalid windows are rejected with ConfigError;
///   * dolev's RestartableProtocol snapshot/restore reproduces state exactly;
///   * sim churn is bit-identical across reruns and across parallel sweeps
///     (the determinism contract extends to the fault family);
///   * the acceptance gate — every registered protocol reaches agreement
///     under churn:1 on sim, tcp, and udp at n=4;
///   * recovery accounting — a killed TCP node reconnects, catch-up traffic
///     lands in catchup_* only, and honest_bytes parity with the simulator
///     survives churn (the replay/retransmit plane is invisible to the
///     logical counters);
///   * TCP replay under a reordering netem shim — the log is kept in wire
///     order, so a restarted receiver gets every numbered frame exactly
///     once.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "dolev/dolev.hpp"
#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi::scenario {
namespace {

ScenarioSpec base_spec(const std::string& protocol, Substrate sub) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = TestbedKind::kAsync;
  spec.substrate = sub;
  spec.n = 4;
  spec.seed = 7;
  return spec;
}

// ------------------------------------------------------------ spec grammar

TEST(ChurnSpecText, RoundTripsThroughText) {
  ScenarioSpec spec = base_spec("rbc", Substrate::kSim);
  spec.churn.push_back({1, 10'000, 50'000});
  spec.churn.push_back({2, 60'000, 90'000});
  spec.churn_seed = 9;

  const std::string text = spec.to_text();
  EXPECT_NE(text.find("churn=1:10000:50000"), std::string::npos) << text;
  EXPECT_NE(text.find("churn=2:60000:90000"), std::string::npos) << text;
  EXPECT_NE(text.find("churn-seed=9"), std::string::npos) << text;

  const ScenarioSpec back = ScenarioSpec::from_text(text);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_text(), text);  // canonical text is a fixed point
}

TEST(ChurnSpecText, OmittedWhenInactive) {
  const ScenarioSpec spec = base_spec("rbc", Substrate::kSim);
  const std::string text = spec.to_text();
  EXPECT_EQ(text.find("churn"), std::string::npos) << text;
}

TEST(ChurnSpecText, MalformedValuesRejected) {
  for (const char* bad : {"", "1", "1:2", "1:2:3:4", "x:2:3", "1:a:3"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_churn(bad), ConfigError);
  }
  const ChurnSpec c = parse_churn("2:1000:5000");
  EXPECT_EQ(c.k, 2u);
  EXPECT_EQ(c.down_us, 1000u);
  EXPECT_EQ(c.up_us, 5000u);
}

TEST(ChurnSpecValidation, RejectsInvalidWindows) {
  // Empty restart set.
  ScenarioSpec spec = base_spec("rbc", Substrate::kSim);
  spec.churn.push_back({0, 1000, 5000});
  EXPECT_THROW(spec.validate(), ConfigError);

  // Window that never rejoins (up <= down).
  spec.churn = {{1, 5000, 5000}};
  EXPECT_THROW(spec.validate(), ConfigError);

  // More restarts than honest nodes (crash/byzantine block excluded).
  spec.churn = {{4, 1000, 5000}};
  spec.crashes = 1;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.crashes = 0;

  // Overlapping windows.
  spec.churn = {{1, 1000, 9000}, {1, 5000, 20'000}};
  EXPECT_THROW(spec.validate(), ConfigError);

  // Disjoint windows are fine.
  spec.churn = {{1, 1000, 9000}, {1, 9000, 20'000}};
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------- snapshot/restore contract

TEST(RestartableProtocol, DolevSnapshotRestoreRoundTrip) {
  dolev::DolevProtocol::Config cfg;
  cfg.n = 6;
  cfg.t = 1;
  cfg.rounds = 4;

  // A restored instance must reproduce the snapshot exactly: same estimate,
  // same round, and a re-snapshot yields the same bytes (serialization is a
  // fixed point). Configuration comes from the factory, not the snapshot,
  // so the fresh instance starts from a different input on purpose.
  dolev::DolevProtocol original(cfg, 3.25);
  ByteWriter w1;
  original.snapshot(w1);

  dolev::DolevProtocol restored(cfg, 99.0);
  ByteReader r(w1.data());
  restored.restore(r);
  EXPECT_EQ(restored.estimate(), 3.25);
  EXPECT_EQ(restored.round(), original.round());
  EXPECT_EQ(restored.terminated(), original.terminated());

  ByteWriter w2;
  restored.snapshot(w2);
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(RestartableProtocol, DolevRestoreRejectsGarbage) {
  dolev::DolevProtocol::Config cfg;
  cfg.n = 6;
  cfg.t = 1;
  cfg.rounds = 4;
  dolev::DolevProtocol p(cfg, 1.0);
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ByteReader r(garbage);
  EXPECT_THROW(p.restore(r), Error);
}

// ----------------------------------------------------------- sim determinism

TEST(SimChurn, BitIdenticalAcrossReruns) {
  ScenarioSpec spec = base_spec("delphi", Substrate::kSim);
  spec.churn = {{1, 2000, 40'000}};
  const RunReport a = SimRuntime().run(spec);
  const RunReport b = SimRuntime().run(spec);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a, b);

  // Seeded placement is deterministic too (and changes the schedule only
  // through which node goes dark).
  spec.churn_seed = 5;
  const RunReport c = SimRuntime().run(spec);
  EXPECT_EQ(c, SimRuntime().run(spec));
}

TEST(SimChurn, ParallelSweepMatchesSerial) {
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ScenarioSpec spec = base_spec("rbc", Substrate::kSim);
    spec.seed = seed;
    spec.churn = {{1, 2000, 30'000}};
    specs.push_back(spec);
  }
  const auto serial = SweepRunner(1).run(specs);
  const auto parallel = SweepRunner(4).run(specs);
  EXPECT_EQ(serial, parallel);
}

TEST(SimChurn, RecoveryMetricsAreFilled) {
  ScenarioSpec spec = base_spec("rbc", Substrate::kSim);
  spec.churn = {{1, 2000, 50'000}};
  const RunReport rep = SimRuntime().run(spec);
  ASSERT_TRUE(rep.ok);
  // Placement default: first honest id. One window = one rejoin, downtime =
  // the window length, and every delivery deferred past the dark window is
  // catch-up traffic.
  EXPECT_EQ(rep.nodes[0].reconnects, 1u);
  EXPECT_EQ(rep.nodes[0].downtime_ms, 48u);
  EXPECT_GT(rep.nodes[0].catchup_frames, 0u);
  EXPECT_GT(rep.nodes[0].catchup_bytes, 0u);
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(rep.nodes[i].reconnects, 0u);
    EXPECT_EQ(rep.nodes[i].downtime_ms, 0u);
  }
}

class ChurnFree : public ::testing::TestWithParam<Substrate> {};

TEST_P(ChurnFree, ChurnFreeReportUnchangedByTheChurnPlane) {
  // The churn machinery must be invisible when no windows are configured:
  // same outputs, bytes, and schedule as ever (the golden-metrics suite pins
  // absolute values; this pins the churn-free/churn boundary directly). On
  // TCP the mesh comes up through the reconnect path's dial/hello code, and
  // that bring-up must not count as a reconnect or replay anything.
  ScenarioSpec spec = base_spec("delphi", GetParam());
  const RunReport plain = run_scenario(spec);
  ASSERT_TRUE(plain.ok);
  for (const auto& nc : plain.nodes) {
    EXPECT_EQ(nc.reconnects, 0u);
    EXPECT_EQ(nc.catchup_frames, 0u);
    EXPECT_EQ(nc.downtime_ms, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Substrates, ChurnFree,
                         ::testing::Values(Substrate::kSim, Substrate::kTcp,
                                           Substrate::kUdp),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Substrate::kTcp: return std::string("Tcp");
                             case Substrate::kUdp: return std::string("Udp");
                             default: return std::string("Sim");
                           }
                         });

// -------------------------------------------------------- acceptance gate

void expect_agreement_under_churn(Substrate sub, const ChurnSpec& window) {
  for (const auto& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = base_spec(name, sub);
    spec.churn = {window};
    spec.params["timeout-ms"] = 60'000;
    const RunReport rep = run_scenario(spec);
    EXPECT_TRUE(rep.ok) << name << ": " << rep.unfinished.size()
                        << " unfinished";
    EXPECT_TRUE(rep.node_errors.empty())
        << name << ": node " << rep.node_errors.front().id << " died: "
        << rep.node_errors.front().message;
    EXPECT_FALSE(rep.outputs.empty());
  }
}

TEST(ChurnAgreement, EveryProtocolOnSim) {
  expect_agreement_under_churn(Substrate::kSim, {1, 2000, 40'000});
}

TEST(ChurnAgreement, EveryProtocolOnTcp) {
  expect_agreement_under_churn(Substrate::kTcp, {1, 1000, 60'000});
}

TEST(ChurnAgreement, EveryProtocolOnUdp) {
  expect_agreement_under_churn(Substrate::kUdp, {1, 1000, 60'000});
}

TEST(ChurnAgreement, DoubleRestartOfTheSameNode) {
  // Two disjoint windows restart node 0 twice on a socket substrate — the
  // reconnect/catch-up machinery must be re-enterable.
  for (const Substrate sub : {Substrate::kTcp, Substrate::kUdp}) {
    SCOPED_TRACE(static_cast<int>(sub));
    ScenarioSpec spec = base_spec("rbc", sub);
    spec.churn = {{1, 1000, 40'000}, {1, 80'000, 120'000}};
    spec.params["timeout-ms"] = 60'000;
    const RunReport rep = run_scenario(spec);
    EXPECT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
    EXPECT_TRUE(rep.node_errors.empty());
  }
}

// ------------------------------------------------------ recovery accounting

TEST(TcpChurn, ReconnectsAndCatchupExcludedFromHonestBytes) {
  // Dolev is the parity fixture on purpose: fixed-round multicast sends
  // exactly n*rounds messages per node on EVERY schedule (rbc would not do
  // — a node that misses SEND legitimately delivers via READY amplification
  // and sends fewer messages), and it implements RestartableProtocol, so
  // the TCP restart takes the snapshot/restore path.
  ScenarioSpec spec = base_spec("dolev", Substrate::kSim);
  spec.inputs = {1.5, 2.5, 3.5, 4.5};
  spec.params["rounds"] = 4;
  const RunReport plain = SimRuntime().run(spec);

  // Dark from the very start: node 0 goes down before its round-0 frames
  // hit the wire, so completion *requires* the catch-up plane — replay logs
  // on TCP, deferred delivery under sim.
  spec.churn = {{1, 0, 150'000}};
  const RunReport sim_churned = SimRuntime().run(spec);

  spec.substrate = Substrate::kTcp;
  spec.params["timeout-ms"] = 60'000;
  const RunReport tcp = TcpRuntime().run(spec);

  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(sim_churned.ok);
  ASSERT_TRUE(tcp.ok);
  // Catch-up replay is counted in catchup_* only, so all three honest-byte
  // totals coincide exactly.
  EXPECT_EQ(plain.honest_bytes, sim_churned.honest_bytes);
  EXPECT_EQ(plain.honest_bytes, tcp.honest_bytes);
  EXPECT_EQ(plain.honest_msgs, tcp.honest_msgs);
  EXPECT_EQ(plain.outputs, tcp.outputs);

  // The killed node really went down and came back: peers re-dialed it (it
  // is id 0, the side every higher id dials), and it was dark for roughly
  // the window (wall-clock, so only a lower bound is stable).
  EXPECT_GE(tcp.nodes[0].reconnects, 1u);
  EXPECT_GE(tcp.nodes[0].downtime_ms, 100u);
  std::uint64_t catchup = 0;
  for (const auto& nc : tcp.nodes) catchup += nc.catchup_frames;
  EXPECT_GT(catchup, 0u);
}

TEST(UdpChurn, RebindKeepsParityAndCountsRetransmitsAsCatchup) {
  ScenarioSpec spec = base_spec("dolev", Substrate::kSim);
  spec.inputs = {1.5, 2.5, 3.5, 4.5};
  spec.params["rounds"] = 4;
  const RunReport sim_rep = SimRuntime().run(spec);

  spec.substrate = Substrate::kUdp;
  spec.churn = {{1, 0, 120'000}};
  spec.params["timeout-ms"] = 60'000;
  const RunReport udp = UdpRuntime().run(spec);

  ASSERT_TRUE(sim_rep.ok);
  ASSERT_TRUE(udp.ok);
  EXPECT_EQ(sim_rep.honest_bytes, udp.honest_bytes);
  EXPECT_EQ(sim_rep.honest_msgs, udp.honest_msgs);
  EXPECT_EQ(sim_rep.outputs, udp.outputs);

  // One restart = one socket rebind; the dark window forces the peers' ARQ
  // to retransmit into the void and catch the node up after rebind.
  EXPECT_EQ(udp.nodes[0].reconnects, 1u);
  EXPECT_GE(udp.nodes[0].downtime_ms, 100u);
  std::uint64_t catchup = 0;
  for (const auto& nc : udp.nodes) catchup += nc.catchup_frames;
  EXPECT_GT(catchup, 0u);
}

// ------------------------------------------- TCP replay in wire order

TEST(TcpChurn, ReorderedFramesReplayExactlyOnceAfterRestart) {
  // random-delay releases node 0's frames in an order unrelated to their
  // send order, and node 1 counts frames in the order they reach the wire.
  // Node 1 goes dark while frames are still being released; its hello then
  // says how many it holds, and node 0 must replay exactly the frames past
  // that count in wire order — a log kept in send order would replay some
  // numbers twice and never deliver others.
  constexpr std::uint32_t kFrames = 2000;
  transport::TcpCluster::Options opts;
  opts.n = 2;
  opts.seed = 11;
  opts.timeout_ms = 10'000;
  opts.netem.seed = 11;
  opts.netem.jitter_max_us = 300'000;
  opts.churn = {{1, 80'000, 160'000}};
  transport::TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId) {
        return std::make_unique<test::NumberedSends>(kFrames, kFrames);
      },
      [](std::uint32_t, ByteReader& r) { return test::SeqMsg::decode(r); });
  ASSERT_TRUE(cluster.wait()) << "node 1 never received every number";
  EXPECT_TRUE(cluster.failures().empty());
  const auto& rx =
      dynamic_cast<const test::NumberedSends&>(cluster.protocol(1));
  std::size_t dups = 0;
  for (const std::uint32_t h : rx.hits()) dups += h > 1 ? h - 1 : 0;
  EXPECT_EQ(dups, 0u);
  EXPECT_EQ(cluster.metrics(1).msgs_delivered, kFrames);
  // The restart really happened and the replay did the catching up.
  EXPECT_GE(cluster.metrics(0).reconnects, 1u);
  EXPECT_GT(cluster.metrics(0).catchup_frames, 0u);
}

}  // namespace
}  // namespace delphi::scenario
