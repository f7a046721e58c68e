/// Integration tests for the UDP datagram substrate (transport/udp.hpp +
/// scenario::UdpRuntime):
///   * cross-substrate parity — rbc and dolev honest outputs AND honest
///     byte/message counts match the simulator exactly (logical-send
///     accounting excludes retransmissions, acks, and datagram headers, so
///     sim ≡ udp by construction);
///   * every registered protocol terminates fault-free on udp n=4;
///   * every adversary= form from the fault plane runs on udp through the
///     netem shim;
///   * agreement under loss — every protocol still terminates with the shim
///     dropping 1% and 5% of datagrams (selective-repeat ARQ recovery);
///   * the dup filter under datagram duplication keeps delivery exactly-once
///     (loss makes the ARQ retransmit; parity of delivered message counts
///     pins that duplicates never reach the protocol);
///   * packing — a fault-free pipelined Delphi run puts several frames in a
///     datagram, so it sends fewer datagrams than logical frames.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"

namespace delphi::transport {
namespace {

using scenario::ProtocolRegistry;
using scenario::ScenarioSpec;
using scenario::SimRuntime;
using scenario::Substrate;
using scenario::UdpRuntime;

ScenarioSpec small_spec(const std::string& protocol, std::size_t n) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.testbed = scenario::TestbedKind::kAsync;
  spec.substrate = Substrate::kUdp;
  spec.n = n;
  spec.seed = 7;
  return spec;
}

// -------------------------------------------------- cross-substrate parity

TEST(UdpCrossSubstrate, RbcBytesAndOutputsMatchSim) {
  // RBC traffic is schedule-independent, so the datagram substrate must
  // report exactly the simulator's framed_size accounting: reordering,
  // per-datagram headers, acks, and any ARQ retransmissions are all
  // invisible to the logical honest_bytes/honest_msgs counters.
  ScenarioSpec spec;
  spec.protocol = "rbc";
  spec.n = 5;
  spec.seed = 23;
  spec.inputs = {1.5, 2.5, 3.5, 4.5, 5.5};

  spec.substrate = Substrate::kSim;
  const auto sim_rep = SimRuntime().run(spec);
  spec.substrate = Substrate::kUdp;
  const auto udp_rep = UdpRuntime().run(spec);

  ASSERT_TRUE(sim_rep.ok);
  ASSERT_TRUE(udp_rep.ok);
  EXPECT_EQ(sim_rep.outputs, udp_rep.outputs);
  EXPECT_EQ(sim_rep.honest_bytes, udp_rep.honest_bytes);
  EXPECT_EQ(sim_rep.honest_msgs, udp_rep.honest_msgs);
}

TEST(UdpCrossSubstrate, DolevBytesMatchWithAndWithoutAuth) {
  // Both auth modes: the datagram accounting (frame body + 32-byte tag when
  // authenticated) must agree with the simulator's framed_size in each.
  for (const double auth : {1.0, 0.0}) {
    SCOPED_TRACE(auth);
    ScenarioSpec spec;
    spec.protocol = "dolev";
    spec.n = 6;
    spec.seed = 9;
    spec.params["rounds"] = 5;
    spec.params["auth"] = auth;
    spec.inputs = std::vector<double>(6, 17.0);

    spec.substrate = Substrate::kSim;
    const auto sim_rep = SimRuntime().run(spec);
    spec.substrate = Substrate::kUdp;
    const auto udp_rep = UdpRuntime().run(spec);

    ASSERT_TRUE(sim_rep.ok);
    ASSERT_TRUE(udp_rep.ok);
    EXPECT_EQ(sim_rep.outputs, udp_rep.outputs);
    EXPECT_EQ(sim_rep.honest_bytes, udp_rep.honest_bytes);
  }
}

TEST(UdpCrossSubstrate, DupFilterNeverInflatesDeliveries) {
  // Under 5% loss with a hair-trigger RTO the ARQ retransmits aggressively,
  // so the same datagram reaches a receiver more than once. The dup filter
  // must keep protocol deliveries at-most-once. How many messages land
  // before the cluster stops is schedule-dependent (either run can cut off
  // tail traffic when every protocol has terminated), so the invariant is
  // the schedule-independent ceiling: an rbc run multicasts at most
  // 1 SEND + n ECHO + n READY broadcasts, each delivered at most once per
  // node — a duplicate leaking through under retransmit pressure blows
  // straight past (2n+1)*n.
  constexpr std::size_t kN = 4;
  constexpr std::uint64_t kMaxDeliveries = (2 * kN + 1) * kN;
  ScenarioSpec spec = small_spec("rbc", kN);
  const auto clean = UdpRuntime().run(spec);
  spec.params["loss"] = 0.05;
  spec.params["rto-ms"] = 5;  // fast retransmit = more duplicate pressure
  const auto lossy = UdpRuntime().run(spec);
  ASSERT_TRUE(clean.ok);
  ASSERT_TRUE(lossy.ok);
  EXPECT_EQ(clean.outputs, lossy.outputs);
  std::uint64_t clean_delivered = 0, lossy_delivered = 0;
  for (const auto& nc : clean.nodes) clean_delivered += nc.msgs_delivered;
  for (const auto& nc : lossy.nodes) lossy_delivered += nc.msgs_delivered;
  EXPECT_LE(clean_delivered, kMaxDeliveries);
  EXPECT_LE(lossy_delivered, kMaxDeliveries);
  EXPECT_GT(lossy_delivered, 0u);
}

// ------------------------------------------------------------- fault-free

TEST(UdpRuntimeSuite, EveryProtocolTerminatesFaultFree) {
  for (const auto& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto rep = UdpRuntime().run(small_spec(name, 4));
    EXPECT_TRUE(rep.ok) << name << ": " << rep.unfinished.size()
                        << " unfinished";
    EXPECT_TRUE(rep.unfinished.empty());
    EXPECT_FALSE(rep.outputs.empty());
  }
}

// ----------------------------------------------------------- netem plane

TEST(UdpRuntimeSuite, EveryAdversaryFormRunsThroughTheShim) {
  for (const char* adversary : {"random-delay:2000", "targeted-lag:1:5000",
                                "partition:1:20000", "burst:20000"}) {
    SCOPED_TRACE(adversary);
    ScenarioSpec spec = small_spec("rbc", 4);
    spec.adversary = scenario::parse_adversary(adversary);
    const auto rep = UdpRuntime().run(spec);
    EXPECT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
  }
}

TEST(UdpRuntimeSuite, AgreementUnderLoss) {
  // The acceptance gate: every registered protocol terminates with the shim
  // dropping datagrams — the selective-repeat ARQ absorbs the loss. 1% is
  // the paper-realistic WAN rate; 5% forces multi-round recovery.
  for (const auto& name : ProtocolRegistry::global().names()) {
    for (const double loss : {0.01, 0.05}) {
      SCOPED_TRACE(name + " @ loss=" + std::to_string(loss));
      ScenarioSpec spec = small_spec(name, 4);
      spec.params["loss"] = loss;
      spec.params["timeout-ms"] = 60'000;
      const auto rep = UdpRuntime().run(spec);
      EXPECT_TRUE(rep.ok) << name << " @ " << loss << ": "
                          << rep.unfinished.size() << " unfinished";
      EXPECT_FALSE(rep.outputs.empty());
    }
  }
}

TEST(UdpRuntimeSuite, BurstLossAndRateShapingStillTerminate) {
  ScenarioSpec spec = small_spec("dolev", 4);
  spec.params["rounds"] = 3;
  spec.params["loss"] = 0.05;
  spec.params["loss-burst"] = 4;
  spec.params["rate-kbps"] = 4'000;
  spec.params["rto-ms"] = 10;
  spec.params["timeout-ms"] = 60'000;
  const auto rep = UdpRuntime().run(spec);
  EXPECT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
}

// ---------------------------------------------------------------- packing

TEST(UdpRuntimeSuite, PackingSendsFewerDatagramsThanFrames) {
  // Delphi's echoes are many small frames. Every record due for a peer in
  // one flush shares an MTU-sized datagram, so the wire datagrams — acks
  // and any retransmissions included — must undercount the logical frames.
  // One frame per datagram would send at least one datagram per frame.
  ScenarioSpec spec = small_spec("delphi", 4);
  spec.instances = 16;
  const auto rep = UdpRuntime().run(spec);
  ASSERT_TRUE(rep.ok) << rep.unfinished.size() << " unfinished";
  std::uint64_t frames = 0;
  std::uint64_t datagrams = 0;
  for (const auto& nc : rep.nodes) {
    frames += nc.msgs_sent;
    datagrams += nc.datagrams_sent;
  }
  EXPECT_GT(datagrams, 0u);
  EXPECT_LT(datagrams, frames);
}

}  // namespace
}  // namespace delphi::transport
