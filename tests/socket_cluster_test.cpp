/// The socket-cluster core (transport/cluster.hpp) on both of its links: one
/// typed suite runs every case on TcpCluster and on UdpMesh.
///   * wait() gives up at the deadline and names the nodes that never
///     terminated; Context::now() counts from the cluster's start;
///   * a node that dies in on_start is named, with its cause, by failures(),
///     and wait() returns well before the deadline;
///   * stopping while a RestartableProtocol node is dark leaves protocol(i)
///     as the instance restored from its snapshot;
///   * malformed shared options are a ConfigError at construction.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "sim/byzantine.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace delphi::transport {
namespace {

Decoder no_decoder() {
  return [](std::uint32_t, ByteReader&) -> net::MessagePtr {
    throw SerializationError("no messages expected");
  };
}

/// Never terminates and never sends; remembers when it started.
class Stuck final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override { started_at_ = ctx.now(); }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return false; }

  SimTime started_at() const { return started_at_; }

 private:
  SimTime started_at_ = -1;
};

/// Dies during startup.
class Exploder final : public net::Protocol {
 public:
  void on_start(net::Context&) override {
    throw Error("exploding on purpose (test fixture)");
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return false; }
};

/// Records a value at start; a restored instance says so and carries the
/// snapshotted value, a factory-fresh one has neither.
class Checkpointed final : public net::Protocol,
                           public net::RestartableProtocol {
 public:
  void on_start(net::Context& ctx) override { value_ = 100 + ctx.self(); }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return false; }
  void snapshot(ByteWriter& w) const override { w.u64(value_); }
  void restore(ByteReader& r) override {
    value_ = r.u64();
    restored_ = true;
  }

  std::uint64_t value() const { return value_; }
  bool restored() const { return restored_; }

 private:
  std::uint64_t value_ = 0;
  bool restored_ = false;
};

template <typename Cluster>
class SocketClusterCore : public ::testing::Test {};

struct LinkName {
  template <typename Cluster>
  static std::string GetName(int) {
    return std::is_same_v<Cluster, TcpCluster> ? "Tcp" : "Udp";
  }
};

using Links = ::testing::Types<TcpCluster, UdpMesh>;
TYPED_TEST_SUITE(SocketClusterCore, Links, LinkName);

TYPED_TEST(SocketClusterCore, WaitTimesOutAndNamesUnfinishedNodes) {
  typename TypeParam::Options opts;
  opts.n = 4;
  opts.timeout_ms = 1'000;
  TypeParam cluster(opts);
  const auto begin = std::chrono::steady_clock::now();
  cluster.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 1 || i == 3) return std::make_unique<Stuck>();
        return std::make_unique<sim::SilentProtocol>();
      },
      no_decoder());
  EXPECT_FALSE(cluster.wait());
  const auto waited_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  EXPECT_EQ(cluster.unfinished(), (std::vector<NodeId>{1, 3}));
  EXPECT_TRUE(cluster.failures().empty());
  // µs since the cluster's epoch, which start() takes after `begin`.
  for (NodeId i : {1u, 3u}) {
    const auto& p = dynamic_cast<const Stuck&>(cluster.protocol(i));
    EXPECT_GE(p.started_at(), 0) << "node " << i;
    EXPECT_LE(p.started_at(), waited_us) << "node " << i;
  }
}

TYPED_TEST(SocketClusterCore, StartupDeathIsNamedAndFailsFast) {
  typename TypeParam::Options opts;
  opts.n = 4;
  opts.timeout_ms = 20'000;
  TypeParam cluster(opts);
  const auto begin = std::chrono::steady_clock::now();
  cluster.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 2) return std::make_unique<Exploder>();
        return std::make_unique<sim::SilentProtocol>();
      },
      no_decoder());
  EXPECT_FALSE(cluster.wait());
  const auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(waited, std::chrono::seconds(5));
  ASSERT_EQ(cluster.failures().size(), 1u);
  EXPECT_EQ(cluster.failures()[0].id, 2u);
  EXPECT_NE(cluster.failures()[0].message.find("exploding on purpose"),
            std::string::npos)
      << cluster.failures()[0].message;
  EXPECT_EQ(cluster.unfinished(), (std::vector<NodeId>{2}));
}

TYPED_TEST(SocketClusterCore, StopWhileDarkRestoresFromSnapshot) {
  // Node 0 goes dark as soon as its event loop runs and stays dark past the
  // deadline, so the stop finds it holding only its snapshot.
  typename TypeParam::Options opts;
  opts.n = 2;
  opts.timeout_ms = 1'000;
  opts.churn = {{0, 0, 600'000'000}};
  TypeParam cluster(opts);
  cluster.start(
      [](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == 0) return std::make_unique<Checkpointed>();
        return std::make_unique<sim::SilentProtocol>();
      },
      no_decoder());
  EXPECT_FALSE(cluster.wait());
  EXPECT_EQ(cluster.unfinished(), (std::vector<NodeId>{0}));
  EXPECT_TRUE(cluster.failures().empty());
  const auto& p = dynamic_cast<const Checkpointed&>(cluster.protocol(0));
  EXPECT_TRUE(p.restored());
  EXPECT_EQ(p.value(), 100u);
}

TYPED_TEST(SocketClusterCore, RejectsMalformedOptions) {
  typename TypeParam::Options zero;
  zero.n = 0;
  EXPECT_THROW(TypeParam{zero}, ConfigError);

  typename TypeParam::Options bad_id;
  bad_id.n = 4;
  bad_id.churn = {{4, 0, 1'000}};
  EXPECT_THROW(TypeParam{bad_id}, ConfigError);

  typename TypeParam::Options empty_window;
  empty_window.n = 4;
  empty_window.churn = {{1, 5'000, 5'000}};
  EXPECT_THROW(TypeParam{empty_window}, ConfigError);
}

}  // namespace
}  // namespace delphi::transport
