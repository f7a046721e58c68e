/// Tests for the TCP transport: frame codec (roundtrip, incremental parsing,
/// tamper/garbage rejection), cluster mesh bring-up, protocol correctness
/// over real sockets (BinAA, Dolev, Abraham, Delphi, VectorDelphi), byte-
/// accounting parity with the simulator, fault tolerance, and timeout paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "binaa/protocol.hpp"
#include "delphi/delphi.hpp"
#include "dolev/dolev.hpp"
#include "multidim/vector_delphi.hpp"
#include "scenario/runtime.hpp"
#include "sim/byzantine.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi::transport {
namespace {

crypto::Key test_key(std::uint8_t fill) {
  crypto::Key k{};
  k.fill(fill);
  return k;
}

// -------------------------------------------------------------- frame codec

TEST(Frame, RoundTripAuthenticated) {
  const auto key = test_key(7);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame = encode_frame(42, payload, &key);
  EXPECT_EQ(frame.size(), net::framed_size(payload.size(), 42, true));

  FrameParser parser(&key);
  parser.feed(frame);
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->channel, 42u);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Frame, RoundTripUnauthenticated) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto frame = encode_frame(3, payload, nullptr);
  EXPECT_EQ(frame.size(), net::framed_size(payload.size(), 3, false));
  FrameParser parser(nullptr);
  parser.feed(frame);
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, payload);
}

TEST(Frame, IncrementalByteByByte) {
  const auto key = test_key(1);
  const std::vector<std::uint8_t> payload(100, 0xAB);
  const auto frame = encode_frame(7, payload, &key);
  FrameParser parser(&key);
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    parser.feed(std::span<const std::uint8_t>(&frame[i], 1));
    EXPECT_FALSE(parser.next().has_value());
  }
  parser.feed(std::span<const std::uint8_t>(&frame.back(), 1));
  auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, payload);
}

TEST(Frame, MultipleFramesOneFeed) {
  const auto key = test_key(2);
  std::vector<std::uint8_t> stream;
  for (std::uint32_t c = 0; c < 5; ++c) {
    const std::vector<std::uint8_t> payload(c + 1, static_cast<std::uint8_t>(c));
    const auto frame = encode_frame(c, payload, &key);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameParser parser(&key);
  parser.feed(stream);
  for (std::uint32_t c = 0; c < 5; ++c) {
    auto f = parser.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->channel, c);
    EXPECT_EQ(f->payload.size(), c + 1);
  }
  EXPECT_FALSE(parser.next().has_value());
}

TEST(Frame, TamperedPayloadRejected) {
  const auto key = test_key(3);
  const std::vector<std::uint8_t> payload = {10, 20, 30};
  auto frame = encode_frame(1, payload, &key);
  frame[6] ^= 0x01;  // flip a payload bit
  FrameParser parser(&key);
  parser.feed(frame);
  EXPECT_THROW(parser.next(), ProtocolViolation);
}

TEST(Frame, WrongKeyRejected) {
  const auto k1 = test_key(4);
  const auto k2 = test_key(5);
  const std::vector<std::uint8_t> payload = {1};
  const auto frame = encode_frame(0, payload, &k1);
  FrameParser parser(&k2);
  parser.feed(frame);
  EXPECT_THROW(parser.next(), ProtocolViolation);
}

TEST(Frame, OversizedPrefixRejected) {
  ByteWriter w;
  w.u32(kMaxFrameBytes + 1);
  FrameParser parser(nullptr);
  parser.feed(w.data());
  EXPECT_THROW(parser.next(), SerializationError);
}

TEST(Frame, TruncatedBodyRejected) {
  // Authenticated frame whose body is shorter than a MAC tag.
  const auto key = test_key(6);
  ByteWriter w;
  w.u32(3);
  w.u8(0);  // channel
  w.u8(1);
  w.u8(2);
  FrameParser parser(&key);
  parser.feed(w.data());
  EXPECT_THROW(parser.next(), SerializationError);
}

// ----------------------------------------------------------- cluster basics

protocol::DelphiParams tcp_params() {
  protocol::DelphiParams p;
  p.space_min = 0.0;
  p.space_max = 1000.0;
  p.rho0 = 1.0;
  p.eps = 1.0;
  p.delta_max = 32.0;
  return p;
}

TEST(TcpCluster, PortsResolvedAndDistinct) {
  TcpCluster::Options opts;
  opts.n = 4;
  TcpCluster cluster(opts);
  cluster.start(
      [](NodeId) { return std::make_unique<sim::SilentProtocol>(); },
      decoders::delphi());
  EXPECT_TRUE(cluster.wait());
  std::set<std::uint16_t> ports;
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GT(cluster.port(i), 0);
    ports.insert(cluster.port(i));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(TcpCluster, TimeoutOnNonTerminatingProtocol) {
  /// Never terminates and never sends — wait() must give up.
  class Stuck final : public net::Protocol {
   public:
    void on_start(net::Context&) override {}
    void on_message(net::Context&, NodeId, std::uint32_t,
                    const net::MessageBody&) override {}
    bool terminated() const override { return false; }
  };
  TcpCluster::Options opts;
  opts.n = 2;
  opts.timeout_ms = 300;
  TcpCluster cluster(opts);
  cluster.start([](NodeId) { return std::make_unique<Stuck>(); },
                decoders::delphi());
  EXPECT_FALSE(cluster.wait());
}

// ----------------------------------------------------- protocols over TCP

TEST(TcpCluster, BinAaAgreementOverSockets) {
  const std::size_t n = 4;
  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        binaa::BinAaProtocol::Config c;
        c.core.n = n;
        c.core.t = max_faults(n);
        c.core.r_max = 10;
        return std::make_unique<binaa::BinAaProtocol>(c, i % 2 == 0);
      },
      decoders::binaa());
  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto* vo = dynamic_cast<const net::ValueOutput*>(&cluster.protocol(i));
    ASSERT_NE(vo, nullptr);
    ASSERT_TRUE(vo->output_value().has_value());
    outputs.push_back(*vo->output_value());
  }
  EXPECT_LE(test::spread(outputs), std::ldexp(1.0, -10) + 1e-12);
  for (double o : outputs) {
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

TEST(TcpCluster, DolevAgreementOverSockets) {
  const std::size_t n = 6;
  dolev::DolevProtocol::Config cfg;
  cfg.n = n;
  cfg.t = 1;
  cfg.rounds = 8;
  cfg.space_min = -1e6;
  cfg.space_max = 1e6;
  std::vector<double> inputs;
  Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(rng.uniform(0.0, 50.0));

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(cfg, inputs[i]);
      },
      decoders::dolev());
  ASSERT_TRUE(cluster.wait());

  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p = dynamic_cast<const dolev::DolevProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.output_value().has_value());
    outputs.push_back(*p.output_value());
  }
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  for (double o : outputs) {
    EXPECT_GE(o, *mn);
    EXPECT_LE(o, *mx);
  }
  EXPECT_LE(test::spread(outputs), 50.0 / 256.0);
}

TEST(TcpCluster, DolevByteAccountingMatchesSimulator) {
  // Dolev's traffic is schedule-independent (each node broadcasts exactly
  // `rounds` messages), so TCP bytes must equal the simulator's accounting.
  const std::size_t n = 6;
  dolev::DolevProtocol::Config cfg;
  cfg.n = n;
  cfg.t = 1;
  cfg.rounds = 5;
  std::vector<double> inputs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};

  TcpCluster::Options opts;
  opts.n = n;
  opts.auth = true;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(cfg, inputs[i]);
      },
      decoders::dolev());
  ASSERT_TRUE(cluster.wait());
  std::uint64_t tcp_bytes = 0;
  for (NodeId i = 0; i < n; ++i) tcp_bytes += cluster.metrics(i).bytes_sent;

  sim::SimConfig scfg = test::async_config(n, 5);
  scfg.auth_channels = true;
  auto outcome = scenario::SimRuntime().run(scfg, [&](NodeId i) {
    return std::make_unique<dolev::DolevProtocol>(cfg, inputs[i]);
  });
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(tcp_bytes, outcome.honest_bytes);
}

TEST(TcpCluster, DelphiAgreementOverSockets) {
  const std::size_t n = 4;
  const auto params = tcp_params();
  std::vector<double> inputs = {500.0, 501.5, 498.2, 503.0};

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = max_faults(n);
        c.params = params;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      },
      decoders::delphi());
  ASSERT_TRUE(cluster.wait());

  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p =
        dynamic_cast<const protocol::DelphiProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.output_value().has_value());
    outputs.push_back(*p.output_value());
  }
  const auto [mn, mx] = std::minmax_element(inputs.begin(), inputs.end());
  const double delta = *mx - *mn;
  const double relax = std::max(params.rho0, delta);
  EXPECT_LE(test::spread(outputs), params.eps);
  for (double o : outputs) {
    EXPECT_GE(o, *mn - relax - 1e-9);
    EXPECT_LE(o, *mx + relax + 1e-9);
  }
}

TEST(TcpCluster, DelphiToleratesSilentNode) {
  const std::size_t n = 4;
  const auto params = tcp_params();
  std::vector<double> inputs = {100.0, 101.0, 102.0, 0.0};

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) -> std::unique_ptr<net::Protocol> {
        if (i == n - 1) return std::make_unique<sim::SilentProtocol>();
        protocol::DelphiProtocol::Config c;
        c.n = n;
        c.t = 1;
        c.params = params;
        return std::make_unique<protocol::DelphiProtocol>(c, inputs[i]);
      },
      decoders::delphi());
  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i + 1 < n; ++i) {
    const auto& p =
        dynamic_cast<const protocol::DelphiProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.output_value().has_value());
    outputs.push_back(*p.output_value());
  }
  EXPECT_LE(test::spread(outputs), params.eps);
  for (double o : outputs) {
    EXPECT_GE(o, 100.0 - 2.0 - 1e-9);
    EXPECT_LE(o, 102.0 + 2.0 + 1e-9);
  }
}

TEST(TcpCluster, VectorDelphiOverSockets) {
  const std::size_t n = 4;
  auto cfg = multidim::VectorDelphiProtocol::Config::uniform(
      n, max_faults(n), tcp_params(), 2);
  std::vector<std::vector<double>> inputs = {
      {200.0, 800.0}, {201.0, 801.5}, {199.5, 799.0}, {202.0, 802.0}};

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<multidim::VectorDelphiProtocol>(cfg,
                                                                inputs[i]);
      },
      decoders::delphi());
  ASSERT_TRUE(cluster.wait());

  std::vector<std::vector<double>> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p = dynamic_cast<const multidim::VectorDelphiProtocol&>(
        cluster.protocol(i));
    ASSERT_TRUE(p.output_vector().has_value());
    outputs.push_back(*p.output_vector());
  }
  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<double> coord;
    for (const auto& v : outputs) coord.push_back(v[c]);
    EXPECT_LE(test::spread(coord), 1.0) << "coord " << c;
  }
}

TEST(TcpCluster, AbrahamOverSockets) {
  const std::size_t n = 4;
  abraham::AbrahamProtocol::Config cfg;
  cfg.n = n;
  cfg.t = max_faults(n);
  cfg.rounds = 6;
  cfg.space_min = -1e6;
  cfg.space_max = 1e6;
  std::vector<double> inputs = {10.0, 12.0, 11.0, 13.0};

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<abraham::AbrahamProtocol>(cfg, inputs[i]);
      },
      decoders::abraham(n));
  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p =
        dynamic_cast<const abraham::AbrahamProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.output_value().has_value());
    outputs.push_back(*p.output_value());
  }
  for (double o : outputs) {
    EXPECT_GE(o, 10.0);
    EXPECT_LE(o, 13.0);
  }
  EXPECT_LE(test::spread(outputs), 3.0 / 64.0 + 1e-12);
}

TEST(TcpCluster, DoraEndToEndOverSockets) {
  // The full §V oracle pipeline over real sockets: Delphi agreement,
  // rounding, attestation shares, t+1 certificates at every node, at most
  // two distinct certified values (Table III).
  const std::size_t n = 4;
  const auto params = tcp_params();
  std::vector<double> inputs = {40010.0, 40012.5, 40011.2, 40013.8};
  crypto::KeyStore keys(/*master=*/99, n);
  crypto::Attestor attestor(keys, /*session_id=*/7);

  TcpCluster::Options opts;
  opts.n = n;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        oracle::DoraProtocol::Config c;
        c.delphi.n = n;
        c.delphi.t = max_faults(n);
        c.delphi.params = params;
        c.delphi.params.space_max = 100'000.0;
        c.delphi.params.delta_max = 64.0;
        c.attestor = &attestor;
        return std::make_unique<oracle::DoraProtocol>(c, inputs[i]);
      },
      decoders::dora());
  ASSERT_TRUE(cluster.wait());

  std::set<std::int64_t> certified_values;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p =
        dynamic_cast<const oracle::DoraProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.terminated());
    const auto& cert = p.certificate();
    EXPECT_TRUE(attestor.verify(cert, max_faults(n) + 1));
    certified_values.insert(cert.value_index);
  }
  EXPECT_LE(certified_values.size(), 2u);  // Table III: at most two outputs
}

TEST(TcpCluster, UnauthenticatedModeWorks) {
  const std::size_t n = 4;
  TcpCluster::Options opts;
  opts.n = n;
  opts.auth = false;
  dolev::DolevProtocol::Config cfg;
  cfg.n = 6;
  cfg.t = 1;
  cfg.rounds = 3;
  // n = 6 protocol over 6 transport nodes.
  opts.n = 6;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(cfg, double(i));
      },
      decoders::dolev());
  ASSERT_TRUE(cluster.wait());
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(cluster.metrics(i).malformed_dropped, 0u);
  }
}

}  // namespace
}  // namespace delphi::transport
