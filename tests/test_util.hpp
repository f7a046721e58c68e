#pragma once
/// Shared helpers for the test suite: simulation config builders, input
/// generators, protocol-specific Byzantine strategies used across files, and
/// a numbered-send fixture for exactly-once checks on the socket links.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "binaa/message.hpp"
#include "net/protocol.hpp"
#include "rbc/rbc.hpp"
#include "sim/byzantine.hpp"
#include "sim/simulator.hpp"

namespace delphi::test {

/// Simulation config with aggressive-but-benign asynchrony (wide latency
/// spread) — the default environment for correctness tests.
inline sim::SimConfig async_config(std::size_t n, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = std::make_shared<sim::UniformLatency>(100, 20'000);
  return cfg;
}

/// Same but with a random-extra-delay network adversary stacked on top.
inline sim::SimConfig adversarial_config(std::size_t n, std::uint64_t seed,
                                         SimTime extra = 50'000) {
  auto cfg = async_config(n, seed);
  cfg.adversary = std::make_shared<sim::RandomDelayAdversary>(extra);
  return cfg;
}

/// Range (max - min) of a vector.
inline double spread(const std::vector<double>& xs) {
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  return *mx - *mn;
}

/// Byzantine BinAA node that equivocates: ECHO1(0) to even nodes and
/// ECHO1(scale) to odd nodes in every round it hears about, plus conflicting
/// ECHO2s — the classic split-the-vote attack on echo protocols.
class BinAaEquivocator final : public net::Protocol {
 public:
  BinAaEquivocator(std::uint32_t r_max, std::uint32_t channel)
      : r_max_(r_max), channel_(channel) {}

  void on_start(net::Context& ctx) override { spray(ctx, 1); }

  void on_message(net::Context& ctx, NodeId, std::uint32_t,
                  const net::MessageBody& body) override {
    if (const auto* echo = dynamic_cast<const binaa::EchoMessage*>(&body)) {
      spray(ctx, echo->round());
    }
  }

  bool terminated() const override { return true; }

 private:
  void spray(net::Context& ctx, std::uint32_t round) {
    if (round > r_max_ || sprayed_round_ >= round) return;
    sprayed_round_ = round;
    const binaa::ScaledValue scale = binaa::ScaledValue{1} << r_max_;
    for (NodeId to = 0; to < ctx.n(); ++to) {
      const binaa::ScaledValue v = (to % 2 == 0) ? 0 : scale;
      ctx.send(to, channel_,
               std::make_shared<binaa::EchoMessage>(1, round, v));
      ctx.send(to, channel_,
               std::make_shared<binaa::EchoMessage>(2, round, scale - v));
    }
  }

  std::uint32_t r_max_;
  std::uint32_t channel_;
  std::uint32_t sprayed_round_ = 0;
};

/// Byzantine RBC broadcaster that sends different SEND payloads to the two
/// halves of the system (equivocation), then echoes both.
class RbcEquivocator final : public net::Protocol {
 public:
  RbcEquivocator(std::uint32_t channel, std::vector<std::uint8_t> a,
                 std::vector<std::uint8_t> b)
      : channel_(channel), a_(std::move(a)), b_(std::move(b)) {}

  void on_start(net::Context& ctx) override {
    for (NodeId to = 0; to < ctx.n(); ++to) {
      const auto& payload = (to < ctx.n() / 2) ? a_ : b_;
      ctx.send(to, channel_,
               std::make_shared<rbc::RbcMessage>(rbc::RbcMessage::Kind::kSend,
                                                 payload));
      ctx.send(to, channel_,
               std::make_shared<rbc::RbcMessage>(rbc::RbcMessage::Kind::kEcho,
                                                 payload));
    }
  }

  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }

 private:
  std::uint32_t channel_;
  std::vector<std::uint8_t> a_, b_;
};

/// A u32 sequence number: the payload of NumberedSends.
class SeqMsg final : public net::MessageBody {
 public:
  explicit SeqMsg(std::uint32_t seq) : seq_(seq) {}
  std::size_t wire_size() const override { return 4; }
  void serialize(ByteWriter& w) const override { w.u32(seq_); }
  std::string debug() const override { return "seq"; }
  std::uint32_t seq() const { return seq_; }
  static net::MessagePtr decode(ByteReader& r) {
    return std::make_shared<SeqMsg>(r.u32());
  }

 private:
  std::uint32_t seq_;
};

/// Node 0 sends frames numbered 0..total-1 to node 1 at start and is then
/// done; node 1 counts how often each number arrives and is done once
/// `want` distinct numbers have.
class NumberedSends final : public net::Protocol {
 public:
  NumberedSends(std::uint32_t total, std::uint32_t want)
      : hits_(total, 0), want_(want) {}
  void on_start(net::Context& ctx) override {
    if (ctx.self() != 0) return;
    for (std::uint32_t s = 0; s < hits_.size(); ++s) {
      ctx.send(1, 0, std::make_shared<SeqMsg>(s));
    }
    sender_ = true;
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody& body) override {
    if (hits_[static_cast<const SeqMsg&>(body).seq()]++ == 0) ++distinct_;
  }
  bool terminated() const override { return sender_ || distinct_ == want_; }
  const std::vector<std::uint32_t>& hits() const { return hits_; }

 private:
  std::vector<std::uint32_t> hits_;
  std::uint32_t want_;
  std::uint32_t distinct_ = 0;
  bool sender_ = false;
};

}  // namespace delphi::test
