/// Active-attacker tests against a live TCP cluster: keyless sockets racing
/// the mesh bring-up with garbage hellos, forged node-id claims, and junk
/// frames. The authenticated hello (pairwise HMAC) must keep every
/// legitimate link intact and the protocol run unaffected.
///
/// A second attacker holds a genuine pairwise key (a Byzantine peer, the
/// strongest one the handshake admits) and lies with it about the link's
/// frame counts: a hello or ack claiming frames never sent is refused and
/// closes the link without pruning the replay log, a stale ack prunes
/// nothing, and a forged-MAC or wrongly sized ack closes the link as a
/// malformed frame. Protocols cannot send on the reserved ack channel.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/error.hpp"

#include "dolev/dolev.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"
#include "transport/decoders.hpp"
#include "transport/tcp.hpp"
#include "tests/test_util.hpp"

namespace delphi::transport {
namespace {

/// Fire-and-forget raw bytes at 127.0.0.1:port (connect failures ignored —
/// the attacker may lose the race entirely, which is also a pass).
void poke(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    (void)!::write(fd, bytes.data(), bytes.size());
    // Linger briefly so the victim actually reads the bytes.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::close(fd);
}

/// A well-formed hello (magic | id | u64 receive count) whose tag an
/// attacker without the pairwise key can only guess.
std::vector<std::uint8_t> forged_hello(NodeId claimed_id, bool with_tag) {
  ByteWriter w;
  w.u32(0x44504849);  // correct magic
  w.u32(claimed_id);
  w.u64(0);  // receive count: nothing received yet
  if (with_tag) {
    // An attacker without the pairwise key can only guess the tag.
    for (std::size_t i = 0; i < crypto::kMacTagSize; ++i) w.u8(0x99);
  }
  return w.take();
}

TEST(TcpAttack, ClusterSurvivesHelloForgeryAndGarbage) {
  const std::size_t n = 6;
  dolev::DolevProtocol::Config cfg;
  cfg.n = n;
  cfg.t = 1;
  cfg.rounds = 6;
  std::vector<double> inputs = {10.0, 11.0, 12.0, 13.0, 14.0, 15.0};

  TcpCluster::Options opts;
  opts.n = n;
  opts.auth = true;
  opts.timeout_ms = 30'000;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(cfg, inputs[i]);
      },
      decoders::dolev());

  // Race the bring-up: against every node, claim the highest id with a
  // forged tag, claim an out-of-range id, and send plain garbage.
  std::vector<std::thread> attackers;
  for (NodeId i = 0; i < n; ++i) {
    const std::uint16_t port = cluster.port(i);
    attackers.emplace_back([port] {
      poke(port, forged_hello(5, /*with_tag=*/true));
      poke(port, forged_hello(99, /*with_tag=*/true));
      poke(port, {0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01, 0x02, 0x03});
    });
  }
  for (auto& t : attackers) t.join();

  ASSERT_TRUE(cluster.wait());
  std::vector<double> outputs;
  for (NodeId i = 0; i < n; ++i) {
    const auto& p =
        dynamic_cast<const dolev::DolevProtocol&>(cluster.protocol(i));
    ASSERT_TRUE(p.output_value().has_value());
    outputs.push_back(*p.output_value());
  }
  // Strict convex validity despite the attack: the attacker never obtained
  // a link, so the honest run is untouched.
  for (double o : outputs) {
    EXPECT_GE(o, 10.0);
    EXPECT_LE(o, 15.0);
  }
  EXPECT_LE(test::spread(outputs), 5.0 / 64.0 + 1e-12);
}

TEST(TcpAttack, SlowLorisHelloDoesNotBlockTheMesh) {
  // An attacker that connects and sends *half* a hello, then stalls: the
  // accept loop must keep servicing genuine peers around it.
  const std::size_t kStalledConns = 4;
  dolev::DolevProtocol::Config cfg;
  cfg.n = 6;
  cfg.t = 1;
  cfg.rounds = 3;

  TcpCluster::Options opts;
  opts.n = 6;
  opts.auth = true;
  opts.timeout_ms = 30'000;
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId i) {
        return std::make_unique<dolev::DolevProtocol>(cfg, 100.0 + i);
      },
      decoders::dolev());

  std::vector<int> stalled;
  for (NodeId i = 0; i < kStalledConns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cluster.port(i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const std::uint8_t half[4] = {0x49, 0x48, 0x50, 0x44};
      (void)!::write(fd, half, sizeof(half));
      stalled.push_back(fd);  // never completed; held open
    } else {
      ::close(fd);
    }
  }

  EXPECT_TRUE(cluster.wait());
  for (int fd : stalled) ::close(fd);
}

TEST(TcpAttack, FaultedTcpRunsStillTerminate) {
  // Declarative-fault stress on the real data plane: crash-silent top ids,
  // garbage-spraying and crash-after Byzantine nodes. Honest nodes must
  // terminate (garbage frames are dropped as malformed, dead links are
  // closed, the event loops must not wedge on either).
  struct Case {
    const char* protocol;
    std::size_t n;
    std::size_t crashes;
    const char* byzantine;
  };
  // Fault budgets stay within each protocol's resilience: delphi tolerates
  // t = (n-1)/3 (n = 7 → 2 faults), dolev t = (n-1)/5, rbc t = (n-1)/3.
  const std::vector<Case> cases = {
      {"delphi", 7, 1, "garbage:48:1"},
      {"dolev", 6, 0, "crash-after:10:1"},
      {"rbc", 5, 1, "none"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.protocol);
    scenario::ScenarioSpec spec;
    spec.protocol = c.protocol;
    spec.substrate = scenario::Substrate::kTcp;
    spec.n = c.n;
    spec.seed = 13;
    spec.crashes = c.crashes;
    spec.byzantine = scenario::parse_byzantine(c.byzantine);
    if (spec.protocol == std::string("dolev")) spec.params["rounds"] = 6;
    const auto rep = scenario::TcpRuntime().run(spec);
    EXPECT_TRUE(rep.ok) << "unfinished honest nodes: " << rep.unfinished.size();
    EXPECT_TRUE(rep.unfinished.empty());
    const std::size_t faulted = c.crashes + spec.byzantine.k;
    EXPECT_EQ(rep.outputs.size(), c.n - faulted);
  }
}

// ------------------------------------------------- keyed lies about counts

Decoder seq_decoder() {
  return [](std::uint32_t, ByteReader& r) { return test::SeqMsg::decode(r); };
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Bytes read before `fd` went quiet for `quiet_ms` or the peer closed it;
/// `closed` says which.
std::vector<std::uint8_t> read_until_quiet(int fd, int quiet_ms,
                                           bool& closed) {
  std::vector<std::uint8_t> out;
  closed = false;
  while (true) {
    pollfd pf{fd, POLLIN, 0};
    if (::poll(&pf, 1, quiet_ms) <= 0) return out;
    std::uint8_t buf[4096];
    const ssize_t k = ::read(fd, buf, sizeof(buf));
    if (k <= 0) {
      closed = true;
      return out;
    }
    out.insert(out.end(), buf, buf + k);
  }
}

/// Node 1's side of the link to node 0, driven by hand with node 1's real
/// pairwise key while node 1 itself is dark.
class KeyedImpostor {
 public:
  KeyedImpostor(const crypto::KeyStore& keys, std::uint16_t port)
      : key_(keys.channel_key(1, 0)), mac_(key_), port_(port) {}
  ~KeyedImpostor() { hang_up(); }

  /// Dial node 0 and send a hello claiming `recv_count` received frames.
  /// Returns whether node 0 replied with its own valid hello; `replayed`
  /// collects the numbers of the frames node 0 then replays.
  bool handshake(std::uint64_t recv_count,
                 std::vector<std::uint32_t>& replayed) {
    hang_up();
    fd_ = dial(port_);
    const auto hello = encode_hello(1, recv_count, &key_);
    EXPECT_EQ(::write(fd_, hello.data(), hello.size()),
              static_cast<ssize_t>(hello.size()));
    bool closed = false;
    const auto bytes = read_until_quiet(fd_, 300, closed);
    const std::size_t hs = hello_size(true);
    if (bytes.size() < hs) return false;
    const std::vector<std::uint8_t> reply(bytes.begin(), bytes.begin() + hs);
    EXPECT_EQ(reply, encode_hello(0, 0, &key_));  // node 0 heard nothing
    FrameParser parser(&mac_);
    parser.feed(std::span(bytes).subspan(hs));
    while (const auto f = parser.next()) {
      ByteReader r(f->payload);
      replayed.push_back(r.u32());
    }
    return !closed;
  }

  /// Send one frame on the ack channel; with `forge` its tag is wrong.
  void send_ack_frame(std::span<const std::uint8_t> payload, bool forge) {
    auto frame = encode_frame(kAckChannel, payload, &mac_);
    if (forge) frame.back() ^= 0x01;
    EXPECT_EQ(::write(fd_, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
  }
  void send_ack(std::uint64_t count, bool forge = false) {
    ByteWriter w;
    w.u64(count);
    send_ack_frame(w.data(), forge);
  }

  /// Did node 0 close the link within `ms`?
  bool closed_within(int ms) {
    bool closed = false;
    EXPECT_TRUE(read_until_quiet(fd_, ms, closed).empty());
    return closed;
  }

 private:
  void hang_up() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  crypto::Key key_;
  crypto::HmacKey mac_;
  std::uint16_t port_;
  int fd_ = -1;
};

std::vector<std::uint32_t> range(std::uint32_t from, std::uint32_t to) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t s = from; s < to; ++s) v.push_back(s);
  return v;
}

TEST(TcpAttack, KeyedPeerCannotLieAboutFrameCounts) {
  // Node 1 goes dark right after bring-up, before reading anything, so all
  // kFrames of node 0's frames sit in node 0's replay log. The impostor
  // speaks for node 1 with its real key until node 1 rejoins at 3 s.
  constexpr std::uint32_t kFrames = 20;
  TcpCluster::Options opts;
  opts.n = 2;
  opts.seed = 21;
  opts.timeout_ms = 20'000;
  opts.churn = {{1, 0, 3'000'000}};
  TcpCluster cluster(opts);
  cluster.start(
      [&](NodeId) {
        return std::make_unique<test::NumberedSends>(kFrames, kFrames - 5);
      },
      seq_decoder());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const crypto::KeyStore keys(opts.seed, opts.n);
  KeyedImpostor peer(keys, cluster.port(0));
  std::vector<std::uint32_t> replayed;

  // A hello claiming more frames than node 0 ever sent is refused: no
  // reply, link closed.
  EXPECT_FALSE(peer.handshake(kFrames + 1, replayed));
  EXPECT_TRUE(replayed.empty());
  EXPECT_TRUE(peer.closed_within(500));

  // An honest-looking hello gets the whole log replayed.
  ASSERT_TRUE(peer.handshake(0, replayed));
  EXPECT_EQ(replayed, range(0, kFrames));
  peer.send_ack(5);            // prunes frames 0..4
  peer.send_ack(3);            // stale: below the log start
  EXPECT_FALSE(peer.closed_within(200));
  peer.send_ack(kFrames + 1);  // beyond the frames sent
  EXPECT_TRUE(peer.closed_within(2'000));

  // The replay proves what the acks did to the log: 5 pruned it, 3 pruned
  // nothing, kFrames + 1 pruned nothing past the end.
  replayed.clear();
  ASSERT_TRUE(peer.handshake(0, replayed));
  EXPECT_EQ(replayed, range(5, kFrames));
  peer.send_ack(7, /*forge=*/true);  // an in-range count, broken MAC
  EXPECT_TRUE(peer.closed_within(2'000));

  for (const std::size_t len : {7u, 9u}) {
    replayed.clear();
    ASSERT_TRUE(peer.handshake(0, replayed));
    EXPECT_EQ(replayed, range(5, kFrames));
    peer.send_ack_frame(std::vector<std::uint8_t>(len, 0), /*forge=*/false);
    EXPECT_TRUE(peer.closed_within(2'000)) << len << "-byte ack payload";
  }

  // Node 1 rejoins, says it holds nothing, and gets exactly the log.
  ASSERT_TRUE(cluster.wait());
  const auto& rx =
      dynamic_cast<const test::NumberedSends&>(cluster.protocol(1));
  for (std::uint32_t s = 0; s < kFrames; ++s) {
    EXPECT_EQ(rx.hits()[s], s < 5 ? 0u : 1u) << "frame " << s;
  }
  // Over-range ack, forged ack, short ack, long ack.
  EXPECT_EQ(cluster.metrics(0).malformed_dropped, 4u);
}

/// Tries the reserved ack channel through both send paths and records
/// whether each was refused with a ConfigError.
class ReservedChannelSender final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override {
    const NodeId peer = ctx.self() == 0 ? 1 : 0;
    try {
      ctx.send(peer, kAckChannel, std::make_shared<test::SeqMsg>(1));
    } catch (const ConfigError&) {
      send_refused_ = true;
    }
    try {
      ctx.broadcast(kAckChannel, std::make_shared<test::SeqMsg>(2));
    } catch (const ConfigError&) {
      broadcast_refused_ = true;
    }
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {}
  bool terminated() const override { return true; }
  bool send_refused_ = false;
  bool broadcast_refused_ = false;
};

TEST(TcpAttack, ProtocolSendOnTheAckChannelIsATypedError) {
  TcpCluster::Options opts;
  opts.n = 2;
  opts.timeout_ms = 20'000;
  TcpCluster cluster(opts);
  cluster.start(
      [](NodeId) { return std::make_unique<ReservedChannelSender>(); },
      seq_decoder());
  ASSERT_TRUE(cluster.wait());
  for (NodeId i = 0; i < 2; ++i) {
    const auto& p =
        dynamic_cast<const ReservedChannelSender&>(cluster.protocol(i));
    EXPECT_TRUE(p.send_refused_);
    EXPECT_TRUE(p.broadcast_refused_);
    EXPECT_EQ(cluster.metrics(i).msgs_sent, 0u);
    EXPECT_EQ(cluster.metrics(i).msgs_delivered, 0u);
  }
}

}  // namespace
}  // namespace delphi::transport
