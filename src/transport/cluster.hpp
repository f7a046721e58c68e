#pragma once
/// \file cluster.hpp
/// The socket-cluster core shared by the TCP and UDP substrates: n nodes on
/// 127.0.0.1, one OS thread each, every node's protocol strictly
/// single-threaded (the Protocol contract).
///
/// The core owns everything that does not depend on the link: node threads
/// and the done wakeup, wait() with its fail-fast rule and failure
/// attribution, the observer accessors, each node's net::Context side
/// (loopback queue, dispatch, termination signalling, rng, the shared µs
/// clock), and the churn clock with RestartableProtocol snapshot/restore.
/// TcpCluster (transport/tcp.hpp) and UdpMesh (transport/udp.hpp) supply
/// only their link I/O: how a node's socket is bound, how a frame is queued
/// and carried, and what a node closes and reopens when it goes dark.
///
/// Usage (either link):
///   TcpCluster cluster(opts);
///   cluster.start(factory, decoder);   // binds sockets, spawns threads
///   bool ok = cluster.wait();          // all honest protocols terminated?
///   auto& p = cluster.protocol(i);     // read outputs (after wait())
///
/// Typed message bodies are recovered from payload bytes by a per-deployment
/// `Decoder` (see transport/decoders.hpp for the standard protocol suites).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/netem.hpp"
#include "net/protocol.hpp"
#include "net/wakeup.hpp"
#include "transport/frame.hpp"

namespace delphi::transport {

/// Recovers a typed message from payload bytes arriving on `channel`.
/// Throws SerializationError / ProtocolViolation on malformed input (the
/// transport counts and drops the frame).
using Decoder =
    std::function<net::MessagePtr(std::uint32_t channel, ByteReader& r)>;

/// Per-node transport counters (mirrors sim::NodeMetrics).
struct TransportMetrics {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< framed bytes, self-delivery excluded
  std::uint64_t msgs_delivered = 0;
  std::uint64_t malformed_dropped = 0;
  // Churn/recovery plane (all zero on churn-free runs):
  /// Successful link re-establishments this node took part in (dialer or
  /// acceptor side); UDP counts socket rebinds after a restart.
  std::uint64_t reconnects = 0;
  /// Catch-up traffic: frames replayed to a rejoining peer (TCP) /
  /// retransmitted datagrams (UDP). Transport recovery overhead — never part
  /// of bytes_sent, so cross-substrate honest-byte parity is unaffected.
  std::uint64_t catchup_frames = 0;
  std::uint64_t catchup_bytes = 0;
  /// Wall time this node spent dark across its restarts.
  std::uint64_t downtime_us = 0;
  /// Wire datagrams the kernel accepted from this node (UDP only: packed
  /// data, acks and retransmissions alike; TCP leaves it 0). Transport
  /// overhead — never part of bytes_sent.
  std::uint64_t datagrams_sent = 0;
};

/// One scheduled restart on a socket substrate: node `id` stops its event
/// loop and closes its sockets at `down_us` (µs since cluster start), then
/// rebinds its port and rejoins at `up_us`.
struct ChurnWindow {
  NodeId id = 0;
  std::int64_t down_us = 0;
  std::int64_t up_us = 0;
};

/// A node thread that died with an error: which node and why (exception
/// text, typically carrying errno). Recorded by the clusters' wait().
struct NodeFailure {
  NodeId id = 0;
  std::string message;

  bool operator==(const NodeFailure&) const = default;
};

/// The option fields every socket cluster takes; each link's Options
/// struct inherits them and adds its own.
struct ClusterOptions {
  std::size_t n = 4;
  /// HMAC-authenticate every frame (pairwise keys from `seed`).
  bool auth = true;
  /// Master secret / per-node RNG / netem schedule seed.
  std::uint64_t seed = 1;
  /// wait() gives up after this many milliseconds of wall time.
  std::int64_t timeout_ms = 30'000;
  /// Network emulation applied per directed link at the send boundary
  /// (inert by default).
  net::netem::Config netem;
  /// Restart schedule (wall µs since cluster start). A dark node closes its
  /// sockets and rebinds the same port at up_us; a RestartableProtocol is
  /// snapshotted at down and restored from the bytes at up.
  std::vector<ChurnWindow> churn;
};

class ClusterNode;
struct NodeArgs;

/// The cluster core. Not constructible on its own: TcpCluster and UdpMesh
/// derive from it and supply the link.
class SocketCluster {
 public:
  /// Shared factory alias from net/protocol.hpp (same type the simulator
  /// and the scenario runtimes consume).
  using ProtocolFactory = net::ProtocolFactory;

  virtual ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Bind every node's socket, create protocols, spawn node threads (each
  /// brings its links up, then starts its protocol). Call exactly once.
  void start(const ProtocolFactory& factory, Decoder decoder);

  /// Block until every node's protocol terminated or the timeout expires,
  /// then stop and join all threads. Returns true iff all terminated; on
  /// timeout, unfinished() names the nodes that had not.
  bool wait();

  /// Node ids whose protocols had not terminated when wait() gave up, in
  /// ascending order (empty iff wait() returned true). Only safe after
  /// wait() returned.
  const std::vector<NodeId>& unfinished() const;

  /// Nodes whose threads died with an error (exception text, typically
  /// carrying errno), in ascending id order. Only safe after wait()
  /// returned.
  const std::vector<NodeFailure>& failures() const;

  /// Node i's protocol. Only safe after wait() returned (threads joined).
  net::Protocol& protocol(NodeId id);

  /// Node i's transport counters. Only safe after wait() returned.
  const TransportMetrics& metrics(NodeId id) const;

  /// Resolved port of node i (set by start()).
  std::uint16_t port(NodeId id) const;

 protected:
  /// Throws ConfigError for n = 0 or a malformed churn window; `name`
  /// prefixes the message.
  SocketCluster(const ClusterOptions& opts, const char* name);

  /// Bind one node's socket on 127.0.0.1 with an OS-assigned port, which
  /// is written to `port`. Called for every node before any thread starts.
  virtual int bind_socket(std::uint16_t& port) = 0;

  /// Build one node around its bound socket.
  virtual std::unique_ptr<ClusterNode> make_node(NodeArgs args) = 0;

 private:
  /// Set the stop flag and wake every node's event loop (idempotent).
  void request_stop();

  const ClusterOptions opts_;
  crypto::KeyStore keys_;
  std::vector<std::uint16_t> ports_;
  /// Kept for the rebuilds of restarting nodes, and so that deployment
  /// state the factory owns outlives the protocols it built.
  ProtocolFactory factory_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<NodeId> unfinished_;
  std::vector<NodeFailure> failures_;
  std::atomic<bool> stop_{false};
  /// Signaled by nodes on protocol termination (and thread exit) so wait()
  /// blocks in poll() instead of sleeping on a timer.
  net::WakeupFd done_wake_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace delphi::transport
