#pragma once
/// \file tcp.hpp
/// Real asynchronous TCP deployment of the protocol state machines — the
/// counterpart of the paper's tokio-based Rust implementation (§VI-C).
///
/// Every protocol in this repo is a transport-agnostic net::Protocol; this
/// module runs them over genuine kernel sockets:
///   * full mesh of TCP connections over localhost (tests/examples) or any
///     reachable addresses;
///   * length-framed, HMAC-SHA256-authenticated links (transport/frame.hpp)
///     with pairwise keys from crypto::KeyStore — the paper's authenticated
///     channels; per-link HMAC midstates are derived once at connection
///     setup (crypto::HmacKey), so a frame tag costs two compression
///     finishes, not a key schedule;
///   * one thread per node, poll(2)-driven non-blocking I/O with no timeout
///     ticks: loops block until socket activity or a wakeup-fd signal
///     (net/wakeup.hpp) and cross-thread stop/termination notifications are
///     event-driven, so idle nodes burn no CPU and shutdown is immediate
///     (the one exception: frames held back by the netem shim bound the
///     poll timeout by their next release time);
///   * broadcasts encode the frame body once and share the immutable buffer
///     across all n-1 links (only the per-link MAC differs); pending frames
///     are gathered into a single writev(2) per ready socket;
///   * each node's protocol runs strictly single-threaded (the Protocol
///     contract);
///   * TCP gives per-link FIFO, so fifo-dependent codecs are sound here.
///
/// Unlike the simulator, messages here are *really* serialized, framed,
/// MAC'd, transmitted, re-parsed and verified — the codec paths the simulator
/// only accounts for. The byte counts of the two substrates agree by
/// construction (net::framed_size), which the transport tests assert.
///
/// Typed message bodies are recovered from payload bytes by a per-deployment
/// `Decoder` (see transport/decoders.hpp for the standard protocol suites).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
/// loop and closes every socket at `down_us` (µs since cluster start), then
/// rebinds/re-dials the mesh at `up_us`.
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

/// A full-mesh TCP cluster of n nodes, one OS thread each, on 127.0.0.1.
///
/// Usage:
///   TcpCluster cluster(opts);
///   cluster.start(factory, decoder);   // spawns threads, connects the mesh
///   bool ok = cluster.wait();          // all honest protocols terminated?
///   auto& p = cluster.protocol(i);     // read outputs (after wait())
class TcpCluster {
 public:
  struct Options {
    std::size_t n = 4;
    /// HMAC-authenticate every frame (pairwise keys from `seed`).
    bool auth = true;
    /// Master secret / per-node RNG seed.
    std::uint64_t seed = 1;
    /// wait() gives up after this many milliseconds of wall time.
    std::int64_t timeout_ms = 30'000;
    /// Disable Nagle's algorithm on every link (latency over batching; the
    /// scenario layer exposes this as the `nodelay` param).
    bool nodelay = true;
    /// Network emulation applied per directed link at the send boundary
    /// (inert by default). Delay-only on TCP: the stream has no frame-level
    /// recovery, so drop verdicts are ignored — the scenario layer rejects
    /// loss configs on this substrate.
    net::netem::Config netem;
    /// Churn schedule (wall µs since cluster start). Non-empty implies
    /// `recovery`. A dark node closes every socket (peers see EOF /
    /// connection refused) and rejoins at up_us: it rebinds its listen port,
    /// re-dials lower ids, and higher ids re-dial it with backoff.
    std::vector<ChurnWindow> churn;
    /// Enable the connection supervisor + catch-up plane even without a
    /// churn schedule: steady-state accepts of re-connections from known
    /// peers, re-dial with exponential backoff and deterministic jitter,
    /// half-open handshake deadlines, per-link replay logs, and a two-way
    /// hello carrying the receiver's frame count so the sender replays
    /// exactly the undelivered suffix. Off (the default) keeps the wire
    /// format and connection lifecycle byte-identical to the pre-recovery
    /// transport.
    bool recovery = false;
    /// Per-link replay log byte budget in recovery mode. Drop-oldest beyond
    /// it (graceful degradation: a rejoining peer that out-lived the budget
    /// misses the dropped prefix and relies on protocol-level redundancy).
    std::size_t replay_budget_bytes = std::size_t{32} << 20;
  };

  /// Shared factory alias from net/protocol.hpp (same type the simulator
  /// harness and scenario runtimes consume).
  using ProtocolFactory = net::ProtocolFactory;

  explicit TcpCluster(Options opts);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Create protocols, open the listen sockets, spawn node threads, connect
  /// the mesh, and start every protocol. Call exactly once.
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

  /// Resolved listen port of node i (set by start()).
  std::uint16_t port(NodeId id) const;

  const Options& options() const noexcept { return opts_; }

 private:
  class Node;

  /// Set the stop flag and wake every node's event loop (idempotent).
  void request_stop();

  Options opts_;
  crypto::KeyStore keys_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<std::uint16_t> ports_;
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
