#pragma once
/// \file tcp.hpp
/// Real asynchronous TCP deployment of the protocol state machines — the
/// counterpart of the paper's tokio-based Rust implementation (§VI-C).
///
/// TcpCluster is the stream link of the socket-cluster core
/// (transport/cluster.hpp), which owns the node threads, wait(), the
/// protocol's Context and the churn clock. This link supplies:
///   * a full mesh of TCP connections over localhost: each node listens,
///     dials every lower id and accepts every higher id, binding fds to
///     node ids with a hello;
///   * length-framed, HMAC-SHA256-authenticated links (transport/frame.hpp)
///     with pairwise keys from crypto::KeyStore — the paper's authenticated
///     channels; per-link HMAC midstates are derived once at connection
///     setup (crypto::HmacKey), so a frame tag costs two compression
///     finishes, not a key schedule;
///   * poll(2)-driven non-blocking I/O with no timeout ticks: loops block
///     until socket activity or a wakeup-fd signal (net/wakeup.hpp), so idle
///     nodes burn no CPU and shutdown is immediate (the one exception:
///     frames held back by the netem shim bound the poll timeout by their
///     next release time);
///   * broadcast bodies shared across all n-1 links (only the per-link MAC
///     differs); pending frames are gathered into a single writev(2) per
///     ready socket;
///   * per-link FIFO, so fifo-dependent codecs are sound here;
///   * with a churn schedule, the recovery lifecycle: a connection
///     supervisor that re-dials with backoff, two-way hellos carrying the
///     receiver's frame count, and per-link replay logs so a rejoining peer
///     gets exactly the frames it missed.
///
/// Unlike the simulator, messages here are *really* serialized, framed,
/// MAC'd, transmitted, re-parsed and verified — the codec paths the simulator
/// only accounts for. The byte counts of the two substrates agree by
/// construction (net::framed_size), which the transport tests assert.

#include "transport/cluster.hpp"

namespace delphi::transport {

/// A full-mesh TCP cluster of n nodes on 127.0.0.1 (see cluster.hpp for the
/// lifecycle and observer API).
class TcpCluster final : public SocketCluster {
 public:
  struct Options : ClusterOptions {
    /// Disable Nagle's algorithm on every link (latency over batching; the
    /// scenario layer exposes this as the `nodelay` param).
    bool nodelay = true;
    // netem is delay-only here: the stream has no frame-level recovery, so
    // drop verdicts are ignored (the scenario layer rejects loss configs on
    // this substrate). A non-empty churn schedule turns on the recovery
    // lifecycle: a dark node closes every socket (peers see EOF / connection
    // refused) and rejoins at up_us — it rebinds its listen port, re-dials
    // lower ids, and higher ids re-dial it with backoff.
  };

  explicit TcpCluster(const Options& opts);

 private:
  class Node;

  int bind_socket(std::uint16_t& port) override;
  std::unique_ptr<ClusterNode> make_node(NodeArgs args) override;

  bool nodelay_;
};

}  // namespace delphi::transport
