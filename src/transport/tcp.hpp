#pragma once
/// \file tcp.hpp
/// Real asynchronous TCP deployment of the protocol state machines — the
/// counterpart of the paper's tokio-based Rust implementation (§VI-C).
///
/// TcpCluster is the stream link of the socket-cluster core
/// (transport/cluster.hpp), which owns the node threads, wait(), the
/// protocol's Context and the churn clock. This link supplies:
///   * a full mesh of TCP connections over localhost: each node listens,
///     dials every lower id and accepts every higher id;
///   * one connection lifecycle for bring-up and reconnect alike: a
///     non-blocking supervisor dials with backoff, and both sides exchange a
///     hello (magic | id | u64 receive count | tag) that binds the fd to a
///     node id and says how many frames the sender already holds;
///   * length-framed, HMAC-SHA256-authenticated links (transport/frame.hpp)
///     with pairwise keys from crypto::KeyStore — the paper's authenticated
///     channels; per-link HMAC midstates are derived once at connection
///     setup (crypto::HmacKey), so a frame tag costs two compression
///     finishes, not a key schedule;
///   * reliable links across restarts: every data frame is logged per link
///     in wire order (the log is also the write queue); after every
///     kAckEvery frames the receiver's next write on the link carries its
///     cumulative frame count (a MAC'd frame on kAckChannel), which prunes
///     the log, and a reconnect replays exactly the suffix beyond the count
///     in the peer's hello;
///   * poll(2)-driven non-blocking I/O with no timeout ticks: loops block
///     until socket activity or a wakeup-fd signal (net/wakeup.hpp), so idle
///     nodes burn no CPU and shutdown is immediate (the exceptions: netem
///     holdback releases, churn transitions and dial/handshake deadlines
///     bound the poll timeout);
///   * broadcast bodies shared across all n-1 links (only the per-link MAC
///     differs); pending frames are gathered into a single writev(2) per
///     ready socket;
///   * per-link FIFO, so fifo-dependent codecs are sound here.
///
/// Unlike the simulator, messages here are *really* serialized, framed,
/// MAC'd, transmitted, re-parsed and verified — the codec paths the simulator
/// only accounts for. The byte counts of the two substrates agree by
/// construction (net::framed_size), which the transport tests assert: acks,
/// hellos and replays are transport overhead, never counted as sends.

#include <limits>
#include <span>

#include "transport/cluster.hpp"

namespace delphi::transport {

/// Reserved channel of the in-stream ack frame, whose payload is one u64:
/// the cumulative count of data frames the sender has received on the link.
/// A protocol send on it is a ConfigError at the send boundary.
inline constexpr std::uint32_t kAckChannel =
    std::numeric_limits<std::uint32_t>::max();

/// Data frames a receiver takes in on a link between two acks. An ack only
/// rides a write the receiver makes anyway, so a link that carries data one
/// way only is pruned by reconnect hellos and the log's byte budget.
inline constexpr std::uint64_t kAckEvery = 64;

/// Bytes of a hello: magic | u32 id | u64 receive count (| 32-byte tag).
std::size_t hello_size(bool auth);

/// The hello node `self` sends on a link: its id, how many data frames it
/// has received from the other end, and (with a pairwise key) a tag over
/// both.
std::vector<std::uint8_t> encode_hello(NodeId self, std::uint64_t recv_count,
                                       const crypto::Key* key);

/// The receive count of an ack frame's payload. Throws SerializationError
/// unless the payload is exactly one u64.
std::uint64_t decode_ack(std::span<const std::uint8_t> payload);

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
    // this substrate). A churn window darkens a node: it closes every
    // socket (peers see EOF / connection refused) and rejoins at up_us — it
    // rebinds its listen port, re-dials lower ids, and higher ids re-dial it
    // with backoff; the replay logs catch it up.
  };

  explicit TcpCluster(const Options& opts);

 private:
  class Node;

  int bind_socket(std::uint16_t& port) override;
  std::unique_ptr<ClusterNode> make_node(NodeArgs args) override;

  bool nodelay_;
};

}  // namespace delphi::transport
