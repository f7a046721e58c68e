#pragma once
/// \file udp.hpp
/// UDP datagram deployment of the protocol state machines — the lossy-network
/// counterpart of transport/tcp.hpp, sharing its framed wire format and
/// pairwise-HMAC authentication. UdpMesh is the datagram link of the
/// socket-cluster core (transport/cluster.hpp), which owns the node threads,
/// wait(), the protocol's Context and the churn clock; this link supplies
/// one socket per node, packing and sendmmsg(2), the ARQ and the SeqFilter.
///
/// Design (frames packed into MTU-sized datagrams):
///   * Each node owns ONE UDP socket bound to 127.0.0.1:<os-assigned>; all
///     sockets are bound before any thread starts, so there is no mesh
///     bring-up phase — the source port identifies the sending node.
///   * The unit of the ARQ is a *record*: a data record carries exactly one
///     frame of the existing wire format (u32 length | uvarint channel |
///     payload | 32-byte HMAC tag), prefixed by a kind byte and a
///     per-directed-link u32 sequence number; an ack record carries a
///     cumulative floor plus selective acks. The data tag is computed over
///     seq || channel || payload (the HmacKey two-span MAC), so a replayed,
///     renumbered, or tampered record fails authentication — slightly
///     stronger than the TCP tag, which a stream cannot replay.
///   * Every record due for the same peer in one flush is appended, in
///     release order, to one datagram of at most kPackedDatagramBytes (one
///     Ethernet MTU); a datagram is just records back to back, so a
///     one-record datagram is byte-identical to the record. A flush hands
///     all of its datagrams to the kernel with one sendmmsg(2); the
///     receiver splits each datagram into records and decodes and
///     authenticates them one by one.
///   * Datagrams may be dropped, duplicated, or reordered (and the netem shim
///     does all three on purpose). A small selective-repeat ARQ layer makes
///     the transport reliable-enough for quorum protocols: the receiver's
///     SeqFilter accepts each seq once (duplicates are re-acked and dropped),
///     acks carry a cumulative floor plus recently-accepted seqs, and the
///     sender retransmits unacked frames on a fixed retransmission timeout.
///     Delivery is NOT FIFO — exactly the asynchronous-network contract the
///     protocols are built for (and the simulator's default).
///   * Accounting happens at the logical send, mirroring the simulator's
///     framed_size accounting: retransmissions, acks, and the seq/kind header
///     are transport overhead and excluded — which is what makes
///     sim ≡ udp honest-byte parity hold by construction
///     (tests/udp_substrate_test.cpp pins it).
///   * Every outgoing record (data and acks alike) passes the link's
///     netem::LinkShim before packing; drops are recovered by the ARQ,
///     delays are honoured by a holdback queue — so the full `adversary=`
///     plane plus loss and bandwidth caps run on genuine kernel sockets.
///
/// The record codec, the datagram splitter and the packer below are exposed
/// for tests (fuzz_decode_test feeds them truncated/corrupt datagrams) and
/// the bench; UdpMesh is the cluster.

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "transport/cluster.hpp"

namespace delphi::transport {

/// Kind bytes: first byte of every record.
inline constexpr std::uint8_t kDatagramData = 0xD7;
inline constexpr std::uint8_t kDatagramAck = 0xA4;

/// Hard ceiling on one datagram (loopback UDP tops out at ~65507 payload
/// bytes); enqueueing a frame that cannot fit is an Error at send time.
inline constexpr std::size_t kMaxDatagramBytes = 65'000;

/// Packing limit: one Ethernet MTU (1500 B) minus the IPv4 (20 B) and UDP
/// (8 B) headers. Records for one peer share a datagram up to this size; a
/// single larger record travels alone (up to kMaxDatagramBytes).
inline constexpr std::size_t kPackedDatagramBytes = 1472;

/// Most selective-ack entries accepted in one ack record (decode rejects
/// higher claims before allocating).
inline constexpr std::size_t kMaxAckSacks = 1024;

/// One decoded record. `payload` borrows the input buffer.
struct DatagramView {
  bool is_ack = false;
  /// Data: this frame's link sequence number. Ack: the cumulative floor
  /// (every seq below it is acknowledged).
  std::uint32_t seq = 0;
  /// Ack only: selectively-acknowledged seqs at/above the floor.
  std::vector<std::uint32_t> sacks;
  /// Data only.
  std::uint32_t channel = 0;
  std::span<const std::uint8_t> payload;
};

/// Encode one data record: kind | u32 seq | frame body | tag. `tag` must
/// be the seq-covering link tag (see udp_frame_tag) on authenticated links,
/// nullptr otherwise.
std::vector<std::uint8_t> encode_data_datagram(std::uint32_t seq,
                                               const std::vector<std::uint8_t>& body,
                                               const crypto::Digest* tag);

/// Encode one ack record: kind | u32 cum | uvarint count | seqs | tag
/// (tag over all preceding bytes when `key` is non-null).
std::vector<std::uint8_t> encode_ack_datagram(std::uint32_t cum,
                                              std::span<const std::uint32_t> sacks,
                                              const crypto::HmacKey* key);

/// Per-frame tag on an authenticated UDP link: HMAC over seq (u32 LE) ||
/// channel uvarint || payload — the frame body's post-length bytes plus the
/// sequence number, via the HmacKey two-span MAC (no concatenation buffer).
crypto::Digest udp_frame_tag(const crypto::HmacKey& key, std::uint32_t seq,
                             const std::vector<std::uint8_t>& body);

/// Decode and authenticate one record (`key` = nullptr for plaintext
/// links). Throws SerializationError on structural corruption and
/// ProtocolViolation on MAC failure; a record is all-or-nothing, so unlike
/// the TCP stream parser a failure poisons nothing — the caller just drops
/// the record.
DatagramView decode_datagram(std::span<const std::uint8_t> bytes,
                             const crypto::HmacKey* key);

/// Split one wire datagram into its records, in order, replacing the
/// contents of `out` (spans borrow `bytes`). Only the framing is read —
/// kind bytes, length fields and sack counts; `authed` says whether records
/// carry a tag — so every record still goes through decode_datagram.
/// Throws SerializationError when a record is cut off by the end of the
/// datagram (a length field running past it, a truncated last record, a
/// stray trailing byte) or has an unknown kind; the caller then drops the
/// whole datagram, since the boundaries after a bad record cannot be
/// trusted.
void split_datagram(std::span<const std::uint8_t> bytes, bool authed,
                    std::vector<std::span<const std::uint8_t>>& out);

/// Packs the encoded records of one flush into wire datagrams: each record
/// is appended to its peer's open datagram while the result stays within
/// kPackedDatagramBytes, otherwise it opens a new datagram (a record larger
/// than the limit fills one alone). Records are never split, and a peer's
/// records keep their order across its datagrams, which are listed in the
/// order they were opened. Buffers are reused across flushes.
class DatagramPacker {
 public:
  /// Forget every datagram of the previous flush.
  void clear() noexcept;

  /// Append one encoded record for peer `to`.
  void add(NodeId to, std::span<const std::uint8_t> record);

  std::size_t size() const noexcept { return used_; }
  NodeId to(std::size_t i) const { return dgrams_[i].to; }
  std::span<const std::uint8_t> datagram(std::size_t i) const {
    return dgrams_[i].bytes;
  }

 private:
  struct Datagram {
    NodeId to = 0;
    std::vector<std::uint8_t> bytes;
  };
  /// The first used_ entries are this flush's datagrams; the rest keep
  /// their buffers for the next flush.
  std::vector<Datagram> dgrams_;
  std::size_t used_ = 0;
  /// Per peer: 1 + index of its open datagram, 0 when it has none.
  std::vector<std::size_t> open_;
};

/// Receive-side duplicate filter for one directed link: accepts each
/// sequence number exactly once, tracks the cumulative floor for acks.
class SeqFilter {
 public:
  /// True iff `seq` was never accepted before (marks it accepted).
  bool accept(std::uint32_t seq);

  /// Every seq strictly below this has been accepted.
  std::uint32_t cum() const noexcept { return cum_; }

  /// Accepted-but-ahead-of-the-floor backlog (diagnostics/tests).
  std::size_t pending() const noexcept { return ahead_.size(); }

 private:
  std::uint32_t cum_ = 0;
  std::set<std::uint32_t> ahead_;
};

/// A full-mesh UDP cluster of n nodes on 127.0.0.1 (see cluster.hpp for the
/// lifecycle and observer API). Its metrics count logical sends only:
/// retransmissions and acks are not traffic, and count only in
/// datagrams_sent. A dead node's failure text may be the typed
/// ResourceExhausted of an unacked-map overflow.
class UdpMesh final : public SocketCluster {
 public:
  struct Options : ClusterOptions {
    /// Retransmission timeout for unacked frames (loopback RTT is tens of
    /// µs; this only bounds recovery latency after a drop). Retransmission
    /// attempts back off exponentially from this base (doubling per
    /// attempt, capped at 32x), so a long-dark peer costs O(log) resend
    /// work instead of a fixed-rate spray.
    std::int64_t rto_ms = 25;
    /// Per-directed-link cap on the selective-repeat unacked map (and its
    /// retransmit schedule). A send that would exceed it throws a typed
    /// ResourceExhausted — never a silent drop. The default is roomy
    /// enough that honest runs (including churn restarts) stay far below
    /// it; tiny values let tests exercise the exhaustion path.
    std::size_t max_unacked = 65'536;
    // A churn restart rebinds the SAME port: the port is the node's
    // identity, so peers' ARQ retransmissions find it again with no
    // handshake.
  };

  explicit UdpMesh(const Options& opts);

 private:
  class Node;

  int bind_socket(std::uint16_t& port) override;
  std::unique_ptr<ClusterNode> make_node(NodeArgs args) override;

  std::int64_t rto_ms_;
  std::size_t max_unacked_;
};

}  // namespace delphi::transport
