#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "transport/cluster_node.hpp"

namespace delphi::transport {

namespace {

/// Selective-ack entries advertised per ack record (the cumulative floor
/// carries the rest; a bounded list keeps acks one small record).
constexpr std::size_t kAckSackLimit = 256;

}  // namespace

// ------------------------------------------------------------------- codec

crypto::Digest udp_frame_tag(const crypto::HmacKey& key, std::uint32_t seq,
                             const std::vector<std::uint8_t>& body) {
  const std::uint8_t seq_le[4] = {
      static_cast<std::uint8_t>(seq), static_cast<std::uint8_t>(seq >> 8),
      static_cast<std::uint8_t>(seq >> 16),
      static_cast<std::uint8_t>(seq >> 24)};
  // The MAC covers seq || channel || payload; the body's 4-byte length
  // prefix is framing, not content (same rule as the TCP frame tag).
  return key.tag({seq_le, 4},
                 std::span<const std::uint8_t>(body).subspan(4));
}

std::vector<std::uint8_t> encode_data_datagram(
    std::uint32_t seq, const std::vector<std::uint8_t>& body,
    const crypto::Digest* tag) {
  ByteWriter w(1 + 4 + body.size() + (tag != nullptr ? crypto::kMacTagSize : 0));
  w.u8(kDatagramData);
  w.u32(seq);
  w.raw(body);
  if (tag != nullptr) w.raw(*tag);
  return w.take();
}

std::vector<std::uint8_t> encode_ack_datagram(
    std::uint32_t cum, std::span<const std::uint32_t> sacks,
    const crypto::HmacKey* key) {
  ByteWriter w(1 + 4 + 2 + 4 * sacks.size() +
               (key != nullptr ? crypto::kMacTagSize : 0));
  w.u8(kDatagramAck);
  w.u32(cum);
  w.uvarint(sacks.size());
  for (const auto s : sacks) w.u32(s);
  if (key != nullptr) w.raw(key->tag(w.data()));
  return w.take();
}

DatagramView decode_datagram(std::span<const std::uint8_t> bytes,
                             const crypto::HmacKey* key) {
  ByteReader r0(bytes);
  const std::uint8_t kind = r0.u8();
  const std::size_t tag_len = key != nullptr ? crypto::kMacTagSize : 0;
  DatagramView d;

  if (kind == kDatagramData) {
    d.seq = r0.u32();
    const std::uint32_t len = r0.u32();
    if (len > kMaxFrameBytes) {
      throw SerializationError("udp: oversized frame length");
    }
    // Exactly one frame per record: the frame's post-prefix length must
    // account for every remaining byte.
    if (len != r0.remaining()) {
      throw SerializationError("udp: datagram/frame length mismatch");
    }
    if (r0.remaining() < tag_len + 1) {
      throw SerializationError("udp: truncated frame");
    }
    const std::size_t content_len = len - tag_len;
    if (key != nullptr) {
      crypto::Digest got{};
      std::memcpy(got.data(), bytes.data() + 9 + content_len, got.size());
      const auto want =
          key->tag(bytes.subspan(1, 4), bytes.subspan(9, content_len));
      if (!crypto::digest_equal(want, got)) {
        throw ProtocolViolation("udp: datagram authentication failed");
      }
    }
    ByteReader r(bytes.subspan(9, content_len));
    const std::uint64_t channel = r.uvarint();
    if (channel > std::numeric_limits<std::uint32_t>::max()) {
      throw SerializationError("udp: channel id overflows u32");
    }
    d.channel = static_cast<std::uint32_t>(channel);
    d.payload = bytes.subspan(9 + (content_len - r.remaining()), r.remaining());
    return d;
  }

  if (kind == kDatagramAck) {
    if (bytes.size() < 1 + 4 + 1 + tag_len) {
      throw SerializationError("udp: truncated ack");
    }
    d.is_ack = true;
    const std::size_t content_len = bytes.size() - tag_len;
    if (key != nullptr) {
      crypto::Digest got{};
      std::memcpy(got.data(), bytes.data() + content_len, got.size());
      const auto want = key->tag(bytes.subspan(0, content_len));
      if (!crypto::digest_equal(want, got)) {
        throw ProtocolViolation("udp: ack authentication failed");
      }
    }
    ByteReader r(bytes.subspan(1, content_len - 1));
    d.seq = r.u32();
    const std::uint64_t count = r.uvarint();
    if (count > kMaxAckSacks) {
      throw SerializationError("udp: ack sack count too large");
    }
    if (count * 4 != r.remaining()) {
      throw SerializationError("udp: ack length mismatch");
    }
    d.sacks.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) d.sacks.push_back(r.u32());
    return d;
  }

  throw SerializationError("udp: unknown datagram kind");
}

void split_datagram(std::span<const std::uint8_t> bytes, bool authed,
                    std::vector<std::span<const std::uint8_t>>& out) {
  out.clear();
  const std::size_t tag_len = authed ? crypto::kMacTagSize : 0;
  while (!bytes.empty()) {
    ByteReader r(bytes);
    const std::uint8_t kind = r.u8();
    std::size_t size = 0;
    if (kind == kDatagramData) {
      r.u32();  // seq
      const std::uint32_t len = r.u32();
      if (len > kMaxFrameBytes) {
        throw SerializationError("udp: oversized frame length");
      }
      size = 9 + static_cast<std::size_t>(len);
    } else if (kind == kDatagramAck) {
      r.u32();  // cum
      const std::uint64_t count = r.uvarint();
      if (count > kMaxAckSacks) {
        throw SerializationError("udp: ack sack count too large");
      }
      size = (bytes.size() - r.remaining()) +
             4 * static_cast<std::size_t>(count) + tag_len;
    } else {
      throw SerializationError("udp: unknown record kind");
    }
    if (size > bytes.size()) {
      throw SerializationError("udp: record runs past the datagram");
    }
    out.push_back(bytes.first(size));
    bytes = bytes.subspan(size);
  }
}

void DatagramPacker::clear() noexcept {
  for (std::size_t i = 0; i < used_; ++i) open_[dgrams_[i].to] = 0;
  used_ = 0;
}

void DatagramPacker::add(NodeId to, std::span<const std::uint8_t> record) {
  if (to >= open_.size()) open_.resize(to + 1, 0);
  if (open_[to] != 0) {
    auto& bytes = dgrams_[open_[to] - 1].bytes;
    if (bytes.size() + record.size() <= kPackedDatagramBytes) {
      bytes.insert(bytes.end(), record.begin(), record.end());
      return;
    }
  }
  if (used_ == dgrams_.size()) dgrams_.emplace_back();
  Datagram& d = dgrams_[used_++];
  d.to = to;
  d.bytes.assign(record.begin(), record.end());
  open_[to] = used_;
}

bool SeqFilter::accept(std::uint32_t seq) {
  if (seq < cum_ || ahead_.contains(seq)) return false;
  ahead_.insert(seq);
  while (!ahead_.empty() && *ahead_.begin() == cum_) {
    ahead_.erase(ahead_.begin());
    ++cum_;
  }
  return true;
}

// --------------------------------------------------------------------- Node

class UdpMesh::Node final : public ClusterNode {
 public:
  Node(NodeArgs& args, std::int64_t rto_ms, std::size_t max_unacked)
      : ClusterNode(args),
        sock_fd_(args.fd),
        rto_us_(std::max<std::int64_t>(rto_ms, 1) * 1000),
        max_unacked_(max_unacked) {
    meshed.store(true, std::memory_order_relaxed);  // no setup phase
    peers_.resize(opts_.n);
    for (NodeId j = 0; j < opts_.n; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      p.addr = loopback_addr(ports_[j]);
      if (opts_.auth) p.mac.emplace(keys_.channel_key(self_, j));
      if (opts_.netem.active()) {
        p.shim = net::netem::LinkShim(opts_.netem, self_, j);
      }
      port_to_peer_.emplace(ports_[j], j);
    }
    rbuf_.resize(64 * 1024);
  }

  ~Node() override {
    if (sock_fd_ >= 0) ::close(sock_fd_);
  }

 private:
  /// One logically-sent, not-yet-acknowledged frame: the shared body, its
  /// seq-covering link tag, and the time of the next (re)transmission
  /// attempt.
  struct Unacked {
    SharedFrameBody body;
    crypto::Digest tag{};
    SimTime at = 0;
    /// Wire attempts so far: 0 = not yet sent. Drives the exponential RTO
    /// backoff and classifies re-sends as catch-up traffic.
    std::uint32_t attempts = 0;
  };

  struct Peer {
    sockaddr_in addr{};
    std::optional<crypto::HmacKey> mac;
    net::netem::LinkShim shim;
    // Send side (selective-repeat ARQ).
    std::uint32_t next_seq = 0;
    std::map<std::uint32_t, Unacked> unacked;
    /// (at, seq) attempt schedule; entries are lazily invalidated when a
    /// frame is acked or rescheduled.
    std::priority_queue<std::pair<SimTime, std::uint32_t>,
                        std::vector<std::pair<SimTime, std::uint32_t>>,
                        std::greater<>>
        events;
    // Receive side.
    SeqFilter filter;
    bool ack_due = false;
    std::vector<std::uint32_t> fresh_sacks;
  };

  /// A materialized record waiting for its netem release time (or due
  /// immediately on unshimmed links).
  struct WireItem {
    SimTime release = 0;
    std::uint64_t order = 0;
    NodeId to = 0;
    std::vector<std::uint8_t> bytes;
  };
  struct WireLater {
    bool operator()(const WireItem& a, const WireItem& b) const {
      return a.release != b.release ? a.release > b.release
                                    : a.order > b.order;
    }
  };

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    // Counted at the logical send only (matches sim's framed_size
    // accounting); retransmissions, acks, and the kind/seq header are
    // transport overhead, not protocol traffic.
    ++metrics_.msgs_sent;
    metrics_.bytes_sent += frame_wire_size(*body, p.mac.has_value());
    const std::size_t dgram =
        1 + 4 + body->size() + (p.mac.has_value() ? crypto::kMacTagSize : 0);
    if (dgram > kMaxDatagramBytes) {
      throw Error("udp: frame of " + std::to_string(dgram) +
                  " bytes exceeds the one-datagram limit");
    }
    if (p.unacked.size() >= max_unacked_) {
      // Typed, loud, and attributable — never a silent drop. The node dies
      // with this message in NodeFailure / RunReport.node_errors.
      throw ResourceExhausted(
          "udp: unacked map for peer " + std::to_string(to) + " hit the cap (" +
          std::to_string(max_unacked_) + " frames in flight)");
    }
    const std::uint32_t seq = p.next_seq++;
    const SimTime at = now_us();
    Unacked u;
    u.body = body;
    if (p.mac.has_value()) u.tag = udp_frame_tag(*p.mac, seq, *body);
    u.at = at;
    p.unacked.emplace(seq, std::move(u));
    p.events.emplace(at, seq);
  }

  /// Run every due (re)transmission attempt: consult the link shim, park the
  /// materialized record on the wire queue until its release time, and
  /// re-arm the frame's retransmission timer.
  void process_out(SimTime now) {
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      while (!p.events.empty()) {
        const auto [at, seq] = p.events.top();
        const auto it = p.unacked.find(seq);
        if (it == p.unacked.end() || it->second.at != at) {
          p.events.pop();  // acked or rescheduled since
          continue;
        }
        if (at > now) break;
        p.events.pop();
        const auto v = p.shim.on_send(
            now, frame_wire_size(*it->second.body, p.mac.has_value()));
        const SimTime xmit = std::max(now, v.release_us);
        if (!v.drop) {
          wireq_.push({xmit, v.order, j,
                       encode_data_datagram(
                           seq, *it->second.body,
                           p.mac.has_value() ? &it->second.tag : nullptr)});
          if (it->second.attempts > 0) {
            // A re-send is the ARQ catching a peer up (drop, dark window,
            // or lost ack) — recovery overhead, never honest traffic.
            ++metrics_.catchup_frames;
            metrics_.catchup_bytes +=
                frame_wire_size(*it->second.body, p.mac.has_value());
          }
        }
        // Retransmit after the (possibly shim-delayed) wire time plus an
        // exponentially backed-off RTO (doubling per attempt, capped at
        // 32x) — a long-dark peer is probed ever more gently; a
        // shim-dropped attempt simply retries on the same schedule.
        const std::uint32_t shift =
            std::min<std::uint32_t>(it->second.attempts, 5);
        ++it->second.attempts;
        it->second.at = xmit + (rto_us_ << shift);
        p.events.emplace(it->second.at, seq);
      }
    }
  }

  /// Send every record whose release time has arrived: pack them, in
  /// release order, into per-peer datagrams of at most one MTU and hand the
  /// lot to the kernel with one sendmmsg(2). A datagram the kernel refuses
  /// (full buffers) is indistinguishable from network loss: the ARQ — or,
  /// for acks, the peer's duplicate-triggered re-ack — recovers.
  void flush_wire(SimTime now) {
    packer_.clear();
    while (!wireq_.empty() && wireq_.top().release <= now) {
      packer_.add(wireq_.top().to, wireq_.top().bytes);
      wireq_.pop();
    }
    const std::size_t count = packer_.size();
    if (count == 0) return;
    iov_.resize(count);
    mmsg_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto d = packer_.datagram(i);
      iov_[i] = {const_cast<std::uint8_t*>(d.data()), d.size()};
      mmsg_[i] = {};
      mmsg_[i].msg_hdr.msg_name = &peers_[packer_.to(i)].addr;
      mmsg_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      mmsg_[i].msg_hdr.msg_iov = &iov_[i];
      mmsg_[i].msg_hdr.msg_iovlen = 1;
    }
    std::size_t next = 0;
    while (next < count) {
      const int sent = ::sendmmsg(sock_fd_, &mmsg_[next],
                                  static_cast<unsigned>(count - next), 0);
      if (sent > 0) {
        next += static_cast<std::size_t>(sent);
        metrics_.datagrams_sent += static_cast<std::uint64_t>(sent);
      } else if (sent < 0 && errno == EINTR) {
        continue;
      } else {
        ++next;  // this datagram is lost; try the rest
      }
    }
  }

  /// Build one ack per peer that delivered data this round: cumulative
  /// floor + the freshly accepted seqs above it. Acks ride the shim too (a
  /// partition must block information in both layers).
  void flush_acks(SimTime now) {
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (!p.ack_due) continue;
      p.ack_due = false;
      const std::uint32_t cum = p.filter.cum();
      sack_scratch_.clear();
      for (const auto s : p.fresh_sacks) {
        if (s >= cum && sack_scratch_.size() < kAckSackLimit) {
          sack_scratch_.push_back(s);
        }
      }
      p.fresh_sacks.clear();
      auto bytes = encode_ack_datagram(
          cum, sack_scratch_, p.mac.has_value() ? &*p.mac : nullptr);
      const auto v = p.shim.on_send(now, bytes.size());
      if (v.drop) continue;
      wireq_.push({std::max(now, v.release_us), v.order, j, std::move(bytes)});
    }
  }

  void drain_socket() {
    while (true) {
      sockaddr_in src{};
      socklen_t slen = sizeof(src);
      const ssize_t k =
          ::recvfrom(sock_fd_, rbuf_.data(), rbuf_.size(), 0,
                     reinterpret_cast<sockaddr*>(&src), &slen);
      if (k < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: drained (other errnos: nothing to read either)
      }
      const auto it = port_to_peer_.find(ntohs(src.sin_port));
      if (it == port_to_peer_.end()) continue;  // stranger datagram
      handle_datagram(it->second,
                      {rbuf_.data(), static_cast<std::size_t>(k)});
    }
  }

  void handle_datagram(NodeId from, std::span<const std::uint8_t> bytes) {
    try {
      split_datagram(bytes, peers_[from].mac.has_value(), records_);
    } catch (const Error&) {
      // Broken framing: the record boundaries cannot be trusted, so the
      // whole datagram goes (the ARQ recovers its data records).
      ++metrics_.malformed_dropped;
      return;
    }
    for (const auto record : records_) handle_record(from, record);
  }

  void handle_record(NodeId from, std::span<const std::uint8_t> bytes) {
    Peer& p = peers_[from];
    DatagramView d;
    try {
      d = decode_datagram(bytes, p.mac.has_value() ? &*p.mac : nullptr);
    } catch (const Error&) {
      // Truncated, tampered, or forged: a record is self-contained, so
      // dropping it poisons nothing (unlike a broken TCP stream).
      ++metrics_.malformed_dropped;
      return;
    }
    if (d.is_ack) {
      for (auto it = p.unacked.begin();
           it != p.unacked.end() && it->first < d.seq;) {
        it = p.unacked.erase(it);
      }
      for (const auto s : d.sacks) p.unacked.erase(s);
      return;
    }
    p.ack_due = true;
    if (!p.filter.accept(d.seq)) return;  // duplicate: re-ack, don't deliver
    p.fresh_sacks.push_back(d.seq);
    try {
      ByteReader r(d.payload);
      const net::MessagePtr msg = decoder_(d.channel, r);
      r.expect_exhausted();
      dispatch(from, d.channel, *msg);
    } catch (const Error&) {
      // Valid MAC, undecodable payload (a garbage-spraying peer): count and
      // drop, but keep the seq accepted so it is acked, like the TCP path
      // keeps the link up.
      ++metrics_.malformed_dropped;
    }
    drain_local();
    note_termination();
  }

  /// Earliest pending event across the wire queue and every peer's attempt
  /// schedule; -1 when fully idle (poll may block indefinitely).
  SimTime next_event() {
    SimTime next = wireq_.empty() ? -1 : wireq_.top().release;
    for (auto& p : peers_) {
      while (!p.events.empty()) {
        const auto [at, seq] = p.events.top();
        const auto it = p.unacked.find(seq);
        if (it == p.unacked.end() || it->second.at != at) {
          p.events.pop();
          continue;
        }
        if (next < 0 || at < next) next = at;
        break;
      }
    }
    return next;
  }

  void poll_once() override {
    const SimTime now = now_us();
    process_out(now);
    flush_wire(now);

    SimTime next = next_event();
    const SimTime down = next_down();
    if (down >= 0 && (next < 0 || down < next)) next = down;
    pollfd fds[2] = {{wake_.fd(), POLLIN, 0}, {sock_fd_, POLLIN, 0}};
    if (::poll(fds, 2, poll_ms(next)) < 0) {
      if (errno == EINTR) return;
      sys_fail("poll(udp)");
    }
    if (fds[0].revents != 0) wake_.drain();  // the caller re-checks stop
    if (fds[1].revents & (POLLIN | POLLERR)) drain_socket();
    flush_acks(now_us());
  }

  /// Dark: close the socket — datagrams to this node vanish (peers' ARQ
  /// keeps retransmitting) and nothing is sent. The ARQ/SeqFilter state
  /// lives in this object and survives.
  void links_down() override {
    if (sock_fd_ >= 0) {
      ::close(sock_fd_);
      sock_fd_ = -1;
    }
  }

  /// Rejoin: rebind the SAME port (the node's identity on every peer's
  /// port_to_peer_ map) and let the ARQ catch everyone up — our due
  /// retransmissions flow out, peers' reach the fresh socket.
  void links_up() override {
    std::uint16_t port = ports_[self_];
    sock_fd_ = bind_udp_socket(port);
    ++metrics_.reconnects;
  }

  int sock_fd_;
  const SimTime rto_us_;
  const std::size_t max_unacked_;
  std::vector<Peer> peers_;
  std::unordered_map<std::uint16_t, NodeId> port_to_peer_;
  std::priority_queue<WireItem, std::vector<WireItem>, WireLater> wireq_;
  /// Pooled scratch (no steady-state allocations beyond record buffers):
  /// the one receive buffer, the records split out of it, and one flush's
  /// packed datagrams with their sendmmsg(2) headers.
  std::vector<std::uint8_t> rbuf_;
  std::vector<std::span<const std::uint8_t>> records_;
  std::vector<std::uint32_t> sack_scratch_;
  DatagramPacker packer_;
  std::vector<iovec> iov_;
  std::vector<mmsghdr> mmsg_;
};

// --------------------------------------------------------------------- Mesh

UdpMesh::UdpMesh(const Options& opts)
    : SocketCluster(opts, "UdpMesh"),
      rto_ms_(opts.rto_ms),
      max_unacked_(opts.max_unacked) {
  if (max_unacked_ < 1) throw ConfigError("UdpMesh: max_unacked must be >= 1");
}

int UdpMesh::bind_socket(std::uint16_t& port) { return bind_udp_socket(port); }

std::unique_ptr<ClusterNode> UdpMesh::make_node(NodeArgs args) {
  return std::make_unique<Node>(args, rto_ms_, max_unacked_);
}

}  // namespace delphi::transport
