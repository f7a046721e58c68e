#include "transport/tcp.hpp"

#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <queue>
#include <string>

#include "common/error.hpp"
#include "transport/cluster_node.hpp"

namespace delphi::transport {

namespace {

/// First bytes each side sends on a link: magic + its node id + its receive
/// count, plus (on authenticated deployments) an HMAC tag under the pairwise
/// key — without it, a keyless attacker could claim a legitimate node id and
/// black-hole that link.
constexpr std::uint32_t kHelloMagic = 0x44504849;  // "IHPD" LE == "DPHI"

/// Frames gathered per writev(2): the portable IOV_MAX floor (1024 entries
/// = up to 512 authenticated frames per syscall). The iovec array is pooled
/// per node, so the only cost of a large gather is the syscalls it saves.
constexpr std::size_t kMaxIovs = 1024;

/// Frames at most this large (body + tag) are memcpy'd into a pooled
/// staging buffer so a run of small frames becomes ONE iovec — the kernel's
/// per-iovec bookkeeping costs more than copying ~a hundred bytes. Larger
/// bodies are referenced zero-copy.
constexpr std::size_t kStageFrameLimit = 256;

/// Staged bytes gathered per writev attempt. Caps the copy work done per
/// syscall so a deep backlog behind a slow receiver costs O(backlog) total
/// staging, not O(backlog²) — one writev drains about a socket buffer
/// (~208 KiB default), so re-staging at most this much per attempt keeps
/// the repeated-copy overhead near constant. Also the pooled capacity of
/// stage_, reserved once, so mid-gather reallocation (which would
/// invalidate iovec pointers) cannot happen.
constexpr std::size_t kStageByteBudget = 256 * 1024;

crypto::Digest hello_tag(const crypto::Key& key, NodeId initiator,
                         std::uint64_t recv_count) {
  ByteWriter w(24);
  w.u32(kHelloMagic);
  w.u32(initiator);
  w.u64(recv_count);
  w.str("hello");
  return crypto::hmac_sha256(key, w.data());
}

/// How long a dial or a pending accept may sit without completing its hello
/// before it is declared half-open and dropped.
constexpr SimTime kDialTimeoutUs = 2'000'000;

/// Per-link replay log byte budget. Acks keep a live link's log near
/// kAckEvery frames; this bounds it while the peer is dark. Drop-oldest
/// beyond it (graceful degradation: a rejoining peer that out-lived the
/// budget misses the dropped prefix and relies on protocol-level
/// redundancy).
constexpr std::size_t kReplayBudgetBytes = std::size_t{32} << 20;

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Full write on a non-blocking fd with a short bounded poll budget (hellos
/// are <= 48 bytes, so a stall means the peer is gone or wedged). Returns
/// false if it could not complete — the caller drops the connection.
bool write_fully(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  int stalls = 0;
  while (off < data.size()) {
    const ssize_t k = ::write(fd, data.data() + off, data.size() - off);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && stalls++ < 200) {
      pollfd pf{fd, POLLOUT, 0};
      ::poll(&pf, 1, 10);
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

std::size_t hello_size(bool auth) {
  return 16 + (auth ? crypto::kMacTagSize : 0);
}

std::vector<std::uint8_t> encode_hello(NodeId self, std::uint64_t recv_count,
                                       const crypto::Key* key) {
  ByteWriter w(hello_size(key != nullptr));
  w.u32(kHelloMagic);
  w.u32(self);
  w.u64(recv_count);
  if (key != nullptr) w.raw(hello_tag(*key, self, recv_count));
  return w.take();
}

std::uint64_t decode_ack(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint64_t count = r.u64();
  r.expect_exhausted();
  return count;
}

// --------------------------------------------------------------------- Node

class TcpCluster::Node final : public ClusterNode {
 public:
  Node(NodeArgs& args, bool nodelay)
      : ClusterNode(args),
        listen_fd_(args.fd),
        nodelay_(nodelay),
        // Backoff jitter gets its own deterministic stream so the
        // supervisor never perturbs the protocol's rng() draws.
        jitter_rng_(opts_.seed ^ (0xc2b2ae3d27d4eb4fULL * (self_ + 2))) {
    peers_.resize(opts_.n);
    for (NodeId j = 0; j < opts_.n; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      if (opts_.auth) {
        // One HMAC key schedule per link lifetime: the midstates serve both
        // outgoing tags and the parser's verification.
        p.mac.emplace(keys_.channel_key(self_, j));
      }
      if (opts_.netem.active()) {
        p.shim = net::netem::LinkShim(opts_.netem, self_, j);
      }
    }
    rbuf_.resize(64 * 1024);
  }

  ~Node() override {
    for (auto& p : peers_) {
      if (p.fd >= 0) ::close(p.fd);
      if (p.dial_fd >= 0) ::close(p.dial_fd);
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  // The ack channel belongs to the link: a protocol send on it would be
  // parsed as an ack by the peer, so it is refused where it is made.
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override {
    check_channel(channel);
    ClusterNode::send(to, channel, std::move(msg));
  }
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override {
    check_channel(channel);
    ClusterNode::broadcast(channel, std::move(msg));
  }

 private:
  /// One queued outbound frame: the shared destination-independent body and
  /// this link's MAC tag (meaningful only on authenticated links).
  struct PendingFrame {
    SharedFrameBody body;
    crypto::Digest tag;
  };

  struct Peer {
    int fd = -1;
    /// Precomputed pairwise HMAC midstates (send tags + parser verify).
    std::optional<crypto::HmacKey> mac;
    FrameParser parser;
    /// Netem emulation for this directed link (inert unless configured).
    net::netem::LinkShim shim;
    /// Every data frame that entered this link's wire order, from sequence
    /// number log_start on (earlier ones were acked or fell off the byte
    /// budget). Entries before wpos are on the wire and kept for replay;
    /// the rest wait for it. A reconnect moves wpos back to replay.
    std::deque<PendingFrame> log;
    std::uint64_t log_start = 0;
    std::size_t log_bytes = 0;
    std::size_t wpos = 0;
    /// Bytes of log[wpos] already on the wire (may point into the tag).
    std::size_t front_written = 0;
    /// The ack frame (body + tag) at the head of the unwritten stream, and
    /// how many of its bytes are still to write.
    std::vector<std::uint8_t> ack;
    std::size_t ack_left = 0;
    /// Last writev hit EAGAIN: wait for POLLOUT instead of re-trying.
    bool blocked = false;
    /// Complete data frames parsed from this peer across all link
    /// incarnations: the count our acks and hellos carry.
    std::uint64_t recv_count = 0;
    /// kAckEvery more frames arrived since the last ack; the next flush
    /// to this peer that starts on a frame boundary carries one.
    bool ack_due = false;
    /// The link has been adopted before, so the next adoption is a
    /// reconnect rather than bring-up.
    bool linked = false;
    // Dial state machine (this side dials iff self > peer id).
    int dial_fd = -1;
    bool dial_hello_sent = false;
    std::vector<std::uint8_t> dial_buf;  ///< reply-hello bytes so far
    SimTime redial_at = -1;              ///< next attempt (-1: none due)
    SimTime dial_deadline = 0;           ///< abort a stalled attempt
    std::uint32_t redial_attempts = 0;
  };

  /// An accepted connection whose hello has not fully arrived; dropped at
  /// `deadline` (half-open / slow-loris defense).
  struct PendingAccept {
    int fd = -1;
    std::vector<std::uint8_t> buf;
    SimTime deadline = 0;
  };

  /// A frame the netem shim is holding back from the wire until `release`.
  struct HeldFrame {
    SimTime release = 0;
    std::uint64_t order = 0;
    NodeId to = 0;
    PendingFrame frame;
  };
  struct HeldLater {
    bool operator()(const HeldFrame& a, const HeldFrame& b) const {
      return a.release != b.release ? a.release > b.release
                                    : a.order > b.order;
    }
  };

  static void check_channel(std::uint32_t channel) {
    if (channel == kAckChannel) {
      throw ConfigError("tcp: channel " + std::to_string(channel) +
                        " is reserved for the link's ack frames");
    }
  }

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    const std::size_t wire = frame_wire_size(*body, p.mac.has_value());
    // Counted at enqueue (matches the simulator's send-time accounting),
    // even while the link is down: the log replays the frame on reconnect.
    ++metrics_.msgs_sent;
    metrics_.bytes_sent += wire;
    PendingFrame pf;
    pf.body = body;
    if (p.mac.has_value()) pf.tag = frame_tag(*p.mac, *body);
    if (p.shim.active()) {
      const SimTime now = now_us();
      const auto v = p.shim.on_send(now, wire);
      // Delay-only on TCP (drop verdicts ignored — see Options): a
      // future release parks the frame on the holdback heap; the event loop
      // puts it on the wire when due.
      if (v.release_us > now) {
        held_.push({v.release_us, v.order, to, std::move(pf)});
        return;
      }
    }
    to_wire(p, std::move(pf));
  }

  /// A data frame enters the link's wire order: the log, which is also
  /// the write queue. Appending here, not at enqueue, keeps the log in the
  /// order the peer counts frames in, which is the order a reconnect's
  /// replay prunes by. Past the byte budget the oldest frames go, but while
  /// the link is up only ones already written.
  void to_wire(Peer& p, PendingFrame pf) {
    p.log_bytes += frame_wire_size(*pf.body, p.mac.has_value());
    p.log.push_back(std::move(pf));
    while (p.log_bytes > kReplayBudgetBytes && (p.fd < 0 || p.wpos > 0)) {
      pop_log_front(p);
    }
  }

  static void pop_log_front(Peer& p) {
    p.log_bytes -= frame_wire_size(*p.log.front().body, p.mac.has_value());
    p.log.pop_front();
    ++p.log_start;
    if (p.wpos > 0) --p.wpos;
  }

  /// Frames or ack bytes are waiting for the wire.
  static bool pending(const Peer& p) {
    return p.ack_left > 0 || p.wpos < p.log.size();
  }

  /// Move every held frame whose release time has arrived onto its link's
  /// wire order, in (release, order) order — which realizes the burst
  /// adversary's within-window LIFO on a real stream.
  void release_held(SimTime now) {
    while (!held_.empty() && held_.top().release <= now) {
      HeldFrame h = std::move(const_cast<HeldFrame&>(held_.top()));
      held_.pop();
      to_wire(peers_[h.to], std::move(h.frame));
    }
  }

  // ---- acks and replay ----------------------------------------------------

  /// Tell the peer how many data frames we hold, so it can prune its log.
  /// Started only on a frame boundary with data waiting for that peer: the
  /// ack goes out ahead of it in the same writev, so it never costs a
  /// syscall or a wake-up of its own. It is never counted as a send, logged
  /// or replayed.
  void start_ack(Peer& p) {
    ByteWriter w(8);
    w.u64(p.recv_count);
    p.ack = encode_frame(kAckChannel, w.data(),
                         p.mac.has_value() ? &*p.mac : nullptr);
    p.ack_left = p.ack.size();
    p.ack_due = false;
  }

  /// Frames this link has put on the wire, across all its incarnations:
  /// no genuine peer can count more.
  static std::uint64_t sent_count(const Peer& p) {
    return p.log_start + p.wpos;
  }

  /// Drop the log prefix a peer's cumulative receive count (from an ack or
  /// a hello) acknowledges. A stale count, below log_start, prunes nothing.
  /// A count beyond the frames sent is a lie: false, nothing pruned, and
  /// the caller closes the link.
  static bool prune_log(Peer& p, std::uint64_t count) {
    if (count > sent_count(p)) return false;
    while (p.log_start < count) pop_log_front(p);
    return true;
  }

  /// An ack frame's payload must be exactly one in-range u64.
  static bool take_ack(Peer& p, std::span<const std::uint8_t> payload) {
    try {
      return prune_log(p, decode_ack(payload));
    } catch (const SerializationError&) {
      return false;
    }
  }

  // ---- connection lifecycle -----------------------------------------------

  /// Validate a hello claiming to come from `expect`; extracts the sender's
  /// receive count on success. A count beyond the frames this link ever
  /// sent is refused like a bad tag.
  bool check_hello(std::span<const std::uint8_t> buf, NodeId expect,
                   std::uint64_t& recv_out) const {
    ByteReader r(buf);
    if (r.u32() != kHelloMagic || r.u32() != expect) return false;
    recv_out = r.u64();
    if (recv_out > sent_count(peers_[expect])) return false;
    if (!opts_.auth) return true;
    crypto::Digest received;
    const auto tag = r.raw(crypto::kMacTagSize);
    std::memcpy(received.data(), tag.data(), received.size());
    return crypto::digest_equal(
        hello_tag(keys_.channel_key(self_, expect), expect, recv_out),
        received);
  }

  static NodeId claimed_id(std::span<const std::uint8_t> buf) {
    ByteReader r(buf);
    r.u32();  // magic (checked later by check_hello)
    return r.u32();
  }

  std::vector<std::uint8_t> hello_for(NodeId j) const {
    return encode_hello(self_, peers_[j].recv_count,
                        opts_.auth ? &keys_.channel_key(self_, j) : nullptr);
  }

  /// Arm the next dial attempt for a lower-id peer: exponential backoff
  /// (2 ms base, doubling per failure, 250 ms cap) plus deterministic
  /// jitter from the node's seeded jitter stream. Higher-id peers dial us,
  /// so for them this is a no-op. Gives up once the next attempt would land
  /// past the cluster deadline (capped retries).
  void schedule_redial(NodeId j, Peer& p, bool reset_backoff) {
    if (j >= self_) return;  // that side initiates
    if (reset_backoff) p.redial_attempts = 0;
    constexpr SimTime kBase = 2'000;
    constexpr SimTime kCap = 250'000;
    SimTime delay =
        std::min(kCap, kBase << std::min<std::uint32_t>(p.redial_attempts, 7));
    delay += static_cast<SimTime>(
        jitter_rng_.below(static_cast<std::uint64_t>(delay / 4 + 1)));
    const SimTime at = now_us() + delay;
    if (at > opts_.timeout_ms * 1'000) {
      p.redial_at = -1;  // nothing past the run deadline can matter
      return;
    }
    p.redial_at = at;
  }

  /// Connection supervisor pass: abort stalled dial attempts, start due
  /// dials, and drop half-open pending accepts.
  void supervisor_tick() {
    const SimTime now = now_us();
    for (NodeId j = 0; j < self_; ++j) {
      Peer& p = peers_[j];
      if (p.dial_fd >= 0 && now >= p.dial_deadline) {
        // Half-open: the connect or the hello reply never completed.
        fail_dial(j, p);
      }
      if (p.fd < 0 && p.dial_fd < 0 && p.redial_at >= 0 &&
          now >= p.redial_at) {
        start_dial(j, p);
      }
    }
    for (std::size_t a = 0; a < accepts_.size();) {
      if (now >= accepts_[a].deadline) {
        ::close(accepts_[a].fd);
        accepts_[a] = std::move(accepts_.back());
        accepts_.pop_back();
      } else {
        ++a;
      }
    }
  }

  /// Begin one non-blocking dial attempt to a lower-id peer.
  void start_dial(NodeId j, Peer& p) {
    p.redial_at = -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(dial)");
    set_nonblocking(fd);
    sockaddr_in addr = loopback_addr(ports_[j]);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      ++p.redial_attempts;
      schedule_redial(j, p, false);
      return;
    }
    p.dial_fd = fd;
    p.dial_hello_sent = false;
    p.dial_buf.clear();
    p.dial_deadline = now_us() + kDialTimeoutUs;
    // A loopback connect is usually complete on return: send the hello now
    // rather than a poll round later, so it is there when the peer accepts.
    pollfd pf{fd, POLLOUT, 0};
    if (::poll(&pf, 1, 0) == 1) progress_dial(j, p);
  }

  /// Advance a dial attempt: finish the connect, send our hello (with our
  /// receive count for this link), then read and verify the peer's reply
  /// before adopting the socket.
  void progress_dial(NodeId j, Peer& p) {
    if (p.dial_fd < 0) return;
    if (!p.dial_hello_sent) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(p.dial_fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fail_dial(j, p);
        return;
      }
      if (nodelay_) set_nodelay(p.dial_fd);
      if (!write_fully(p.dial_fd, hello_for(j))) {
        fail_dial(j, p);
        return;
      }
      p.dial_hello_sent = true;
      // The write woke the acceptor, and a socket wake-up queues it on this
      // CPU: yield so it answers now, not after our remaining dials.
      sched_yield();
      return;
    }
    const std::size_t want = hello_size(opts_.auth);
    while (p.dial_buf.size() < want) {
      std::uint8_t tmp[64];
      const ssize_t k = ::read(p.dial_fd, tmp, want - p.dial_buf.size());
      if (k > 0) {
        p.dial_buf.insert(p.dial_buf.end(), tmp, tmp + k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail_dial(j, p);  // EOF or hard error before the full reply
      return;
    }
    std::uint64_t peer_recv = 0;
    if (!check_hello(p.dial_buf, j, peer_recv)) {
      fail_dial(j, p);
      return;
    }
    const int fd = p.dial_fd;
    p.dial_fd = -1;
    p.dial_hello_sent = false;
    p.dial_buf.clear();
    adopt_link(p, fd, peer_recv);
  }

  void fail_dial(NodeId j, Peer& p) {
    abort_dial(p);
    ++p.redial_attempts;
    schedule_redial(j, p, false);
  }

  void abort_dial(Peer& p) {
    if (p.dial_fd >= 0) {
      ::close(p.dial_fd);
      p.dial_fd = -1;
    }
    p.dial_hello_sent = false;
    p.dial_buf.clear();
  }

  /// Accept path: a higher-id peer is establishing its link (bring-up, a
  /// restart, or we restarted and it noticed the EOF). Hellos complete
  /// asynchronously in progress_accepts() under a deadline.
  void accept_reconnects() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (nodelay_) set_nodelay(fd);
      set_nonblocking(fd);
      accepts_.push_back({fd, {}, now_us() + kDialTimeoutUs});
    }
  }

  void progress_accepts() {
    const std::size_t want = hello_size(opts_.auth);
    for (std::size_t a = 0; a < accepts_.size();) {
      PendingAccept& pa = accepts_[a];
      std::uint8_t tmp[64];
      const ssize_t k = ::read(pa.fd, tmp, want - pa.buf.size());
      if (k > 0) pa.buf.insert(pa.buf.end(), tmp, tmp + k);
      const bool dead =
          k == 0 || (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
      bool settled = false;
      if (!dead && pa.buf.size() == want) {
        settled = true;
        const NodeId who = claimed_id(pa.buf);
        std::uint64_t peer_recv = 0;
        // Reply with our receive count; the dialer replays its undelivered
        // suffix symmetrically once it has read it.
        if (who > self_ && who < opts_.n &&
            check_hello(pa.buf, who, peer_recv) &&
            write_fully(pa.fd, hello_for(who))) {
          adopt_link(peers_[who], pa.fd, peer_recv);
        } else {
          ::close(pa.fd);  // stranger, forger, liar or nonsense: reject
        }
      }
      if (dead) ::close(pa.fd);
      if (dead || settled) {
        accepts_[a] = std::move(accepts_.back());
        accepts_.pop_back();
      } else {
        ++a;
      }
    }
  }

  /// Install a freshly handshaken socket as a peer's link and queue the log
  /// suffix the peer's hello says it is missing (check_hello bounded the
  /// count). A still-open old fd is replaced (reconnect-during-handshake
  /// race: the newest handshake wins). The first adoption is bring-up; only
  /// later ones count as reconnects.
  void adopt_link(Peer& p, int fd, std::uint64_t peer_recv) {
    drop_fd(p);
    p.fd = fd;
    p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
    p.redial_at = -1;
    if (p.linked) {
      ++metrics_.reconnects;
    } else {
      p.linked = true;
      ++linked_;
    }
    prune_log(p, peer_recv);
    p.wpos = 0;
    // Catch-up traffic, never new sends — honest-byte parity across
    // substrates is preserved by construction.
    metrics_.catchup_frames += p.log.size();
    metrics_.catchup_bytes += p.log_bytes;
  }

  /// Close a link's socket and abandon its partly written frame or ack (the
  /// log keeps every data frame for the next incarnation).
  static void drop_fd(Peer& p) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.front_written = 0;
    p.ack_left = 0;
    p.blocked = false;
  }

  /// Going dark: close every socket (peers observe EOF / refused
  /// connections). Frames the netem shim still holds stay held: they enter
  /// the logs when released after the restart.
  void links_down() override {
    for (Peer& p : peers_) {
      drop_fd(p);
      abort_dial(p);
      p.redial_at = -1;
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    accepts_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  /// Restart: rebind the listen port and re-dial every lower id (higher ids
  /// re-dial us once they see the port is back).
  void links_up() override {
    std::uint16_t port = ports_[self_];
    listen_fd_ = bind_listen_socket(port);
    set_nonblocking(listen_fd_);
    for (NodeId j = 0; j < self_; ++j) {
      peers_[j].redial_attempts = 0;
      peers_[j].redial_at = now_us();  // dial now, back off on failure
    }
  }

  /// Bring the mesh up through the same dial/accept/hello path a reconnect
  /// takes: dial every lower id now, accept every higher id, and return
  /// once every link has been adopted. Returns false if a stop request
  /// interrupted it; throws at the cluster deadline.
  bool setup_links(const std::atomic<bool>& stop) override {
    set_nonblocking(listen_fd_);
    for (NodeId j = 0; j < self_; ++j) peers_[j].redial_at = 0;
    mesh_deadline_ = now_us() + opts_.timeout_ms * 1'000;
    while (linked_ + 1 < opts_.n) {
      if (stop.load(std::memory_order_relaxed)) return false;
      if (now_us() >= mesh_deadline_) throw Error("tcp: mesh setup timeout");
      poll_links();
    }
    mesh_deadline_ = -1;
    return true;
  }

  void poll_once() override {
    poll_links();
    note_termination();
  }

  /// One event-driven pass: write everything writable, then block in
  /// poll(2) — without a timeout unless a timer is due — until socket
  /// activity or a wakeup signal. No sleep ticks anywhere. While the mesh
  /// is still coming up (mesh_deadline_ set), adopted links are not read:
  /// the protocol has not started, so nothing may be dispatched yet.
  void poll_links() {
    const bool meshing = mesh_deadline_ >= 0;
    supervisor_tick();
    if (!held_.empty()) release_held(now_us());
    flush_pending();

    pollfds_.clear();
    owners_.clear();
    pollfds_.push_back({wake_.fd(), POLLIN, 0});
    owners_.push_back({FdKind::kPeer, self_});  // placeholder, aligned
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && !meshing) {
        short events = POLLIN;
        if (p.blocked && pending(p)) events |= POLLOUT;
        pollfds_.push_back({p.fd, events, 0});
        owners_.push_back({FdKind::kPeer, j});
      }
      if (p.dial_fd >= 0) {
        // Writable = connect finished; readable = reply-hello bytes.
        pollfds_.push_back({p.dial_fd,
                            p.dial_hello_sent ? short(POLLIN)
                                              : short(POLLOUT),
                            0});
        owners_.push_back({FdKind::kDial, j});
      }
    }
    if (listen_fd_ >= 0) {
      pollfds_.push_back({listen_fd_, POLLIN, 0});
      owners_.push_back({FdKind::kListen, 0});
    }
    for (std::size_t a = 0; a < accepts_.size(); ++a) {
      pollfds_.push_back({accepts_[a].fd, POLLIN, 0});
      owners_.push_back({FdKind::kAccept, static_cast<NodeId>(a)});
    }

    if (::poll(pollfds_.data(), pollfds_.size(), poll_timeout()) < 0) {
      if (errno == EINTR) return;
      sys_fail("poll");
    }
    if (pollfds_[0].revents != 0) wake_.drain();  // the caller re-checks stop

    for (std::size_t i = 1; i < pollfds_.size(); ++i) {
      const PollOwner owner = owners_[i];
      switch (owner.kind) {
        case FdKind::kPeer: {
          Peer& p = peers_[owner.idx];
          if (p.fd < 0) break;
          if (pollfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) {
            read_peer(owner.idx, p);
          }
          if (p.fd >= 0 && (pollfds_[i].revents & POLLOUT)) {
            p.blocked = false;
            flush_peer(owner.idx, p);
          }
          drain_local();
          break;
        }
        case FdKind::kDial:
          if (pollfds_[i].revents != 0) {
            progress_dial(owner.idx, peers_[owner.idx]);
          }
          break;
        case FdKind::kListen:
          if (pollfds_[i].revents & POLLIN) accept_reconnects();
          break;
        case FdKind::kAccept:
          // Handled wholesale below: progress_accepts() compacts the
          // vector, which would invalidate the owner indices here.
          break;
      }
    }
    if (!accepts_.empty()) progress_accepts();
  }

  /// Next forced poll wakeup: netem releases, the mesh setup deadline, our
  /// own churn transitions, due dials, dial/accept handshake deadlines. -1
  /// (block forever) when none apply — the common, churn-free steady state.
  int poll_timeout() const {
    SimTime at = -1;
    const auto consider = [&at](SimTime t) {
      if (t >= 0 && (at < 0 || t < at)) at = t;
    };
    if (!held_.empty()) consider(held_.top().release);
    consider(mesh_deadline_);
    consider(next_down());
    for (const Peer& p : peers_) {
      consider(p.redial_at);
      if (p.dial_fd >= 0) consider(p.dial_deadline);
    }
    for (const auto& pa : accepts_) consider(pa.deadline);
    return poll_ms(at);
  }

  /// Opportunistic write pass: one gathered writev per peer with pending
  /// frames (peers that already hit EAGAIN wait for POLLOUT instead).
  void flush_pending() {
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && !p.blocked && pending(p)) flush_peer(j, p);
    }
  }

  void read_peer(NodeId from, Peer& p) {
    while (true) {
      const ssize_t k = ::read(p.fd, rbuf_.data(), rbuf_.size());
      if (k > 0) {
        p.parser.feed({rbuf_.data(), static_cast<std::size_t>(k)});
        pump_frames(from, p);
        if (p.fd < 0) return;  // stream poisoned during pump
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EOF or hard error: peer done sending; drop the link.
      close_link(from, p);
      return;
    }
  }

  void pump_frames(NodeId from, Peer& p) {
    while (true) {
      std::optional<FrameView> f;
      try {
        // Zero-copy: the view borrows the parser's buffer; the decoder
        // reads straight out of it, no per-frame payload vector.
        f = p.parser.next_view();
      } catch (const Error&) {
        // Framing/MAC broken: the byte stream is unrecoverable.
        ++metrics_.malformed_dropped;
        close_link(from, p);
        return;
      }
      if (!f) return;
      if (f->channel == kAckChannel) {
        // The link's own frame: not counted, dispatched or acked itself.
        if (!take_ack(p, f->payload)) {
          ++metrics_.malformed_dropped;
          close_link(from, p);
          return;
        }
        continue;
      }
      // A fully parsed data frame advances the count our acks and hellos
      // carry, decodable payload or not (the sender logs frames the same
      // way).
      if (++p.recv_count % kAckEvery == 0) p.ack_due = true;
      try {
        ByteReader r(f->payload);
        const net::MessagePtr msg = decoder_(f->channel, r);
        r.expect_exhausted();
        dispatch(from, f->channel, *msg);
      } catch (const Error&) {
        ++metrics_.malformed_dropped;  // bad payload only: link stays up
      }
      drain_local();
      note_termination();
    }
  }

  /// Gather the unwritten stream (an ack in progress, then the log from
  /// wpos: shared bodies + per-link tags) into iovecs and push it with as
  /// few writev(2) calls as the socket accepts.
  void flush_peer(NodeId j, Peer& p) {
    if (p.ack_due && p.ack_left == 0 && p.front_written == 0) start_ack(p);
    const std::size_t tag_len =
        p.mac.has_value() ? crypto::kMacTagSize : 0;
    while (pending(p)) {
      iov_.clear();
      stage_.clear();
      if (p.ack_left > 0) {
        iov_.push_back(
            {p.ack.data() + (p.ack.size() - p.ack_left), p.ack_left});
      }

      // The (possibly partially written) front frame goes out directly.
      auto it = p.log.begin() + static_cast<std::ptrdiff_t>(p.wpos);
      if (it != p.log.end()) {
        const auto& body = *it->body;
        std::size_t skip = p.front_written;
        if (skip < body.size()) {
          iov_.push_back({const_cast<std::uint8_t*>(body.data()) + skip,
                          body.size() - skip});
          skip = 0;
        } else {
          skip -= body.size();
        }
        if (tag_len > 0 && skip < tag_len) {
          iov_.push_back({const_cast<std::uint8_t*>(it->tag.data()) + skip,
                          tag_len - skip});
        }
        ++it;
      }

      // Fixed staging capacity: iovecs point into stage_, so it must not
      // reallocate while the gather is being built; the gather loop stops
      // before exceeding it.
      stage_.reserve(kStageByteBudget);

      // Gather the rest: small frames extend the current staged run (one
      // iovec per run), large bodies are referenced zero-copy.
      bool run_open = false;
      for (auto jt = it; jt != p.log.end(); ++jt) {
        if (iov_.size() + 2 > kMaxIovs) break;
        const auto& body = *jt->body;
        const std::size_t total = body.size() + tag_len;
        if (total <= kStageFrameLimit) {
          if (stage_.size() + total > kStageByteBudget) break;
          const std::size_t off = stage_.size();
          stage_.insert(stage_.end(), body.begin(), body.end());
          if (tag_len > 0) {
            stage_.insert(stage_.end(), jt->tag.begin(),
                          jt->tag.begin() + tag_len);
          }
          if (run_open) {
            iov_.back().iov_len += total;
          } else {
            iov_.push_back({stage_.data() + off, total});
            run_open = true;
          }
        } else {
          iov_.push_back(
              {const_cast<std::uint8_t*>(body.data()), body.size()});
          if (tag_len > 0) {
            iov_.push_back(
                {const_cast<std::uint8_t*>(jt->tag.data()), tag_len});
          }
          run_open = false;
        }
      }
      const ssize_t k =
          ::writev(p.fd, iov_.data(), static_cast<int>(iov_.size()));
      if (k > 0) {
        advance_wire(p, static_cast<std::size_t>(k), tag_len);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        p.blocked = true;
        return;
      }
      close_link(j, p);
      return;
    }
  }

  /// Account a writev of `written` bytes: the ack in progress first, then
  /// every fully written frame moves wpos on.
  static void advance_wire(Peer& p, std::size_t written, std::size_t tag_len) {
    const std::size_t on_ack = std::min(written, p.ack_left);
    p.ack_left -= on_ack;
    p.front_written += written - on_ack;
    while (p.wpos < p.log.size()) {
      const std::size_t frame_total = p.log[p.wpos].body->size() + tag_len;
      if (p.front_written < frame_total) break;
      p.front_written -= frame_total;
      ++p.wpos;
    }
  }

  /// A link died (EOF, error, broken stream): the supervisor takes over and,
  /// when we are the link's initiator, re-dials with backoff.
  void close_link(NodeId j, Peer& p) {
    drop_fd(p);
    schedule_redial(j, p, /*reset_backoff=*/true);
  }

  /// What a pollfds_ entry (beyond the wakeup fd) refers to.
  enum class FdKind : std::uint8_t { kPeer, kDial, kListen, kAccept };
  struct PollOwner {
    FdKind kind;
    NodeId idx;  ///< peer id (kPeer/kDial) or accepts_ index (kAccept)
  };

  int listen_fd_;
  const bool nodelay_;
  Rng jitter_rng_;
  std::vector<Peer> peers_;
  /// Links adopted at least once (setup_links returns when all n-1 are).
  std::size_t linked_ = 0;
  /// Mesh setup deadline while setup_links runs; -1 once the mesh is up.
  SimTime mesh_deadline_ = -1;
  std::priority_queue<HeldFrame, std::vector<HeldFrame>, HeldLater> held_;
  /// Pooled scratch reused across the node's lifetime (no per-iteration or
  /// per-read allocations in the steady state).
  std::vector<std::uint8_t> rbuf_;
  std::vector<pollfd> pollfds_;
  std::vector<PollOwner> owners_;
  std::vector<iovec> iov_;
  std::vector<std::uint8_t> stage_;
  std::vector<PendingAccept> accepts_;
};

// ------------------------------------------------------------------ Cluster

TcpCluster::TcpCluster(const Options& opts)
    : SocketCluster(opts, "TcpCluster"), nodelay_(opts.nodelay) {}

int TcpCluster::bind_socket(std::uint16_t& port) {
  return bind_listen_socket(port);
}

std::unique_ptr<ClusterNode> TcpCluster::make_node(NodeArgs args) {
  return std::make_unique<Node>(args, nodelay_);
}

}  // namespace delphi::transport
