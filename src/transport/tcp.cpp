#include "transport/tcp.hpp"

#include <netinet/tcp.h>
#include <poll.h>
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

/// First bytes on every link: magic + the initiator's node id, plus (on
/// authenticated deployments) an HMAC tag under the pairwise key — without
/// it, a keyless attacker racing the mesh bring-up could claim a legitimate
/// node id and black-hole that link (frames would fail their MACs, but the
/// real peer's connection would already have been rejected as a duplicate).
constexpr std::uint32_t kHelloMagic = 0x44504849;  // "IHPD" LE == "DPHI"
constexpr std::size_t kHelloPrefixSize = 8;

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

/// Recovery-mode hellos (clusters with a churn schedule) append a u64 after
/// the prefix: how many complete frames the sender has received from the
/// destination on this link across all its incarnations. The other side
/// replays exactly the suffix of its send log the count says is missing.
/// Legacy (churn-free) hellos stay byte-identical to the pre-recovery wire
/// format.
std::size_t hello_size(bool auth, bool recovery = false) {
  return kHelloPrefixSize + (recovery ? 8 : 0) +
         (auth ? crypto::kMacTagSize : 0);
}

crypto::Digest hello_tag(const crypto::Key& key, NodeId initiator,
                         const std::uint64_t* recv = nullptr) {
  ByteWriter w(24);
  w.u32(kHelloMagic);
  w.u32(initiator);
  if (recv != nullptr) w.u64(*recv);  // tag covers the receive count
  w.str("hello");
  return crypto::hmac_sha256(key, w.data());
}

/// How long a reconnect attempt or a pending steady-state accept may sit
/// without completing its hello before it is declared half-open and dropped.
constexpr SimTime kDialTimeoutUs = 2'000'000;

/// Per-link replay log byte budget in recovery mode. Drop-oldest beyond it
/// (graceful degradation: a rejoining peer that out-lived the budget misses
/// the dropped prefix and relies on protocol-level redundancy).
constexpr std::size_t kReplayBudgetBytes = std::size_t{32} << 20;

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking connect with retry until `deadline` (peers may not be accepting
/// yet while the cluster boots).
int connect_with_retry(std::uint16_t port, Clock::time_point deadline) {
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket");
    sockaddr_in addr = loopback_addr(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (Clock::now() >= deadline) {
      throw Error("tcp: connect deadline exceeded (port " +
                  std::to_string(port) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Write all of `data` on a (blocking) fd.
void write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t k = ::write(fd, data.data() + off, data.size() - off);
    if (k <= 0) sys_fail("write(hello)");
    off += static_cast<std::size_t>(k);
  }
}

std::vector<std::uint8_t> encode_hello(NodeId self, const crypto::Key* key,
                                       const std::uint64_t* recv = nullptr) {
  ByteWriter w(hello_size(key != nullptr, recv != nullptr));
  w.u32(kHelloMagic);
  w.u32(self);
  if (recv != nullptr) w.u64(*recv);
  if (key != nullptr) w.raw(hello_tag(*key, self, recv));
  return w.take();
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

// --------------------------------------------------------------------- Node

class TcpCluster::Node final : public ClusterNode {
 public:
  Node(NodeArgs& args, bool nodelay)
      : ClusterNode(args),
        listen_fd_(args.fd),
        nodelay_(nodelay),
        // Backoff jitter gets its own deterministic stream so the
        // supervisor never perturbs the protocol's rng() draws.
        jitter_rng_(opts_.seed ^ (0xc2b2ae3d27d4eb4fULL * (self_ + 2))),
        recovery_(!opts_.churn.empty()) {
    peers_.resize(opts_.n);
    for (NodeId j = 0; j < opts_.n; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      if (opts_.auth) {
        // One HMAC key schedule per link lifetime: the midstates serve both
        // outgoing tags and the parser's verification.
        p.mac.emplace(keys_.channel_key(self_, j));
        p.parser = FrameParser(&*p.mac);
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
    std::deque<PendingFrame> outq;
    /// Bytes of outq.front() already on the wire (may point into the tag).
    std::size_t front_written = 0;
    /// Last writev hit EAGAIN: wait for POLLOUT instead of re-trying.
    bool blocked = false;

    // ---- recovery mode only (inert without a churn schedule) ----
    /// Frames ever enqueued on this link (== log_start + log.size()).
    std::uint64_t sent_count = 0;
    /// Sequence number of log.front(); earlier frames fell off the budget.
    std::uint64_t log_start = 0;
    /// Bounded replay log of sent frames (drop-oldest past the byte
    /// budget). A rejoining peer's hello says how many frames it received;
    /// the suffix beyond that is replayed.
    std::deque<PendingFrame> log;
    std::size_t log_bytes = 0;
    /// Complete frames parsed from this peer across all link incarnations
    /// (the cumulative ack our hellos carry).
    std::uint64_t recv_count = 0;
    // Re-dial state machine (this side dials iff self > peer id, mirroring
    // the bring-up rule).
    int dial_fd = -1;
    bool dial_hello_sent = false;
    std::vector<std::uint8_t> dial_buf;  ///< reply-hello bytes so far
    SimTime redial_at = -1;              ///< next attempt (-1: none due)
    SimTime dial_deadline = 0;           ///< abort a stalled attempt
    std::uint32_t redial_attempts = 0;
  };

  /// An accepted connection whose hello has not fully arrived; dropped at
  /// `deadline` (half-open / slow-loris defense on the steady-state path).
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

  void enqueue_frame(NodeId to, const SharedFrameBody& body) override {
    Peer& p = peers_[to];
    // Counted at enqueue (matches the simulator's send-time accounting and
    // the pre-overhaul data plane), even if the link has died since.
    ++metrics_.msgs_sent;
    metrics_.bytes_sent += frame_wire_size(*body, p.mac.has_value());
    if (!recovery_ && p.fd < 0) {
      return;  // link closed for good: bytes would never reach the wire
    }
    PendingFrame pf;
    pf.body = body;
    if (p.mac.has_value()) pf.tag = frame_tag(*p.mac, *body);
    if (recovery_) log_frame(p, pf);
    if (p.fd < 0) return;  // link down: the log replays this on reconnect
    if (p.shim.active()) {
      const SimTime now = now_us();
      const auto v =
          p.shim.on_send(now, frame_wire_size(*body, p.mac.has_value()));
      // Delay-only on TCP (drop verdicts ignored — see Options): a
      // future release parks the frame on the holdback heap; the event loop
      // moves it to the outq when due.
      if (v.release_us > now) {
        held_.push({v.release_us, v.order, to, std::move(pf)});
        return;
      }
    }
    p.outq.push_back(std::move(pf));
  }

  /// Move every held frame whose release time has arrived onto its link's
  /// output queue, in (release, order) order — which realizes the burst
  /// adversary's within-window LIFO on a real stream.
  void release_held(SimTime now) {
    while (!held_.empty() && held_.top().release <= now) {
      HeldFrame h = std::move(const_cast<HeldFrame&>(held_.top()));
      held_.pop();
      Peer& p = peers_[h.to];
      if (p.fd >= 0) p.outq.push_back(std::move(h.frame));
    }
  }

  // ---- recovery plane -----------------------------------------------------

  /// Append a sent frame to the link's bounded replay log (drop-oldest past
  /// the byte budget — graceful degradation while the peer is down).
  void log_frame(Peer& p, const PendingFrame& pf) {
    const bool auth = p.mac.has_value();
    ++p.sent_count;
    p.log.push_back(pf);
    p.log_bytes += frame_wire_size(*pf.body, auth);
    while (p.log_bytes > kReplayBudgetBytes && !p.log.empty()) {
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth);
      p.log.pop_front();
      ++p.log_start;
    }
  }

  /// Validate a recovery hello claiming to come from `expect`; extracts the
  /// sender's receive count on success.
  bool check_hello(std::span<const std::uint8_t> buf, NodeId expect,
                   std::uint64_t& recv_out) const {
    ByteReader r(buf);
    if (r.u32() != kHelloMagic) return false;
    if (r.u32() != expect) return false;
    recv_out = r.u64();
    if (!opts_.auth) return true;
    crypto::Digest received;
    const auto tag = r.raw(crypto::kMacTagSize);
    std::memcpy(received.data(), tag.data(), received.size());
    return crypto::digest_equal(
        hello_tag(keys_.channel_key(self_, expect), expect, &recv_out),
        received);
  }

  static NodeId claimed_id(std::span<const std::uint8_t> buf) {
    ByteReader r(buf);
    r.u32();  // magic (checked later by check_hello)
    return r.u32();
  }

  /// Arm the next dial attempt for a lower-id peer: exponential backoff
  /// (2 ms base, doubling per failure, 250 ms cap) plus deterministic
  /// jitter from the node's seeded jitter stream. Higher-id peers re-dial
  /// us, so for them this is a no-op. Gives up once the next attempt would
  /// land past the cluster deadline (capped retries).
  void schedule_redial(NodeId j, Peer& p, bool reset_backoff) {
    if (j >= self_) return;  // that side initiates (same rule as bring-up)
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
  /// re-dials, and drop half-open pending accepts.
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

  /// Begin one non-blocking reconnect attempt to a lower-id peer.
  void start_dial(NodeId j, Peer& p) {
    p.redial_at = -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(redial)");
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
  }

  /// Advance a reconnect attempt: finish the connect, send our hello (with
  /// our receive count for this link), then read and verify the peer's
  /// reply before adopting the socket.
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
      const crypto::Key* key =
          opts_.auth ? &keys_.channel_key(self_, j) : nullptr;
      const std::uint64_t recv = p.recv_count;
      if (!write_fully(p.dial_fd, encode_hello(self_, key, &recv))) {
        fail_dial(j, p);
        return;
      }
      p.dial_hello_sent = true;
      return;
    }
    const std::size_t want = hello_size(opts_.auth, true);
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
    adopt_link(j, p, fd, peer_recv);
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

  /// Steady-state accept path: a known higher-id peer is re-establishing
  /// its link (it restarted, or we did and it noticed the EOF). Hellos
  /// complete asynchronously in progress_accepts() under a deadline.
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
    const std::size_t want = hello_size(opts_.auth, true);
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
        if (who > self_ && who < opts_.n &&
            check_hello(pa.buf, who, peer_recv)) {
          // Reply with our receive count; the dialer replays its
          // undelivered suffix symmetrically once it has read it.
          Peer& p = peers_[who];
          const crypto::Key* key =
              opts_.auth ? &keys_.channel_key(self_, who) : nullptr;
          const std::uint64_t recv = p.recv_count;
          if (write_fully(pa.fd, encode_hello(self_, key, &recv))) {
            adopt_link(who, p, pa.fd, peer_recv);
          } else {
            ::close(pa.fd);
          }
        } else {
          ::close(pa.fd);  // stranger, forger, or nonsense: reject
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

  /// Install a freshly handshaken socket as peer j's link and replay the
  /// log suffix the peer's hello says it is missing. A still-open old fd is
  /// replaced (reconnect-during-handshake race: the newest handshake wins).
  void adopt_link(NodeId j, Peer& p, int fd, std::uint64_t peer_recv) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = fd;
    p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
    p.outq.clear();
    p.front_written = 0;
    p.blocked = false;
    p.redial_at = -1;
    drop_held_for(j);
    ++metrics_.reconnects;
    replay_to(p, peer_recv);
  }

  /// Remove netem-held frames destined to j: they are in the replay log,
  /// and the fresh handshake replays them — releasing the held copies too
  /// would deliver duplicates.
  void drop_held_for(NodeId j) {
    if (held_.empty()) return;
    std::vector<HeldFrame> keep;
    keep.reserve(held_.size());
    while (!held_.empty()) {
      HeldFrame h = std::move(const_cast<HeldFrame&>(held_.top()));
      held_.pop();
      if (h.to != j) keep.push_back(std::move(h));
    }
    for (auto& h : keep) held_.push(std::move(h));
  }

  /// Queue the log suffix beyond the peer's cumulative receive count.
  /// Counted as catch-up traffic, never as new sends — honest-byte parity
  /// across substrates is preserved by construction.
  void replay_to(Peer& p, std::uint64_t peer_recv) {
    const bool auth = p.mac.has_value();
    while (!p.log.empty() && p.log_start < peer_recv) {
      // The hello's receive count acknowledges this prefix: prune it.
      p.log_bytes -= frame_wire_size(*p.log.front().body, auth);
      p.log.pop_front();
      ++p.log_start;
    }
    for (const PendingFrame& pf : p.log) {
      ++metrics_.catchup_frames;
      metrics_.catchup_bytes += frame_wire_size(*pf.body, auth);
      p.outq.push_back(pf);
    }
  }

  /// Going dark: close every socket (peers observe EOF / refused
  /// connections) and drop all in-flight link state.
  void links_down() override {
    for (NodeId j = 0; j < opts_.n; ++j) {
      if (j == self_) continue;
      Peer& p = peers_[j];
      if (p.fd >= 0) {
        ::close(p.fd);
        p.fd = -1;
      }
      p.outq.clear();
      p.front_written = 0;
      p.blocked = false;
      p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
      abort_dial(p);
      p.redial_at = -1;
    }
    for (auto& pa : accepts_) ::close(pa.fd);
    accepts_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    held_ = {};  // held frames are all in the replay logs already
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

  /// Establish the full mesh: connect to every lower id, accept from every
  /// higher id, exchanging an 8-byte hello to bind fds to node ids. Returns
  /// false if a stop request interrupted it.
  bool setup_links(const std::atomic<bool>& stop) override {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(opts_.timeout_ms);
    for (NodeId j = 0; j < self_; ++j) {
      const crypto::Key* key =
          opts_.auth ? &keys_.channel_key(self_, j) : nullptr;
      while (true) {
        const int fd = connect_with_retry(ports_[j], deadline);
        if (!recovery_) {
          write_all(fd, encode_hello(self_, key));
          if (nodelay_) set_nodelay(fd);
          set_nonblocking(fd);
          peers_[j].fd = fd;
          break;
        }
        // Recovery handshakes are two-way and the peer may churn dark in
        // the middle of one — a dead socket means "connect again", not a
        // mesh failure.
        if (bringup_handshake(j, fd, key, deadline)) break;
      }
    }

    // Accept the n - 1 - self higher-id initiators.
    set_nonblocking(listen_fd_);
    std::size_t expected = opts_.n - 1 - self_;
    struct PendingHello {
      int fd;
      std::vector<std::uint8_t> buf;
    };
    std::vector<PendingHello> pending;
    while (expected > 0 && !stop.load(std::memory_order_relaxed)) {
      if (Clock::now() >= deadline) throw Error("tcp: mesh setup timeout");
      std::vector<pollfd> fds;
      fds.push_back({wake_.fd(), POLLIN, 0});
      fds.push_back({listen_fd_, POLLIN, 0});
      for (const auto& ph : pending) fds.push_back({ph.fd, POLLIN, 0});
      ::poll(fds.data(), fds.size(), 10);
      if (fds[0].revents != 0) wake_.drain();  // stop re-checked above

      // New connections.
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (nodelay_) set_nodelay(fd);
        set_nonblocking(fd);
        pending.push_back({fd, {}});
      }
      // Progress hellos.
      const std::size_t want = hello_size(opts_.auth, recovery_);
      for (std::size_t i = 0; i < pending.size();) {
        auto& ph = pending[i];
        std::uint8_t tmp[64];
        const ssize_t k = ::read(ph.fd, tmp, want - ph.buf.size());
        if (k > 0) {
          ph.buf.insert(ph.buf.end(), tmp, tmp + k);
        }
        if (ph.buf.size() == want) {
          ByteReader r(ph.buf);
          const std::uint32_t magic = r.u32();
          const NodeId who = r.u32();
          bool genuine = magic == kHelloMagic && who > self_ &&
                         who < opts_.n && peers_[who].fd < 0;
          if (genuine && recovery_) {
            std::uint64_t peer_recv = 0;
            genuine = check_hello(ph.buf, who, peer_recv);
            if (genuine) {
              // Two-way: reply with our receive count (zero at bring-up);
              // the dialer reads it before sending any frame.
              const crypto::Key* key =
                  opts_.auth ? &keys_.channel_key(self_, who) : nullptr;
              const std::uint64_t recv = peers_[who].recv_count;
              genuine = write_fully(ph.fd, encode_hello(self_, key, &recv));
            }
          } else if (genuine && opts_.auth) {
            crypto::Digest received;
            auto tag = r.raw(crypto::kMacTagSize);
            std::memcpy(received.data(), tag.data(), received.size());
            const auto expected_tag =
                hello_tag(keys_.channel_key(self_, who), who);
            genuine = crypto::digest_equal(expected_tag, received);
          }
          if (genuine) {
            peers_[who].fd = ph.fd;
            --expected;
          } else {
            ::close(ph.fd);  // stranger, forger, or duplicate: reject
          }
          pending[i] = pending.back();
          pending.pop_back();
        } else if (k == 0) {  // peer hung up mid-hello
          ::close(ph.fd);
          pending[i] = pending.back();
          pending.pop_back();
        } else {
          ++i;
        }
      }
    }
    for (const auto& ph : pending) ::close(ph.fd);
    return expected == 0;
  }

  /// One bring-up attempt of the two-way recovery hello on a freshly
  /// connected (still blocking) socket. Returns false with the socket
  /// closed if the peer died mid-handshake — the caller reconnects; throws
  /// only on the cluster-wide setup deadline.
  bool bringup_handshake(NodeId j, int fd, const crypto::Key* key,
                         Clock::time_point deadline) {
    const std::uint64_t recv = peers_[j].recv_count;
    const auto hello = encode_hello(self_, key, &recv);
    std::size_t woff = 0;
    while (woff < hello.size()) {
      const ssize_t k = ::write(fd, hello.data() + woff, hello.size() - woff);
      if (k <= 0) {
        ::close(fd);
        return false;
      }
      woff += static_cast<std::size_t>(k);
    }
    std::vector<std::uint8_t> buf;
    const std::size_t want = hello_size(opts_.auth, true);
    while (buf.size() < want) {
      if (Clock::now() >= deadline) {
        ::close(fd);
        throw Error("tcp: mesh setup timeout (hello reply)");
      }
      pollfd pf{fd, POLLIN, 0};
      ::poll(&pf, 1, 10);
      if (pf.revents == 0) continue;
      std::uint8_t tmp[64];
      const ssize_t k = ::read(fd, tmp, want - buf.size());
      if (k <= 0) {
        ::close(fd);
        return false;
      }
      buf.insert(buf.end(), tmp, tmp + k);
    }
    std::uint64_t peer_recv = 0;
    if (!check_hello(buf, j, peer_recv)) {
      ::close(fd);
      return false;
    }
    if (nodelay_) set_nodelay(fd);
    set_nonblocking(fd);
    peers_[j].fd = fd;
    return true;
  }

  /// One event-driven pass: write everything writable, then block in
  /// poll(2) — without a timeout unless a timer is due — until socket
  /// activity or a wakeup signal. No sleep ticks anywhere.
  void poll_once() override {
    if (recovery_) supervisor_tick();
    if (!held_.empty()) release_held(now_us());
    flush_pending();

    pollfds_.clear();
    owners_.clear();
    pollfds_.push_back({wake_.fd(), POLLIN, 0});
    owners_.push_back({FdKind::kPeer, self_});  // placeholder, aligned
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0) {
        short events = POLLIN;
        if (p.blocked && !p.outq.empty()) events |= POLLOUT;
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
    if (recovery_ && listen_fd_ >= 0) {
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
    if (recovery_ && !accepts_.empty()) progress_accepts();
    note_termination();
  }

  /// Next forced poll wakeup: netem releases, our own churn transitions,
  /// due re-dials, dial/accept handshake deadlines. -1 (block forever)
  /// when none apply — the common, churn-free steady state.
  int poll_timeout() const {
    SimTime at = -1;
    const auto consider = [&at](SimTime t) {
      if (t >= 0 && (at < 0 || t < at)) at = t;
    };
    if (!held_.empty()) consider(held_.top().release);
    if (recovery_) {
      consider(next_down());
      for (const Peer& p : peers_) {
        consider(p.redial_at);
        if (p.dial_fd >= 0) consider(p.dial_deadline);
      }
      for (const auto& pa : accepts_) consider(pa.deadline);
    }
    return poll_ms(at);
  }

  /// Opportunistic write pass: one gathered writev per peer with pending
  /// frames (peers that already hit EAGAIN wait for POLLOUT instead).
  void flush_pending() {
    for (NodeId j = 0; j < opts_.n; ++j) {
      Peer& p = peers_[j];
      if (p.fd >= 0 && !p.blocked && !p.outq.empty()) flush_peer(j, p);
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
      // A fully parsed frame advances the cumulative ack our recovery
      // hellos carry, decodable payload or not (the sender counts frames
      // written the same way).
      if (recovery_) ++p.recv_count;
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

  /// Gather queued frames (shared bodies + per-link tags) into iovecs and
  /// push them with as few writev(2) calls as the socket accepts.
  void flush_peer(NodeId j, Peer& p) {
    const std::size_t tag_len =
        p.mac.has_value() ? crypto::kMacTagSize : 0;
    while (!p.outq.empty()) {
      iov_.clear();
      stage_.clear();

      // The (possibly partially written) front frame goes out directly.
      auto it = p.outq.begin();
      {
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
      for (auto jt = it; jt != p.outq.end(); ++jt) {
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
        advance_outq(p, static_cast<std::size_t>(k), tag_len);
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

  /// Retire fully-written frames after a writev of `written` bytes.
  void advance_outq(Peer& p, std::size_t written, std::size_t tag_len) {
    p.front_written += written;
    while (!p.outq.empty()) {
      const std::size_t frame_total = p.outq.front().body->size() + tag_len;
      if (p.front_written < frame_total) break;
      p.front_written -= frame_total;
      p.outq.pop_front();
    }
  }

  void close_link(NodeId j, Peer& p) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.outq.clear();
    p.front_written = 0;
    p.blocked = false;
    if (recovery_ && !down_) {
      // Supervisor takes over: fresh parser for the next incarnation and,
      // when we are the link's initiator, a backoff-paced re-dial.
      p.parser = FrameParser(p.mac.has_value() ? &*p.mac : nullptr);
      schedule_redial(j, p, /*reset_backoff=*/true);
    }
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
  const bool recovery_;
  std::vector<Peer> peers_;
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
