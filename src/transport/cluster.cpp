#include "transport/cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "transport/cluster_node.hpp"

namespace delphi::transport {

// ----------------------------------------------------------- socket helpers

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

namespace {

/// socket(2) + bind(2) on 127.0.0.1:`port`, resolving an OS-assigned port
/// into `port`. The fd is closed on any failure.
int bind_loopback(int type, std::uint16_t& port, bool reuse_addr) {
  const char* kind = type == SOCK_STREAM ? "tcp" : "udp";
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) sys_fail(std::string("socket(") + kind + ")");
  const int one = 1;
  if (reuse_addr) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_in addr = loopback_addr(port);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) < 0) {
    ::close(fd);
    sys_fail(std::string("bind(") + kind + " port " + std::to_string(port) +
             ")");
  }
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    sys_fail(std::string("getsockname(") + kind + ")");
  }
  port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

int bind_listen_socket(std::uint16_t& port) {
  const int fd = bind_loopback(SOCK_STREAM, port, /*reuse_addr=*/true);
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    sys_fail("listen");
  }
  return fd;
}

int bind_udp_socket(std::uint16_t& port) {
  const int fd = bind_loopback(SOCK_DGRAM, port, /*reuse_addr=*/port != 0);
  const int bufsz = 1 << 20;  // best-effort: drops are recoverable anyway
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  set_nonblocking(fd);
  return fd;
}

// --------------------------------------------------------------------- Node

ClusterNode::ClusterNode(NodeArgs& args)
    : self_(args.self),
      opts_(args.opts),
      keys_(args.keys),
      ports_(args.ports),
      decoder_(std::move(args.decoder)),
      epoch_(args.epoch),
      protocol_(std::move(args.protocol)),
      rebuild_(std::move(args.rebuild)),
      done_wake_(args.done_wake),
      rng_(opts_.seed ^ (0x9e3779b97f4a7c15ULL * (self_ + 1))) {
  for (const auto& w : opts_.churn) {
    if (w.id == self_) windows_.push_back(w);
  }
  std::sort(windows_.begin(), windows_.end(),
            [](const ChurnWindow& a, const ChurnWindow& b) {
              return a.down_us < b.down_us;
            });
}

void ClusterNode::send(NodeId to, std::uint32_t channel, net::MessagePtr msg) {
  DELPHI_ASSERT(to < opts_.n, "send: bad destination");
  if (to == self_) {
    local_.emplace_back(channel, std::move(msg));
    return;
  }
  enqueue_frame(to, encode_frame_body(channel, *msg, opts_.auth));
}

void ClusterNode::broadcast(std::uint32_t channel, net::MessagePtr msg) {
  // One serialization for all destinations: the body (length prefix +
  // channel + payload) is immutable and shared; the link attaches what is
  // per-destination (tag, sequence number) at enqueue.
  const SharedFrameBody body = encode_frame_body(channel, *msg, opts_.auth);
  for (NodeId j = 0; j < opts_.n; ++j) {
    if (j == self_) {
      local_.emplace_back(channel, msg);
    } else {
      enqueue_frame(j, body);
    }
  }
}

void ClusterNode::run(const std::atomic<bool>& stop) {
  try {
    // A stop that interrupts setup is not this node's failure: the cluster
    // is shutting down for another reason (the deadline), and the node
    // simply never starts its protocol.
    if (setup_links(stop)) {
      meshed.store(true, std::memory_order_release);
      done_wake_.signal();
      protocol_->on_start(*this);
      drain_local();
      note_termination();
      event_loop(stop);
    }
  } catch (const std::exception& e) {
    error_ = e.what();
  }
  if (have_snapshot_) {
    // Stopped (or died) while dark: rebuild the protocol from its snapshot
    // so outputs stay harvestable after the join.
    try {
      restore_protocol();
    } catch (const std::exception& e) {
      if (error_.empty()) error_ = e.what();
    }
  }
  // A thread that exits un-terminated is dead for good; wake wait() so it
  // can fail fast instead of sleeping out the whole deadline.
  exited.store(true, std::memory_order_release);
  done_wake_.signal();
}

void ClusterNode::event_loop(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    if (!windows_.empty()) {
      churn_tick();
      if (down_) {
        park_dark();
        continue;
      }
    }
    poll_once();
  }
}

int ClusterNode::poll_ms(SimTime at) const {
  if (at < 0) return -1;
  const SimTime ms = (at - now_us()) / 1000 + 1;
  return static_cast<int>(std::clamp<SimTime>(ms, 0, 60'000));
}

void ClusterNode::drain_local() {
  while (!local_.empty()) {
    auto [channel, msg] = std::move(local_.front());
    local_.pop_front();
    dispatch(self_, channel, *msg);
  }
}

void ClusterNode::dispatch(NodeId from, std::uint32_t channel,
                           const net::MessageBody& body) {
  try {
    protocol_->on_message(*this, from, channel, body);
    ++metrics_.msgs_delivered;
  } catch (const Error&) {
    ++metrics_.malformed_dropped;
  }
}

void ClusterNode::note_termination() {
  if (protocol_ == nullptr) return;  // dark window of a snapshot restart
  if (!done.load(std::memory_order_relaxed) && protocol_->terminated()) {
    done.store(true, std::memory_order_release);
    done_wake_.signal();  // wait() blocks on this instead of a timer
  }
}

void ClusterNode::churn_tick() {
  if (!down_ && next_window_ < windows_.size() &&
      now_us() >= windows_[next_window_].down_us) {
    go_down(windows_[next_window_].up_us);
    ++next_window_;
  }
  if (down_ && now_us() >= up_at_) come_up();
}

void ClusterNode::go_down(SimTime up_at) {
  down_ = true;
  up_at_ = up_at;
  down_since_ = now_us();
  links_down();
  // A RestartableProtocol is serialized and destroyed — the rejoin rebuilds
  // it from bytes, proving the snapshot path end to end. Other protocols
  // keep their in-memory state across the dark window and rely on the
  // link's catch-up (TCP replay, UDP retransmission).
  if (auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get())) {
    ByteWriter w(256);
    rp->snapshot(w);
    snapshot_ = w.take();
    have_snapshot_ = true;
    protocol_.reset();
  }
}

void ClusterNode::come_up() {
  down_ = false;
  metrics_.downtime_us += static_cast<std::uint64_t>(now_us() - down_since_);
  links_up();
  if (have_snapshot_) restore_protocol();
  drain_local();
  note_termination();
}

void ClusterNode::restore_protocol() {
  protocol_ = rebuild_();
  auto* rp = dynamic_cast<net::RestartableProtocol*>(protocol_.get());
  DELPHI_ASSERT(rp != nullptr, "restart: factory lost snapshot support");
  ByteReader r(snapshot_);
  rp->restore(r);
  snapshot_.clear();
  have_snapshot_ = false;
}

void ClusterNode::park_dark() {
  pollfd pf{wake_.fd(), POLLIN, 0};
  ::poll(&pf, 1, poll_ms(up_at_));
  if (pf.revents != 0) wake_.drain();
}

// ------------------------------------------------------------------ Cluster

namespace {

/// Checked before any member is built from the options (the key store
/// itself rejects n = 0, but not with a ConfigError).
const ClusterOptions& validated(const ClusterOptions& opts, const char* name) {
  const std::string who = std::string(name) + ": ";
  if (opts.n < 1) throw ConfigError(who + "n must be >= 1");
  for (const auto& w : opts.churn) {
    if (w.id >= opts.n) throw ConfigError(who + "churn id out of range");
    if (w.up_us <= w.down_us) {
      throw ConfigError(who + "churn window needs up_us > down_us");
    }
  }
  return opts;
}

}  // namespace

SocketCluster::SocketCluster(const ClusterOptions& opts, const char* name)
    : opts_(validated(opts, name)), keys_(opts.seed, opts.n), ports_(opts.n, 0) {}

SocketCluster::~SocketCluster() {
  request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void SocketCluster::request_stop() {
  stop_.store(true);
  for (auto& node : nodes_) node->wake();
}

void SocketCluster::start(const ProtocolFactory& factory, Decoder decoder) {
  DELPHI_ASSERT(!started_, "cluster: start() called twice");
  started_ = true;
  factory_ = factory;

  // Bind every socket before any thread runs: a TCP connect() must find a
  // live backlog, and a datagram sent to an unbound UDP port would vanish.
  std::vector<int> fds(opts_.n, -1);
  for (NodeId i = 0; i < opts_.n; ++i) fds[i] = bind_socket(ports_[i]);
  // One shared epoch so every node's shim schedules partition heals and
  // burst windows against the same t=0 (like sim time).
  const auto epoch = Clock::now();
  nodes_.reserve(opts_.n);
  for (NodeId i = 0; i < opts_.n; ++i) {
    std::function<std::unique_ptr<net::Protocol>()> rebuild;
    if (!opts_.churn.empty()) {
      // The restart path re-creates the protocol from the same factory and
      // feeds it the snapshot; configuration is the factory's to re-supply.
      rebuild = [&f = factory_, i] { return f(i); };
    }
    nodes_.push_back(make_node({i, opts_, keys_, ports_, fds[i], epoch,
                                factory_(i), std::move(rebuild), decoder,
                                done_wake_}));
  }
  threads_.reserve(opts_.n);
  for (NodeId i = 0; i < opts_.n; ++i) {
    threads_.emplace_back([this, i] { nodes_[i]->run(stop_); });
  }
}

bool SocketCluster::wait() {
  DELPHI_ASSERT(started_, "cluster: wait() before start()");
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.timeout_ms);
  // Block on the done wakeup-fd (nodes signal termination transitions and
  // thread exits) instead of polling flags on a timer.
  while (true) {
    bool all_done = true;
    bool dead_node = false;
    bool meshing = false;
    for (const auto& node : nodes_) {
      if (node->done.load(std::memory_order_acquire)) continue;
      all_done = false;
      // An exited-but-unterminated node (setup failure, protocol exception)
      // can never become done, so the run's outcome is already a fixed
      // false — fail fast instead of sleeping out the deadline.
      if (node->exited.load(std::memory_order_acquire)) {
        dead_node = true;
      } else if (!node->meshed.load(std::memory_order_acquire)) {
        meshing = true;
      }
    }
    // Fail fast only once no live node is still in link setup: stopping one
    // there would leave it unstarted for a reason that is not its own. A
    // TCP peer that died after dialing left every connection in place, so
    // the others finish setup at once; one that died mid-setup makes its
    // peers' setup time out, as it would without the fail-fast. UDP nodes
    // have no setup phase and count as meshed from the start.
    if (all_done || (dead_node && !meshing)) break;
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{done_wake_.fd(), POLLIN, 0};
    // Clamped so arbitrarily large timeouts can't overflow poll's int arg;
    // the loop re-checks the deadline after every wakeup anyway.
    ::poll(&pfd, 1,
           static_cast<int>(std::min<std::int64_t>(remaining.count(), 60'000)));
    done_wake_.drain();
  }
  request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // With threads joined the flags are final: record who never terminated so
  // timeouts are diagnosable (which nodes, not just "false").
  unfinished_.clear();
  failures_.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->done.load(std::memory_order_acquire)) {
      unfinished_.push_back(i);
    }
    if (!nodes_[i]->error().empty()) {
      failures_.push_back({i, nodes_[i]->error()});
    }
  }
  joined_ = true;
  // The joined flags are authoritative (a node may have terminated between
  // the last poll and the join).
  return unfinished_.empty();
}

const std::vector<NodeId>& SocketCluster::unfinished() const {
  DELPHI_ASSERT(joined_, "cluster: unfinished() before wait()");
  return unfinished_;
}

const std::vector<NodeFailure>& SocketCluster::failures() const {
  DELPHI_ASSERT(joined_, "cluster: failures() before wait()");
  return failures_;
}

net::Protocol& SocketCluster::protocol(NodeId id) {
  DELPHI_ASSERT(joined_, "cluster: protocol() before wait()");
  DELPHI_ASSERT(id < nodes_.size(), "cluster: bad node id");
  return nodes_[id]->protocol();
}

const TransportMetrics& SocketCluster::metrics(NodeId id) const {
  DELPHI_ASSERT(joined_, "cluster: metrics() before wait()");
  DELPHI_ASSERT(id < nodes_.size(), "cluster: bad node id");
  return nodes_[id]->metrics();
}

std::uint16_t SocketCluster::port(NodeId id) const {
  DELPHI_ASSERT(id < ports_.size(), "cluster: bad node id");
  return ports_[id];
}

}  // namespace delphi::transport
