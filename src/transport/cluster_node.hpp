#pragma once
/// \file cluster_node.hpp
/// The link-layer side of the socket-cluster core (transport/cluster.hpp):
/// the node base class each link derives its node from, and the socket
/// helpers both links use. Included only by the core and the two links.

#include <netinet/in.h>

#include <chrono>
#include <deque>
#include <string>
#include <utility>

#include "transport/cluster.hpp"

namespace delphi::transport {

using Clock = std::chrono::steady_clock;

[[noreturn]] void sys_fail(const std::string& what);
void set_nonblocking(int fd);
sockaddr_in loopback_addr(std::uint16_t port);

/// Bind a TCP listen socket on 127.0.0.1:`port` (blocking). Port 0 asks the
/// OS for one and writes it back; a nonzero port is a restarted node
/// reclaiming its published identity (peers re-dial the port they were given
/// at cluster start; SO_REUSEADDR beats the old socket's lingering state).
int bind_listen_socket(std::uint16_t& port);

/// Bind a non-blocking UDP socket on 127.0.0.1:`port` with roomy buffers
/// (a whole burst window may release at one instant). Port 0 asks the OS
/// for one and writes it back; a nonzero port is a restarted node
/// reclaiming its identity (SO_REUSEADDR).
int bind_udp_socket(std::uint16_t& port);

/// What the core hands a link's node constructor.
struct NodeArgs {
  NodeId self;
  const ClusterOptions& opts;
  const crypto::KeyStore& keys;
  const std::vector<std::uint16_t>& ports;
  int fd;  ///< the node's socket from SocketCluster::bind_socket
  Clock::time_point epoch;
  std::unique_ptr<net::Protocol> protocol;
  /// Recreates the protocol for a snapshot restore; set iff the cluster
  /// has a churn schedule. (That is all a schedule switches on: the links
  /// run one lifecycle, churn or not.)
  std::function<std::unique_ptr<net::Protocol>()> rebuild;
  Decoder decoder;
  net::WakeupFd& done_wake;
};

/// One node: its protocol's net::Context, the thread body, and the churn
/// state machine. The link derives from it and supplies the I/O.
class ClusterNode : public net::Context {
 public:
  explicit ClusterNode(NodeArgs& args);

  // ---- net::Context -------------------------------------------------------
  NodeId self() const override { return self_; }
  std::size_t n() const override { return opts_.n; }
  /// Microseconds since the cluster's shared epoch — the clock the netem
  /// shim and the churn schedule run on (cluster-relative, like sim time).
  SimTime now() const override { return now_us(); }
  void send(NodeId to, std::uint32_t channel, net::MessagePtr msg) override;
  void broadcast(std::uint32_t channel, net::MessagePtr msg) override;
  void charge_compute(SimTime) override {}  // real cycles are already spent
  Rng& rng() override { return rng_; }

  /// Entire node life: link setup, protocol start, event loop. Runs on the
  /// node's own thread; never touches other nodes.
  void run(const std::atomic<bool>& stop);

  /// Interrupt this node's (possibly indefinite) poll. Any thread.
  void wake() noexcept { wake_.signal(); }

  std::atomic<bool> done{false};
  /// This node finished link setup and is about to start its protocol.
  std::atomic<bool> meshed{false};
  /// This node's thread has returned from run() (error or stop).
  std::atomic<bool> exited{false};

  net::Protocol& protocol() { return *protocol_; }
  const TransportMetrics& metrics() const { return metrics_; }
  const std::string& error() const { return error_; }

 protected:
  /// Bring the links up before the protocol starts (default: nothing to
  /// set up). Returns false if a stop request interrupted it, which is not
  /// this node's failure.
  virtual bool setup_links(const std::atomic<bool>&) { return true; }
  /// Queue one encoded frame for peer `to` (never self).
  virtual void enqueue_frame(NodeId to, const SharedFrameBody& body) = 0;
  /// One pass of the link's event loop: write what is due, block in poll(2)
  /// until socket activity, a wakeup or the next timer, then read.
  virtual void poll_once() = 0;
  /// The link's share of going dark (close its sockets) and of coming back
  /// up (rebind its port); the core handles the protocol around them.
  virtual void links_down() = 0;
  virtual void links_up() = 0;

  SimTime now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 epoch_)
        .count();
  }
  /// poll(2) timeout in ms until `at` (µs since the epoch); -1 (block) when
  /// `at` < 0.
  int poll_ms(SimTime at) const;
  /// This node's next go-dark time, -1 when its schedule is used up.
  SimTime next_down() const {
    return next_window_ < windows_.size() ? windows_[next_window_].down_us : -1;
  }

  /// Deliver every queued self-message (handlers may enqueue more).
  void drain_local();
  void dispatch(NodeId from, std::uint32_t channel,
                const net::MessageBody& body);
  void note_termination();

  const NodeId self_;
  const ClusterOptions opts_;
  const crypto::KeyStore& keys_;
  const std::vector<std::uint16_t> ports_;
  Decoder decoder_;
  net::WakeupFd wake_;
  TransportMetrics metrics_;
  /// Inside a churn window: every socket is closed.
  bool down_ = false;

 private:
  void event_loop(const std::atomic<bool>& stop);
  /// Drive this node's own restart schedule.
  void churn_tick();
  void go_down(SimTime up_at);
  void come_up();
  void restore_protocol();
  /// The dark window: nothing to do but wait for the restart clock or the
  /// cluster stop signal (re-checked by the caller's loop on return).
  void park_dark();

  Clock::time_point epoch_;
  std::unique_ptr<net::Protocol> protocol_;
  std::function<std::unique_ptr<net::Protocol>()> rebuild_;
  net::WakeupFd& done_wake_;
  Rng rng_;
  std::deque<std::pair<std::uint32_t, net::MessagePtr>> local_;
  /// This node's own restart schedule (sorted by down_us) and dark state.
  std::vector<ChurnWindow> windows_;
  std::size_t next_window_ = 0;
  SimTime up_at_ = 0;
  SimTime down_since_ = 0;
  /// Serialized RestartableProtocol state across a dark window.
  std::vector<std::uint8_t> snapshot_;
  bool have_snapshot_ = false;
  std::string error_;
};

}  // namespace delphi::transport
