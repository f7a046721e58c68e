#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <utility>

#include "net/protocol.hpp"

namespace perfbench {

namespace ds = delphi::scenario;
namespace dn = delphi::net;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/// The calling thread's timer record for the run `probe` (0 = none). The
/// destructor runs when a node thread exits and closes its CPU window.
struct Slot {
  std::uint64_t probe = 0;
  ThreadTimers* timers = nullptr;
  Slot() = default;
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  ~Slot() {
    if (timers != nullptr) timers->cpu_end_ns = thread_cpu_ns();
  }
};

Slot& slot() {
  thread_local Slot s;
  return s;
}

std::atomic<std::uint64_t> next_probe_id{1};

/// Forwards to the host context, timing send/broadcast (traced runs only).
class TimedContext final : public dn::Context {
 public:
  TimedContext(dn::Context& inner, ThreadTimers& t) : inner_(inner), t_(t) {}

  delphi::NodeId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }
  delphi::SimTime now() const override { return inner_.now(); }
  void send(delphi::NodeId to, std::uint32_t channel,
            dn::MessagePtr msg) override {
    const auto t0 = now_ns();
    inner_.send(to, channel, std::move(msg));
    t_.send_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++t_.sends;
  }
  void broadcast(std::uint32_t channel, dn::MessagePtr msg) override {
    const auto t0 = now_ns();
    inner_.broadcast(channel, std::move(msg));
    t_.send_ns += static_cast<std::uint64_t>(now_ns() - t0);
    ++t_.sends;
  }
  void charge_compute(delphi::SimTime us) override {
    inner_.charge_compute(us);
  }
  delphi::Rng& rng() override { return inner_.rng(); }

 private:
  dn::Context& inner_;
  ThreadTimers& t_;
};

/// Decorates one instance's protocol on one node: stamps start and decision,
/// and in traced runs times every handler call.
class TimedProtocol final : public dn::Protocol {
 public:
  TimedProtocol(std::unique_ptr<dn::Protocol> inner, RunProbe& probe,
                Stamp& stamp)
      : inner_(std::move(inner)), probe_(probe), stamp_(stamp) {}

  void on_start(dn::Context& ctx) override {
    const auto t0 = now_ns();
    stamp_.start_ns = t0;
    if (probe_.traced()) {
      auto& t = probe_.timers();
      TimedContext tc(ctx, t);
      inner_->on_start(tc);
      t.handler_ns += static_cast<std::uint64_t>(now_ns() - t0);
    } else {
      inner_->on_start(ctx);
    }
    note_decision();
  }

  void on_message(dn::Context& ctx, delphi::NodeId from, std::uint32_t channel,
                  const dn::MessageBody& body) override {
    if (probe_.traced()) {
      auto& t = probe_.timers();
      const auto t0 = now_ns();
      TimedContext tc(ctx, t);
      inner_->on_message(tc, from, channel, body);
      t.handler_ns += static_cast<std::uint64_t>(now_ns() - t0);
      ++t.deliveries;
    } else {
      inner_->on_message(ctx, from, channel, body);
    }
    note_decision();
  }

  bool terminated() const override { return inner_->terminated(); }

  const dn::Protocol& inner() const { return *inner_; }

 private:
  void note_decision() {
    if (stamp_.decide_ns == 0 && inner_->terminated()) {
      stamp_.decide_ns = now_ns();
    }
  }

  std::unique_ptr<dn::Protocol> inner_;
  RunProbe& probe_;
  Stamp& stamp_;
};

}  // namespace

RunProbe::RunProbe(const ds::ScenarioSpec& spec, bool traced)
    : id_(next_probe_id.fetch_add(1)),
      traced_(traced),
      n_(spec.n),
      instances_(spec.instances),
      stamps_(spec.n * spec.instances),
      inputs_(spec.instances) {
  const auto& base = ds::ProtocolRegistry::global().require(spec.protocol);
  ds::ProtocolInfo info = base;
  // The runtime calls make_factory once per instance, in instance order,
  // before any node thread starts.
  info.make_factory = [this, make = base.make_factory](
                          const ds::ScenarioSpec& s, std::vector<double> in) {
    if (next_sid_ >= instances_) {
      throw std::logic_error("perfbench: more factories than instances");
    }
    const std::size_t sid = next_sid_++;
    inputs_[sid] = in;
    return dn::ProtocolFactory(
        [this, sid, inner = make(s, std::move(in))](delphi::NodeId i) {
          return std::make_unique<TimedProtocol>(inner(i), *this,
                                                 stamp(sid, i));
        });
  };
  if (traced_) {
    info.make_decoder = [this, make = base.make_decoder](
                            const ds::ScenarioSpec& s) {
      return delphi::transport::Decoder(
          [this, inner = make(s)](std::uint32_t channel,
                                  delphi::ByteReader& r) {
            auto& t = timers();
            const auto t0 = now_ns();
            auto msg = inner(channel, r);
            t.decode_ns += static_cast<std::uint64_t>(now_ns() - t0);
            ++t.frames;
            return msg;
          });
    };
  }
  info.harvest = [harvest = base.harvest](const dn::Protocol& p,
                                          std::vector<double>& out) {
    harvest(dynamic_cast<const TimedProtocol&>(p).inner(), out);
  };
  registry_.add(spec.protocol, std::move(info));
}

RunProbe::~RunProbe() {
  auto& s = slot();
  if (s.probe == id_) {
    s.probe = 0;
    s.timers = nullptr;
  }
}

ThreadTimers& RunProbe::timers() {
  auto& s = slot();
  if (s.probe != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back().cpu_begin_ns = thread_cpu_ns();
    s.probe = id_;
    s.timers = &threads_.back();
  }
  return *s.timers;
}

void RunProbe::close_thread() {
  auto& s = slot();
  if (s.probe != id_) return;
  s.timers->cpu_end_ns = thread_cpu_ns();
  s.probe = 0;
  s.timers = nullptr;
}

TimerTotals RunProbe::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  TimerTotals r;
  for (const auto& t : threads_) {
    r.sum.handler_ns += t.handler_ns;
    r.sum.deliveries += t.deliveries;
    r.sum.send_ns += t.send_ns;
    r.sum.sends += t.sends;
    r.sum.decode_ns += t.decode_ns;
    r.sum.frames += t.frames;
    if (t.cpu_end_ns > t.cpu_begin_ns) {
      r.node_cpu_ns += static_cast<std::uint64_t>(t.cpu_end_ns - t.cpu_begin_ns);
    }
  }
  return r;
}

}  // namespace perfbench
