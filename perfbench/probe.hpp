#pragma once
/// \file probe.hpp
/// Measurement hooks for one `Runtime::run` call, installed purely through
/// the public scenario API: a `scenario::ProtocolRegistry` whose "delphi"
/// entry wraps the global entry's `make_factory`, `make_decoder` and
/// `harvest`. Nothing under src/ knows it is being measured.
///
/// Untraced runs record lifecycle stamps only: one clock read when an
/// instance starts on a node and one when it decides. Traced runs add
/// per-call timers around `on_start`/`on_message`, `Context::send`/
/// `broadcast` and every `transport::Decoder` call. Timers live in one
/// record per thread (registered once per thread per run, under a mutex) and
/// are summed after the runtime has joined its node threads, so the delivery
/// path touches no shared atomics.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

/// steady_clock in nanoseconds.
std::int64_t now_ns();
/// CPU time consumed by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

/// One instance's lifecycle on one node (0 = never happened).
struct Stamp {
  std::int64_t start_ns = 0;
  std::int64_t decide_ns = 0;
};

/// Per-thread accumulators of a traced run.
struct ThreadTimers {
  std::uint64_t handler_ns = 0;  ///< on_start + on_message, sends included
  std::uint64_t deliveries = 0;  ///< on_message calls
  std::uint64_t send_ns = 0;     ///< inside Context::send/broadcast
  std::uint64_t sends = 0;       ///< send + broadcast calls
  std::uint64_t decode_ns = 0;   ///< inside transport::Decoder
  std::uint64_t frames = 0;      ///< Decoder calls
  std::int64_t cpu_begin_ns = 0;  ///< thread CPU at its first hook
  std::int64_t cpu_end_ns = 0;    ///< thread CPU at exit (or close_thread)
};

/// Sum of every thread's timers.
struct TimerTotals {
  ThreadTimers sum;
  std::uint64_t node_cpu_ns = 0;  ///< Σ (cpu_end − cpu_begin)
};

/// Hooks for exactly one Runtime::run of `spec` (delphi only). Not
/// copyable: the registry's closures and every wrapped protocol point here.
class RunProbe {
 public:
  RunProbe(const delphi::scenario::ScenarioSpec& spec, bool traced);
  /// Detaches the calling thread's timer record if it still points here.
  ~RunProbe();
  RunProbe(const RunProbe&) = delete;
  RunProbe& operator=(const RunProbe&) = delete;

  /// Pass to the runtime's `registry` argument.
  const delphi::scenario::ProtocolRegistry& registry() const {
    return registry_;
  }

  bool traced() const noexcept { return traced_; }
  std::size_t n() const noexcept { return n_; }
  std::size_t instances() const noexcept { return instances_; }

  /// Stamp of instance `sid` on node `node`.
  Stamp& stamp(std::size_t sid, std::size_t node) {
    return stamps_[sid * n_ + node];
  }
  const Stamp& stamp(std::size_t sid, std::size_t node) const {
    return stamps_[sid * n_ + node];
  }

  /// Honest inputs of instance `sid`, as handed to the factory.
  const std::vector<double>& inputs(std::size_t sid) const {
    return inputs_[sid];
  }

  /// The calling thread's timers for this run (registers it on first use).
  ThreadTimers& timers();

  /// Ends the calling thread's CPU window now. The simulator runs on the
  /// caller's thread, which does not exit after the run.
  void close_thread();

  /// Sum over threads. Call only after the runtime returned.
  TimerTotals totals() const;

 private:
  const std::uint64_t id_;
  const bool traced_;
  const std::size_t n_;
  const std::size_t instances_;
  std::vector<Stamp> stamps_;
  std::vector<std::vector<double>> inputs_;
  std::size_t next_sid_ = 0;  ///< make_factory is called once per instance
  mutable std::mutex mu_;
  std::deque<ThreadTimers> threads_;  ///< guarded by mu_; stable addresses
  delphi::scenario::ProtocolRegistry registry_;
};

}  // namespace perfbench
