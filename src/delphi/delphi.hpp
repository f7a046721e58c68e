#pragma once
/// \file delphi.hpp
/// The Delphi protocol (Algorithm 2): multi-level checkpoint BinAA plus the
/// cross-level weighted average — the paper's primary contribution.
///
/// Per level l in 0..l_M (separator rho_l = 2^l * rho0):
///  * every checkpoint mu_k = k * rho_l is conceptually one BinAA instance;
///  * a node inputs 1 to the two checkpoints closest to its value v_i and 0
///    everywhere else;
///  * checkpoints nobody ever references are aggregated into one *virtual
///    default instance* per level (state provably 0 at honest nodes), and all
///    echoes emitted while handling a single event are coalesced into one
///    DelphiBundle — together these give the advertised Õ(n²) bits per round.
///
/// After r_M rounds of every instance, aggregation (lines 13-24):
///   (V_l, w_l)  = (weighted average of positive-weight checkpoints, max
///                  weight), or (v_i, eps') when the level is all-zero;
///   w'_0 = w_0², w'_l = w_l * |w_l - w_{l-1}|   (kills levels above the
///                  first all-agree level — the "differentiation" trick);
///   o_i = sum(w'_l * V_l) / sum(w'_l).
///
/// Guarantees (paper §IV): termination (the weight sum is >= 1/2), agreement
/// |o_i - o_j| <= eps, and validity o_i in [min(V_h) - max(rho0, delta),
/// max(V_h) + max(rho0, delta)].
///
/// Liveness note: a node keeps processing and echoing after it outputs
/// (help-after-decide) — going silent would deadlock a t-sized minority
/// whose checkpoints the fast majority never materialized before deciding.
/// See the comment in on_message.

#include <optional>
#include <utility>
#include <vector>

#include "delphi/message.hpp"
#include "delphi/params.hpp"
#include "net/protocol.hpp"

namespace delphi::protocol {

/// One Delphi node.
class DelphiProtocol final : public net::Protocol, public net::ValueOutput {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    DelphiParams params;
    std::uint32_t channel = 0;
  };

  /// Post-run per-level diagnostics (used by tests and the heatmap bench).
  struct LevelReport {
    double value = 0.0;      ///< V_l
    double weight = 0.0;     ///< w_l
    double weight_prime = 0.0;  ///< w'_l
    std::size_t active_instances = 0;
    bool used_fallback = false;  ///< (v_i, eps') case
  };

  DelphiProtocol(Config cfg, double input);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, NodeId from, std::uint32_t channel,
                  const net::MessageBody& body) override;
  bool terminated() const override { return output_.has_value(); }

  std::optional<double> output_value() const override { return output_; }

  /// Per-level aggregation details (valid once terminated).
  const std::vector<LevelReport>& level_reports() const;

  /// Number of active (explicitly materialized) instances at a level.
  std::size_t active_instances(std::uint32_t level) const;

  /// BinAA round count in use.
  std::uint32_t r_max() const noexcept { return r_max_; }

  const Config& config() const noexcept { return cfg_; }

 private:
  /// Collects outgoing echoes produced while handling one event; kept across
  /// events so its buffers are reused (flush copies out and clears them).
  struct Collector {
    std::vector<DefaultEcho> defaults;
    std::vector<ExplicitEcho> explicits;
  };

  struct Level {
    binaa::BinAaCore default_core;
    /// Materialized instances, sorted by checkpoint index k. A flat sorted
    /// vector, not a map: the per-sender mention budget keeps the population
    /// small, lookups dominate insertions by orders of magnitude on the hot
    /// path (every echo in every bundle), and binary search over contiguous
    /// pairs beats red-black pointer chasing. Pointers returned by
    /// ensure_instance are invalidated by the *next* materialization — no
    /// caller retains one across deliveries.
    std::vector<std::pair<std::int64_t, binaa::BinAaCore>> instances;
    /// First-mention budget per sender (Byzantine checkpoint-spam guard).
    std::vector<std::uint16_t> mentions_left;

    explicit Level(const binaa::BinAaCore::Config& core_cfg)
        : default_core(core_cfg) {}
  };

  /// True iff k is one of this node's two input-1 checkpoints at `level`.
  bool is_own_checkpoint(std::uint32_t level, std::int64_t k) const;

  /// Materialize instance (level, k) if absent; respects the per-sender
  /// mention budget when the activation is triggered by `from`'s entry.
  /// Returns nullptr when the activation was refused.
  binaa::BinAaCore* ensure_instance(std::uint32_t level, std::int64_t k,
                                    NodeId from);

  void feed_explicit(const ExplicitEcho& e, NodeId from);
  void feed_default(const DefaultEcho& d, NodeId from);
  void append_actions(std::uint32_t level, std::int64_t k,
                      const std::vector<binaa::EchoAction>& acts);
  void append_default_actions(std::uint32_t level,
                              const std::vector<binaa::EchoAction>& acts);
  /// Broadcast the collected echoes as one bundle (no-op when empty).
  void flush(net::Context& ctx);
  void maybe_terminate(net::Context& ctx);
  void aggregate();

  Config cfg_;
  double input_;
  std::uint32_t r_max_;
  /// Instances (incl. per-level default cores) still running; aggregation
  /// fires when this hits zero (kept incrementally: O(1) per delivery).
  std::size_t pending_instances_ = 0;
  std::vector<Level> levels_;
  std::vector<std::pair<std::int64_t, std::int64_t>> own_checkpoints_;
  std::optional<double> output_;
  std::vector<LevelReport> reports_;
  std::vector<binaa::EchoAction> scratch_;  // reused per delivery
  Collector col_;                           // reused per delivery
};

}  // namespace delphi::protocol
