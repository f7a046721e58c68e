#pragma once
/// \file core.hpp
/// BinAA (Algorithm 1 of the paper): approximate agreement for *binary*
/// inputs via iterated weak Binary-Value broadcast, as a pure state machine.
///
/// The machine is transport-agnostic: feeding it echoes produces outgoing
/// echo *actions*, which the standalone wrapper (protocol.hpp) sends as
/// individual messages and Delphi (src/delphi) coalesces into per-level
/// bundles — the paper's Õ(n²) communication optimization.
///
/// Exact arithmetic: round-r state values are dyadic rationals k / 2^(r-1)
/// in [0, 1], stored as integer numerators scaled by 2^r_max. Averaging two
/// round-r values is exact integer math, so the induction "the honest value
/// range at least halves every round" is checkable bit-for-bit, and after
/// r_max = ceil(log2(1/eps)) rounds honest outputs differ by at most
/// eps * 2^r_max scaled units.
///
/// Properties (n > 3t, asynchronous, per paper §II-C):
///  * Termination — every honest node finishes r_max rounds.
///  * Validity    — outputs lie inside the convex hull of honest inputs
///                  (0-relaxed); in particular unanimous input is decided.
///  * eps-Agreement — honest outputs differ by < 2^-r_max.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace delphi::binaa {

/// Scaled dyadic state value (numerator over 2^r_max).
using ScaledValue = std::int64_t;

/// Outgoing echo produced by the state machine; the host turns these into
/// wire messages (standalone) or bundle entries (Delphi).
struct EchoAction {
  std::uint8_t kind = 1;        ///< 1 = ECHO1, 2 = ECHO2
  std::uint32_t round = 1;      ///< 1-based round index
  ScaledValue value = 0;        ///< scaled dyadic value
};

/// The BinAA state machine for one instance at one node.
class BinAaCore {
 public:
  struct Config {
    std::size_t n = 4;
    std::size_t t = 1;
    /// Number of averaging rounds r_M = ceil(log2(1/eps')); also fixes the
    /// value scale 2^r_max. Must be in [1, 62].
    std::uint32_t r_max = 10;
  };

  explicit BinAaCore(const Config& cfg);

  /// Scale factor: all values are numerators over this power of two.
  ScaledValue scale() const noexcept { return ScaledValue{1} << cfg_.r_max; }

  /// Begin with a binary input (false -> 0, true -> scale()). Appends the
  /// initial round-1 ECHO1 to `out`. The host must loop our own echoes back
  /// through on_echo (broadcast-to-self semantics).
  void start(bool input, std::vector<EchoAction>& out);

  /// True once start() ran.
  bool started() const noexcept { return started_; }

  /// Feed one echo received from `from` (possibly ourselves). Invalid values
  /// (non-dyadic for the round, out of range) are ignored — Byzantine noise.
  /// Outgoing echoes triggered by this delivery are appended to `out`.
  void on_echo(std::uint8_t kind, std::uint32_t round, ScaledValue value,
               NodeId from, std::vector<EchoAction>& out);

  /// Round currently being executed (1-based); r_max+1 once finished.
  std::uint32_t current_round() const noexcept { return round_; }

  /// True after r_max rounds completed.
  bool done() const noexcept { return done_; }

  /// Final scaled output (valid once done()).
  ScaledValue output_scaled() const;

  /// Final output as a real in [0, 1].
  double output() const;

  const Config& config() const noexcept { return cfg_; }

 private:
  /// Insertion-ordered list whose first K elements live inline; later ones
  /// spill to one heap vector. Honest runs never exceed K = 2 values per
  /// round table, so only Byzantine extras allocate. Order matters:
  /// run_triggers and try_advance act on the *first* qualifying value.
  template <typename T, std::size_t K>
  class InlineList {
   public:
    std::size_t size() const noexcept { return size_; }
    T& operator[](std::size_t i) {
      return i < K ? inline_[i] : (*spill_)[i - K];
    }
    const T& operator[](std::size_t i) const {
      return i < K ? inline_[i] : (*spill_)[i - K];
    }
    T& push_back(T v) {
      ++size_;
      if (size_ <= K) return inline_[size_ - 1] = std::move(v);
      if (!spill_) spill_ = std::make_unique<std::vector<T>>();
      return spill_->emplace_back(std::move(v));
    }

   private:
    T inline_[K] = {};
    std::uint32_t size_ = 0;
    std::unique_ptr<std::vector<T>> spill_;
  };

  /// Senders supporting one value (a handful of distinct values per round
  /// in honest runs, each with an n-bit sender set).
  struct ValueVotes {
    ScaledValue value = 0;
    NodeBitset senders;
  };
  using VoteTable = InlineList<ValueVotes, 2>;

  /// One round's quorum state; sized when the core first touches a round,
  /// so receiving echoes allocates nothing while
  /// n <= NodeBitset::kInlineCapacity.
  struct Round {
    /// ECHO1 votes per value; a sender is counted for at most
    /// kMaxValuesPerSender distinct values (honest nodes send <= 2).
    VoteTable e1;
    NodeBitset e1_seen_once;   ///< senders with >= 1 counted ECHO1 value
    NodeBitset e1_seen_twice;  ///< senders with 2 counted ECHO1 values
    /// ECHO2 votes per value; at most one ECHO2 counted per sender.
    VoteTable e2;
    NodeBitset e2_senders;
    /// Values we already ECHO1'd (initial + amplification).
    InlineList<ScaledValue, 2> e1_sent;
    bool e2_sent = false;
  };

  static constexpr std::uint8_t kMaxValuesPerSender = 2;

  static ValueVotes* find_votes(VoteTable& vv, ScaledValue v) {
    for (std::size_t i = 0; i < vv.size(); ++i) {
      if (vv[i].value == v) return &vv[i];
    }
    return nullptr;
  }
  static bool contains_value(const InlineList<ScaledValue, 2>& xs,
                             ScaledValue v) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (xs[i] == v) return true;
    }
    return false;
  }

  /// Granularity of round r values: scale >> (r-1).
  ScaledValue granularity(std::uint32_t round) const {
    return scale() >> (round - 1);
  }
  bool valid_value(std::uint32_t round, ScaledValue v) const;

  /// Fast-path inline: this is hit for every echo of every bundle. The
  /// round block is allocated on first touch, not at construction, so
  /// building a deployment's cores stays cheap.
  Round& round_state(std::uint32_t r) {
    DELPHI_ASSERT(r >= 1 && r <= cfg_.r_max, "BinAA round out of range");
    if (rounds_.empty()) allocate_rounds();
    return rounds_[r - 1];
  }
  void allocate_rounds();
  void run_triggers(std::uint32_t round, std::vector<EchoAction>& out);
  void try_advance(std::vector<EchoAction>& out);
  void begin_round(std::vector<EchoAction>& out);

  Config cfg_;
  bool started_ = false;
  bool done_ = false;
  std::uint32_t round_ = 0;       // 0 = not started
  ScaledValue state_value_ = 0;   // b_{i, round_}
  std::vector<Round> rounds_;     // index r-1; empty until first touch
};

}  // namespace delphi::binaa
