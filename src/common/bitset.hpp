#pragma once
/// \file bitset.hpp
/// Fixed-capacity bitset over node ids with a cached popcount.
///
/// Quorum tracking ("which senders echoed value v?") is the hottest state in
/// every protocol here; with hundreds of BinAA instances per node a
/// std::set<NodeId> per (instance, round, value) would cost gigabytes at
/// n = 160. This bitset costs ceil(n/64) words and O(1) membership/insert.
///
/// Storage is inline for n <= kInlineCapacity (192 ids, every n the paper
/// runs), so creating, copying and moving such a set never touches the heap.
/// Larger sets keep their words in one heap block owned by the same object.
/// The whole object is 32 bytes in both modes.

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/types.hpp"

namespace delphi {

/// Set of node ids in [0, n).
class NodeBitset {
 public:
  /// Sets with n <= kInlineCapacity keep their words inline.
  static constexpr std::size_t kInlineWords = 3;
  static constexpr std::size_t kInlineCapacity = kInlineWords * 64;

  NodeBitset() noexcept = default;

  explicit NodeBitset(std::size_t n) : n_(static_cast<std::uint32_t>(n)) {
    DELPHI_ASSERT(n <= std::numeric_limits<std::uint32_t>::max(),
                  "NodeBitset: capacity too large");
    if (on_heap()) heap_ = new std::uint64_t[num_words()]();
  }

  NodeBitset(const NodeBitset& other) : NodeBitset(other.capacity()) {
    std::memcpy(words(), other.words(), num_words() * sizeof(std::uint64_t));
    count_ = other.count_;
  }

  NodeBitset(NodeBitset&& other) noexcept { steal(other); }

  NodeBitset& operator=(const NodeBitset& other) {
    if (this != &other) *this = NodeBitset(other);
    return *this;
  }

  NodeBitset& operator=(NodeBitset&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~NodeBitset() { release(); }

  /// Insert; returns true iff the id was newly added.
  bool insert(NodeId id) {
    DELPHI_ASSERT(id < n_, "NodeBitset: id out of range");
    const std::uint64_t mask = std::uint64_t{1} << (id % 64);
    std::uint64_t& w = words()[id / 64];
    if (w & mask) return false;
    w |= mask;
    ++count_;
    return true;
  }

  /// Membership test.
  bool contains(NodeId id) const {
    DELPHI_ASSERT(id < n_, "NodeBitset: id out of range");
    return (words()[id / 64] >> (id % 64)) & 1;
  }

  /// Number of members (O(1), cached).
  std::size_t count() const noexcept { return count_; }

  /// Capacity n the set was created for.
  std::size_t capacity() const noexcept { return n_; }

  /// True when no ids are present.
  bool empty() const noexcept { return count_ == 0; }

  /// Invoke fn(NodeId) for every member in increasing id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* ws = words();
    for (std::size_t w = 0; w < num_words(); ++w) {
      std::uint64_t bits = ws[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

 private:
  bool on_heap() const noexcept { return n_ > kInlineCapacity; }
  std::size_t num_words() const noexcept { return (std::size_t{n_} + 63) / 64; }
  std::uint64_t* words() noexcept { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* words() const noexcept {
    return on_heap() ? heap_ : inline_;
  }

  void release() noexcept {
    if (on_heap()) delete[] heap_;
  }

  /// Take other's state (this holds no heap block); other becomes empty.
  void steal(NodeBitset& other) noexcept {
    n_ = other.n_;
    count_ = other.count_;
    // The union's bytes: the inline words, or the heap pointer.
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.n_ = 0;
    other.count_ = 0;
    std::memset(other.inline_, 0, sizeof(other.inline_));
  }

  union {
    std::uint64_t inline_[kInlineWords] = {};
    std::uint64_t* heap_;  ///< active iff n_ > kInlineCapacity
  };
  std::uint32_t n_ = 0;
  std::uint32_t count_ = 0;
};

static_assert(sizeof(NodeBitset) == 32, "NodeBitset should stay 32 bytes");

}  // namespace delphi
