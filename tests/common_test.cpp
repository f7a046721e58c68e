/// Tests for the common substrate: serialization, RNG, bitset, error types.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/bitset.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace delphi {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, DoubleRoundTrip) {
  for (double v : {0.0, -0.0, 1.5, -3.25e300, 5e-324, 40000.125}) {
    ByteWriter w;
    w.f64(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.f64(), v);
  }
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  const std::uint64_t v = GetParam();
  ByteWriter w;
  w.uvarint(v);
  EXPECT_EQ(w.size(), uvarint_size(v));
  ByteReader r(w.data());
  EXPECT_EQ(r.uvarint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST_P(VarintRoundTrip, SignedBothSigns) {
  const auto m = static_cast<std::int64_t>(GetParam() / 2);
  for (std::int64_t v : {m, -m}) {
    ByteWriter w;
    w.svarint(v);
    EXPECT_EQ(w.size(), svarint_size(v));
    ByteReader r(w.data());
    EXPECT_EQ(r.svarint(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 12345,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Bytes, SvarintExtremes) {
  for (std::int64_t v : {std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Bytes, StringAndBytesRoundTrip) {
  ByteWriter w;
  w.str("hello \xE2\x82\xAC");
  std::vector<std::uint8_t> blob = {0, 1, 255, 3};
  w.bytes(blob);
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello \xE2\x82\xAC");
  EXPECT_EQ(r.bytes(), blob);
}

TEST(Bytes, TruncatedReadsThrow) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data());
  EXPECT_THROW(r.u64(), SerializationError);
}

TEST(Bytes, UvarintTooLongThrows) {
  // Eleven continuation bytes: invalid for a 64-bit varint.
  std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_THROW(r.uvarint(), SerializationError);
}

TEST(Bytes, UvarintOverflowThrows) {
  // 10-byte encoding with high bits set beyond 64 bits.
  std::vector<std::uint8_t> bad = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                   0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  ByteReader r(bad);
  EXPECT_THROW(r.uvarint(), SerializationError);
}

TEST(Bytes, LengthPrefixOverflowThrows) {
  // Claims a 2^40-byte string with 1 byte of input left.
  ByteWriter w;
  w.uvarint(1ULL << 40);
  w.u8('x');
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), SerializationError);
}

TEST(Bytes, ExpectExhaustedDetectsTrailing) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_exhausted(), SerializationError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng a(7);
  Rng child1 = a.fork(42);
  a.next();  // advancing the parent must not change fork derivation...
  Rng a2(7);
  Rng child2 = a2.fork(42);
  EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a(7);
  Rng c1 = a.fork(1), c2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next() == c2.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int c : buckets) {
    EXPECT_GT(c, 9'000);
    EXPECT_LT(c, 11'000);
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double p = rng.uniform_pos();
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Bitset, InsertContainsCount) {
  NodeBitset s(130);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(129));
  EXPECT_FALSE(s.insert(0));  // duplicate
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.count(), 2u);
}

TEST(Bitset, OutOfRangeThrows) {
  NodeBitset s(4);
  EXPECT_THROW(s.insert(4), InternalError);
  EXPECT_THROW((void)s.contains(100), InternalError);
}

/// Sorted ids {0, 5, 63, 64, n-1} that fit below n (n >= 1).
std::vector<NodeId> sample_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (NodeId id : {NodeId{0}, NodeId{5}, NodeId{63}, NodeId{64},
                    static_cast<NodeId>(n - 1)}) {
    if (id < n && std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<NodeId> members(const NodeBitset& s) {
  std::vector<NodeId> out;
  s.for_each([&](NodeId id) { out.push_back(id); });
  return out;
}

TEST(Bitset, InlineHeapBoundary) {
  // n <= kInlineCapacity is stored inline, n above it on the heap; both
  // behave the same up to the last id.
  EXPECT_EQ(NodeBitset::kInlineCapacity, 192u);
  for (std::size_t n : {std::size_t{64}, std::size_t{65}, std::size_t{192},
                        std::size_t{193}, std::size_t{211}}) {
    SCOPED_TRACE(n);
    NodeBitset s(n);
    EXPECT_EQ(s.capacity(), n);
    for (NodeId id = 0; id < n; ++id) EXPECT_FALSE(s.contains(id));
    for (NodeId id : sample_ids(n)) EXPECT_TRUE(s.insert(id));
    EXPECT_TRUE(s.contains(static_cast<NodeId>(n - 1)));
    EXPECT_FALSE(s.insert(static_cast<NodeId>(n - 1)));
    EXPECT_EQ(s.count(), sample_ids(n).size());
    EXPECT_EQ(members(s), sample_ids(n));
  }
}

TEST(Bitset, CopyAndMoveInBothStorageModes) {
  for (std::size_t n : {std::size_t{4}, std::size_t{192}, std::size_t{193},
                        std::size_t{300}}) {
    SCOPED_TRACE(n);
    const auto ids = sample_ids(n);
    NodeBitset s(n);
    for (NodeId id : ids) s.insert(id);

    NodeBitset copy(s);
    copy.insert(1);  // the copy is independent of the original
    EXPECT_FALSE(s.contains(1));
    EXPECT_TRUE(copy.contains(1));
    EXPECT_EQ(copy.count(), ids.size() + 1);

    NodeBitset assigned(7);
    assigned = s;
    EXPECT_EQ(assigned.capacity(), n);
    EXPECT_EQ(members(assigned), ids);
    const NodeBitset& same = assigned;
    assigned = same;  // self-assignment keeps the contents
    EXPECT_EQ(members(assigned), ids);

    NodeBitset moved(std::move(copy));
    EXPECT_EQ(moved.capacity(), n);
    EXPECT_EQ(moved.count(), ids.size() + 1);
    EXPECT_TRUE(moved.contains(1));

    NodeBitset move_assigned(300);  // replaces a heap block
    move_assigned.insert(299);
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.capacity(), n);
    EXPECT_TRUE(move_assigned.contains(1));
    EXPECT_EQ(move_assigned.count(), ids.size() + 1);

    // Mode switches in both directions through copy assignment.
    NodeBitset other(n > NodeBitset::kInlineCapacity ? 4 : 300);
    other.insert(3);
    s = other;
    EXPECT_EQ(s.capacity(), other.capacity());
    EXPECT_EQ(members(s), std::vector<NodeId>{3});
  }
}

TEST(Bitset, ForEachVisitsMembersInIncreasingOrder) {
  for (std::size_t n : {std::size_t{160}, std::size_t{211}}) {
    SCOPED_TRACE(n);
    NodeBitset s(n);
    const std::vector<NodeId> ids = {static_cast<NodeId>(n - 1), 128, 64, 63,
                                     1, 0};
    for (NodeId id : ids) s.insert(id);
    EXPECT_EQ(members(s),
              (std::vector<NodeId>{0, 1, 63, 64, 128,
                                   static_cast<NodeId>(n - 1)}));
  }
  EXPECT_TRUE(members(NodeBitset()).empty());
}

TEST(Bitset, OutOfRangeThrowsInBothStorageModes) {
  for (std::size_t n : {std::size_t{0}, std::size_t{64}, std::size_t{192},
                        std::size_t{193}, std::size_t{256}}) {
    SCOPED_TRACE(n);
    NodeBitset s(n);
    EXPECT_THROW(s.insert(static_cast<NodeId>(n)), InternalError);
    EXPECT_THROW((void)s.contains(static_cast<NodeId>(n)), InternalError);
    EXPECT_THROW(s.insert(100'000), InternalError);
    EXPECT_EQ(s.count(), 0u);
  }
}

TEST(Types, FaultBounds) {
  EXPECT_EQ(max_faults(4), 1u);
  EXPECT_EQ(max_faults(7), 2u);
  EXPECT_EQ(max_faults(10), 3u);
  EXPECT_EQ(max_faults(160), 53u);
  EXPECT_EQ(quorum_size(4, 1), 3u);
  EXPECT_EQ(quorum_size(160, 53), 107u);
}

TEST(Error, RequireThrowsProtocolViolation) {
  EXPECT_THROW(DELPHI_REQUIRE(false, "nope"), ProtocolViolation);
  EXPECT_NO_THROW(DELPHI_REQUIRE(true, "fine"));
}

}  // namespace
}  // namespace delphi
