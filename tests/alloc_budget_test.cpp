/// Allocation budget: a deterministic guard against heap-allocation
/// regressions on Delphi's hot path. This binary replaces the global
/// operator new/delete with counting versions (the replacement is linked into
/// this test executable only), so a test can count the allocations one block
/// of code makes.
///
/// Budgets are the count measured for the current code plus 10 % headroom.
/// A change that legitimately adds allocations must re-measure and raise the
/// budget in the same change, saying why.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/bitset.hpp"
#include "scenario/runtime.hpp"
#include "scenario/spec.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace delphi {
namespace {

/// Allocations made while running fn().
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, CounterSeesHeapAllocations) {
  const auto allocs = allocations_in([] {
    auto* p = new int(7);
    delete p;
  });
  EXPECT_EQ(allocs, 1u);
}

TEST(AllocBudget, InlineBitsetAllocatesNothing) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                        std::size_t{64}, std::size_t{65}, std::size_t{160},
                        std::size_t{192}}) {
    SCOPED_TRACE(n);
    const auto allocs = allocations_in([n] {
      NodeBitset s(n);
      for (NodeId id = 0; id < n; ++id) s.insert(id);
      NodeBitset copy = s;
      NodeBitset moved = std::move(copy);
      moved = s;
      EXPECT_EQ(moved.count(), n);
    });
    EXPECT_EQ(allocs, 0u);
  }
}

TEST(AllocBudget, LargeBitsetUsesOneHeapBlock) {
  const auto allocs = allocations_in([] {
    NodeBitset s(193);
    s.insert(192);
    NodeBitset moved = std::move(s);  // steals the block
    EXPECT_TRUE(moved.contains(192));
  });
  EXPECT_EQ(allocs, 1u);
}

/// One n = 4 Delphi decision on the simulator. Measured at 1,869 allocations
/// (22,506 before the quorum bitsets and BinAA vote tables were stored
/// inline); the budget is that count plus 10 %.
TEST(AllocBudget, DelphiDecisionOnSimulator) {
  constexpr std::uint64_t kBudget = 2'055;
  const auto spec = scenario::ScenarioSpec::from_text(
      "protocol=delphi n=4 center=40000 delta=20 space-min=0 "
      "space-max=200000 rho0=10 eps=2 delta-max=2000 auth=1 substrate=sim "
      "testbed=fast seed=1");
  scenario::RunReport rep;
  const auto allocs =
      allocations_in([&] { rep = scenario::SimRuntime().run(spec); });
  ASSERT_TRUE(rep.ok);
  std::printf("delphi n=4 sim decision: %llu allocations (budget %llu)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(kBudget));
  EXPECT_LE(allocs, kBudget);
}

}  // namespace
}  // namespace delphi
