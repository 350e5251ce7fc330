#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/align.hpp"
#include "util/rng.hpp"
#include "util/slot_registry.hpp"

namespace pathcopy {
namespace {

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(util::splitmix64(s1), util::splitmix64(s2));
  }
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 42;
  const auto a = util::splitmix64(s);
  const auto b = util::splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Rng, Mix64IsPure) {
  EXPECT_EQ(util::mix64(123), util::mix64(123));
  EXPECT_NE(util::mix64(123), util::mix64(124));
}

TEST(Rng, XoshiroDeterministicPerSeed) {
  util::Xoshiro256 a(7), b(7), c(8);
  bool all_equal_c = true;
  for (int i = 0; i < 64; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(Rng, BelowStaysInRange) {
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  util::Xoshiro256 rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusiveBounds) {
  util::Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  util::Xoshiro256 rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 100));
    EXPECT_TRUE(rng.chance(100, 100));
  }
}

TEST(Rng, ChanceIsApproximatelyFair) {
  util::Xoshiro256 rng(5);
  int heads = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(1, 2)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kTrials, 0.5, 0.02);
}

TEST(Align, RoundUp) {
  EXPECT_EQ(util::round_up(0, 16), 0u);
  EXPECT_EQ(util::round_up(1, 16), 16u);
  EXPECT_EQ(util::round_up(16, 16), 16u);
  EXPECT_EQ(util::round_up(17, 16), 32u);
}

TEST(Align, PaddedIsCacheLineSized) {
  EXPECT_GE(sizeof(util::Padded<char>), util::kCacheLine);
  EXPECT_EQ(alignof(util::Padded<char>), util::kCacheLine);
}

TEST(Align, PaddedAccessors) {
  util::Padded<int> p;
  *p = 7;
  EXPECT_EQ(p.value, 7);
  EXPECT_EQ(*p, 7);
}

TEST(SlotRegistry, ReleasedSlotIsHandedOutAgain) {
  util::SlotRegistry<std::atomic<int>> reg;
  std::atomic<int>* a = reg.acquire();
  std::atomic<int>* b = reg.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % util::kCacheLine, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % util::kCacheLine, 0u);
  reg.release(a);
  EXPECT_EQ(reg.acquire(), a);
  EXPECT_EQ(reg.list().size(), 2u);  // reuse, not growth
  reg.release(b);
  EXPECT_EQ(reg.list().size(), 2u);  // a scan still visits released slots
}

TEST(SlotRegistry, NoSlotEverHasTwoOwners) {
  // Each owner counts itself into its slot for the whole time it holds
  // it; a count above one means two owners shared a slot.
  constexpr int kThreads = 4;
  constexpr int kCycles = 5000;
  util::SlotRegistry<std::atomic<int>> reg;
  std::atomic<int> shared_slots{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCycles; ++i) {
        std::atomic<int>* s = reg.acquire();
        if (s->fetch_add(1) != 0) shared_slots.fetch_add(1);
        std::this_thread::yield();
        s->fetch_sub(1);
        reg.release(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared_slots.load(), 0);
  // Released slots are reused: never more slots than concurrent owners.
  EXPECT_LE(reg.list().size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace pathcopy
