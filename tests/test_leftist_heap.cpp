#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "persist/leftist_heap.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using H = persist::LeftistHeap<std::int64_t>;

template <class Alloc>
H push_all(Alloc& a, H h, const std::vector<std::int64_t>& values) {
  for (const auto v : values) {
    h = test::apply(a, [&](auto& b) { return h.push(b, v); });
  }
  return h;
}

TEST(LeftistHeap, EmptyBasics) {
  H h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(h.check_invariants());
}

TEST(LeftistHeap, PushPopSingle) {
  alloc::Arena a;
  H h = push_all(a, H{}, {42});
  EXPECT_EQ(h.top(), 42);
  EXPECT_EQ(h.size(), 1u);
  h = test::apply(a, [&](auto& b) { return h.pop(b); });
  EXPECT_TRUE(h.empty());
}

TEST(LeftistHeap, PopOnEmptyIsNoOp) {
  alloc::Arena a;
  H h;
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(h.pop(b).root_ptr(), nullptr);
  b.rollback();
}

TEST(LeftistHeap, TopIsAlwaysMin) {
  alloc::Arena a;
  H h = push_all(a, H{}, {5, 3, 8, 1, 9, 2});
  EXPECT_EQ(h.top(), 1);
  EXPECT_TRUE(h.check_invariants());
}

TEST(LeftistHeap, DrainsSorted) {
  alloc::Arena a;
  util::Xoshiro256 rng(31);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.range(-1000, 1000));
  H h = push_all(a, H{}, values);
  core::Builder<alloc::Arena> b(a);
  const auto drained = h.drain_sorted(b);
  b.rollback();
  ASSERT_EQ(drained.size(), values.size());
  EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(drained, values);
}

TEST(LeftistHeap, DuplicateValuesSupported) {
  alloc::Arena a;
  H h = push_all(a, H{}, {3, 3, 3, 1, 1});
  EXPECT_EQ(h.size(), 5u);
  core::Builder<alloc::Arena> b(a);
  const auto drained = h.drain_sorted(b);
  b.rollback();
  EXPECT_EQ(drained, (std::vector<std::int64_t>{1, 1, 3, 3, 3}));
}

TEST(LeftistHeap, MeldCombines) {
  alloc::Arena a;
  H x = push_all(a, H{}, {1, 5, 9});
  H y = push_all(a, H{}, {2, 6, 10});
  H m = test::apply(a, [&](auto& b) { return H::meld(b, x, y); });
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.top(), 1);
  EXPECT_TRUE(m.check_invariants());
}

TEST(LeftistHeap, MeldWithEmpty) {
  alloc::Arena a;
  H x = push_all(a, H{}, {4, 2});
  core::Builder<alloc::Arena> b(a);
  H m1 = H::meld(b, x, H{});
  EXPECT_EQ(m1.root_ptr(), x.root_ptr());  // shares wholesale, no copy
  H m2 = H::meld(b, H{}, x);
  EXPECT_EQ(m2.root_ptr(), x.root_ptr());
  b.rollback();
}

TEST(LeftistHeap, RankInvariantUnderStress) {
  alloc::Arena a;
  util::Xoshiro256 rng(41);
  H h;
  std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>> oracle;
  for (int i = 0; i < 2000; ++i) {
    if (oracle.empty() || rng.chance(3, 5)) {
      const auto v = rng.range(-500, 500);
      h = test::apply(a, [&](auto& b) { return h.push(b, v); });
      oracle.push(v);
    } else {
      ASSERT_EQ(h.top(), oracle.top());
      h = test::apply(a, [&](auto& b) { return h.pop(b); });
      oracle.pop();
    }
    ASSERT_EQ(h.size(), oracle.size());
    if (i % 200 == 0) {
      ASSERT_TRUE(h.check_invariants());
    }
  }
}

TEST(LeftistHeap, PersistencePopPreservesOldVersion) {
  alloc::Arena a;
  H v1 = push_all(a, H{}, {3, 1, 4, 1, 5});
  core::Builder<alloc::Arena> b(a);
  H v2 = v1.pop(b);
  b.seal();
  (void)b.commit();
  EXPECT_EQ(v1.size(), 5u);
  EXPECT_EQ(v1.top(), 1);
  EXPECT_EQ(v2.size(), 4u);
  EXPECT_TRUE(v1.check_invariants());
  EXPECT_TRUE(v2.check_invariants());
}

TEST(LeftistHeap, PushCopiesOnlyRightSpine) {
  alloc::Arena a;
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 4096; ++i) values.push_back(i);
  H h = push_all(a, H{}, values);
  core::Builder<alloc::Arena> b(a);
  (void)h.push(b, 99999);
  // Right spine is at most log2(n+1) long; each meld step creates one node
  // (plus the new singleton).
  EXPECT_LE(b.stats().created, 16u);
  b.rollback();
}

TEST(LeftistHeap, SharingAfterPush) {
  alloc::Arena a;
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 1000; ++i) values.push_back(i);
  H v1 = push_all(a, H{}, values);
  core::Builder<alloc::Arena> b(a);
  H v2 = v1.push(b, -1);
  b.seal();
  (void)b.commit();
  EXPECT_GE(H::shared_nodes(v1, v2), v1.size() - 15);
}

TEST(LeftistHeap, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  H h;
  for (std::int64_t i = 0; i < 100; ++i) {
    h = test::apply(a, [&](auto& b) { return h.push(b, i); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 100u);
  H::destroy(h.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
