#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "persist/avl.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using A = persist::AvlTree<std::int64_t, std::int64_t>;

template <class Alloc>
A insert_all(Alloc& al, A t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(al, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

TEST(Avl, EmptyBasics) {
  A t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Avl, AscendingInsertStaysBalanced) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 1024; ++i) keys.push_back(i);
  A t = insert_all(a, A{}, keys);
  EXPECT_EQ(t.size(), 1024u);
  EXPECT_TRUE(t.check_invariants());
  // AVL height bound: <= 1.44 log2(n+2) ≈ 14.5 for n=1024.
  EXPECT_LE(t.height(), 15u);
}

TEST(Avl, DescendingInsertStaysBalanced) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 1024; i > 0; --i) keys.push_back(i);
  A t = insert_all(a, A{}, keys);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_LE(t.height(), 15u);
}

TEST(Avl, ZigZagInsertTriggersDoubleRotations) {
  alloc::Arena a;
  // 2, 1, 3 ... patterns that force LR and RL rotations.
  A t = insert_all(a, A{}, {10, 4, 15, 2, 6, 12, 20, 5});
  EXPECT_TRUE(t.check_invariants());
  t = insert_all(a, t, {7});  // LR case under 6
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 9u);
}

TEST(Avl, DuplicateInsertReturnsSameRoot) {
  alloc::Arena a;
  A t = insert_all(a, A{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.insert(b, 2, 0).root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TEST(Avl, EraseAbsentReturnsSameRoot) {
  alloc::Arena a;
  A t = insert_all(a, A{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.erase(b, 9).root_ptr(), t.root_ptr());
  b.rollback();
}

TEST(Avl, EraseLeafInternalAndRoot) {
  alloc::Arena a;
  A t = insert_all(a, A{}, {8, 4, 12, 2, 6, 10, 14, 1, 3});
  // Leaf erase.
  t = test::apply(a, [&](auto& b) { return t.erase(b, 3); });
  EXPECT_FALSE(t.contains(3));
  EXPECT_TRUE(t.check_invariants());
  // One-child node erase.
  t = test::apply(a, [&](auto& b) { return t.erase(b, 2); });
  EXPECT_FALSE(t.contains(2));
  EXPECT_TRUE(t.check_invariants());
  // Two-children erase (pulls successor).
  t = test::apply(a, [&](auto& b) { return t.erase(b, 4); });
  EXPECT_FALSE(t.contains(4));
  EXPECT_TRUE(t.check_invariants());
  // Root erase.
  t = test::apply(a, [&](auto& b) { return t.erase(b, 8); });
  EXPECT_FALSE(t.contains(8));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 5u);
}

TEST(Avl, EraseEverything) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 256; ++i) keys.push_back(i);
  A t = insert_all(a, A{}, keys);
  util::Xoshiro256 rng(5);
  std::vector<std::int64_t> order = keys;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (const auto k : order) {
    t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    ASSERT_TRUE(t.check_invariants());
  }
  EXPECT_TRUE(t.empty());
}

TEST(Avl, RankAndKth) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 100; ++i) keys.push_back(i * 5);
  A t = insert_all(a, A{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(t.kth(i), nullptr);
    EXPECT_EQ(t.kth(i)->key, keys[i]);
    EXPECT_EQ(t.rank(keys[i]), i);
  }
}

TEST(Avl, ForEachRangeMatchesFilteredScanAndCountRange) {
  alloc::Arena a;
  util::Xoshiro256 rng(7);
  std::set<std::int64_t> oracle;
  A t;
  for (int i = 0; i < 600; ++i) {
    const std::int64_t k = rng.range(-500, 500);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k * 10); });
    oracle.insert(k);
  }
  // Random [lo, hi) windows, including empty and inverted ones, against
  // the oracle's own half-open slice. In-order visitation is part of the
  // contract (migration slices must arrive sorted).
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t lo = rng.range(-600, 600);
    const std::int64_t hi = rng.range(-600, 600);
    std::vector<std::int64_t> got;
    t.for_each_range(lo, hi, [&](const std::int64_t& k, const std::int64_t& v) {
      EXPECT_EQ(v, k * 10);
      got.push_back(k);
    });
    std::vector<std::int64_t> want;
    for (auto it = oracle.lower_bound(lo); it != oracle.end() && *it < hi;
         ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(t.count_range(lo, hi), want.size());
  }
  // Boundary semantics: lo inclusive, hi exclusive.
  const std::int64_t present = *oracle.begin();
  std::size_t hits = 0;
  t.for_each_range(present, present, [&](auto&, auto&) { ++hits; });
  EXPECT_EQ(hits, 0u);
  t.for_each_range(present, present + 1, [&](auto&, auto&) { ++hits; });
  EXPECT_EQ(hits, 1u);
}

TEST(Avl, MinMaxItems) {
  alloc::Arena a;
  A t = insert_all(a, A{}, {5, 1, 9, 3});
  EXPECT_EQ(t.min_node()->key, 1);
  EXPECT_EQ(t.max_node()->key, 9);
  const auto items = t.items();
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
}

TEST(Avl, PersistenceOldVersionUnchanged) {
  alloc::Arena a;
  A v1 = insert_all(a, A{}, {1, 2, 3, 4, 5, 6, 7});
  core::Builder<alloc::Arena> b(a);
  A v2 = v1.erase(b, 4);
  b.seal();
  (void)b.commit();
  EXPECT_TRUE(v1.contains(4));
  EXPECT_FALSE(v2.contains(4));
  EXPECT_TRUE(v1.check_invariants());
  EXPECT_TRUE(v2.check_invariants());
}

TEST(Avl, SharingAfterInsert) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 2048; ++i) keys.push_back(i);
  A v1 = insert_all(a, A{}, keys);
  core::Builder<alloc::Arena> b(a);
  A v2 = v1.insert(b, 99999, 0);
  b.seal();
  (void)b.commit();
  const std::size_t shared = A::shared_nodes(v1, v2);
  EXPECT_GE(shared, v1.size() - 30);  // path + rotations only
}

TEST(Avl, InsertOrAssign) {
  alloc::Arena a;
  A t = insert_all(a, A{}, {1, 2, 3});
  A t2 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 42); });
  EXPECT_EQ(*t2.find(2), 42);
  EXPECT_EQ(*t.find(2), 20);
  EXPECT_TRUE(t2.check_invariants());
}

TEST(Avl, RandomOpsAgainstOracle) {
  alloc::Arena a;
  A t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t k = rng.range(-60, 60);
    if (rng.chance(3, 5)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
      oracle.emplace(k, k);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
    if (i % 250 == 0) {
      ASSERT_TRUE(t.check_invariants());
    }
  }
  EXPECT_TRUE(t.check_invariants());
  const auto items = t.items();
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(items[i].first, k);
    ++i;
  }
}

TEST(Avl, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  A t;
  for (std::int64_t k = 0; k < 150; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 150u);
  A::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- from_sorted -----

TEST(Avl, FromSortedBuildsValidTree) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 1000; k += 3) items.emplace_back(k, k * 10);
  A t = test::apply(
      a, [&](auto& b) { return A::from_sorted(b, items.begin(), items.end()); });
  EXPECT_EQ(t.size(), items.size());
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.items(), items);
  // Midpoint build is perfectly balanced: height == ceil(log2(n+1)).
  EXPECT_LE(t.height(), 9u);  // n = 334
}

TEST(Avl, FromSortedEmptyAndSingle) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> none;
  A t0 = test::apply(
      a, [&](auto& b) { return A::from_sorted(b, none.begin(), none.end()); });
  EXPECT_TRUE(t0.empty());
  std::vector<std::pair<std::int64_t, std::int64_t>> one{{7, 70}};
  A t1 = test::apply(
      a, [&](auto& b) { return A::from_sorted(b, one.begin(), one.end()); });
  EXPECT_EQ(t1.size(), 1u);
  EXPECT_EQ(*t1.find(7), 70);
}

// ----- apply_sorted_batch -----

A::BatchOp ains(std::int64_t k, std::int64_t v) {
  return A::BatchOp{A::BatchOpKind::kInsert, k, v};
}

// Empty/all-noop sharing and the three-kind outcome check come from the
// shared batch-oracle harness (test_support.hpp).
TEST(AvlBatch, NoopBatchesShareRoot) {
  test::batch_oracle_noop_shares_root<A>();
}

TEST(AvlBatch, OutcomesAndContents) { test::batch_oracle_outcomes<A>(); }

TEST(AvlBatch, BatchOnEmptyTreeIsBalanced) {
  alloc::Arena a;
  std::vector<A::BatchOp> ops;
  for (std::int64_t k = 0; k < 127; ++k) ops.push_back(ains(k, k));
  std::vector<A::BatchOutcome> out(ops.size());
  A t = test::apply(
      a, [&](auto& b) { return A{}.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t.size(), 127u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.height(), 7u);  // perfect tree of 127
}

// The property the AVL batch path is held to, via the shared oracle
// harness: contents (not shape — AVL is history-dependent) must match
// sequential application of the same ops, outcomes must match the
// per-op returns, and the result must be a valid AVL tree.
TEST(AvlBatch, RandomBatchesMatchSequentialApplication) {
  test::batch_oracle_random<A>(4321, 40, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<A>(4322, 20, test::BatchKeyPattern::kClustered);
}

// Bounded scan rides for_each_range; the shared oracle also re-checks the
// range walk and count_range against a std::set reference.
TEST(Avl, ScanMatchesOracle) { test::range_oracle_random<A>(2101); }

// Sorted read batch: one descent-sharing sweep must answer exactly like
// per-key find(), with consistent savings accounting.
TEST(Avl, SortedReadBatchMatchesPerKeyFind) {
  test::read_batch_oracle_random<A>(2111, 30, test::BatchKeyPattern::kUniform);
  test::read_batch_oracle_random<A>(2112, 20,
                                    test::BatchKeyPattern::kClustered);
}

}  // namespace
}  // namespace pathcopy
