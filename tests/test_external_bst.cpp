#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "persist/external_bst.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using E = persist::ExternalBst<std::int64_t, std::int64_t>;

template <class Alloc>
E insert_all(Alloc& a, E t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    // Unsigned, so full-range random keys wrap instead of overflowing.
    const auto v = static_cast<std::int64_t>(static_cast<std::uint64_t>(k) * 10);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, v); });
  }
  return t;
}

TEST(ExternalBst, EmptyBasics) {
  E t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(3));
  EXPECT_EQ(t.min_leaf(), nullptr);
  EXPECT_EQ(t.kth(0), nullptr);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ExternalBst, SingleLeafRoot) {
  alloc::Arena a;
  E t = test::apply(a, [&](auto& b) { return E{}.insert(b, 7, 70); });
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.root_node(), nullptr);
  EXPECT_TRUE(t.root_node()->is_leaf());
  EXPECT_EQ(*t.find(7), 70);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ExternalBst, TwoLeavesShareInternalRouter) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {7, 3});
  EXPECT_EQ(t.size(), 2u);
  ASSERT_FALSE(t.root_node()->is_leaf());
  // Router equals min of right subtree (= 7).
  EXPECT_EQ(t.root_node()->key, 7);
  EXPECT_EQ(t.root_node()->left->key, 3);
  EXPECT_EQ(t.root_node()->right->key, 7);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ExternalBst, DuplicateInsertIsSameVersionNoAlloc) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  E t2 = t.insert(b, 2, 999);
  EXPECT_EQ(t2.root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);  // external BST allocates nothing on no-op
  b.rollback();
}

TEST(ExternalBst, EraseAbsentIsSameVersionNoAlloc) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.erase(b, 42).root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TEST(ExternalBst, EraseSplicesSibling) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {5, 10});
  E t2 = test::apply(a, [&](auto& b) { return t.erase(b, 5); });
  EXPECT_EQ(t2.size(), 1u);
  EXPECT_TRUE(t2.root_node()->is_leaf());
  EXPECT_EQ(t2.root_node()->key, 10);
  EXPECT_TRUE(t2.check_invariants());
}

TEST(ExternalBst, EraseLastLeafEmptiesTree) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {5});
  E t2 = test::apply(a, [&](auto& b) { return t.erase(b, 5); });
  EXPECT_TRUE(t2.empty());
}

TEST(ExternalBst, ItemsSortedAndComplete) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {9, 1, 8, 2, 7, 3, 0});
  const auto items = t.items();
  ASSERT_EQ(items.size(), 7u);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
}

TEST(ExternalBst, RankAndKth) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 50; ++i) keys.push_back(i * 2);
  E t = insert_all(a, E{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(t.kth(i), nullptr);
    EXPECT_EQ(t.kth(i)->key, keys[i]);
    EXPECT_EQ(t.rank(keys[i]), i);
  }
  EXPECT_EQ(t.rank(1), 1u);   // only key 0 is below 1
  EXPECT_EQ(t.rank(999), 50u);
  EXPECT_EQ(t.kth(50), nullptr);
}

TEST(ExternalBst, PathToEndsAtCoveringLeaf) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {1, 5, 9});
  const auto path = t.path_to(5);
  ASSERT_GE(path.size(), 2u);
  EXPECT_TRUE(path.back()->is_leaf());
  EXPECT_EQ(path.back()->key, 5);
}

TEST(ExternalBst, PersistenceOldVersionUnchanged) {
  alloc::Arena a;
  E v1 = insert_all(a, E{}, {1, 2, 3, 4});
  core::Builder<alloc::Arena> b(a);
  E v2 = v1.insert(b, 10, 100);
  b.seal();
  (void)b.commit();
  EXPECT_EQ(v1.size(), 4u);
  EXPECT_EQ(v2.size(), 5u);
  EXPECT_FALSE(v1.contains(10));
  EXPECT_TRUE(v1.check_invariants());
  EXPECT_TRUE(v2.check_invariants());
}

TEST(ExternalBst, SharingAfterInsert) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 512; ++i) keys.push_back(static_cast<std::int64_t>(rng()));
  E v1 = insert_all(a, E{}, keys);
  core::Builder<alloc::Arena> b(a);
  E v2 = v1.insert(b, -1, 0);
  b.seal();
  (void)b.commit();
  const std::size_t total_v1 = 2 * v1.size() - 1;
  const std::size_t shared = E::shared_nodes(v1, v2);
  // All of v1 except the copied internal path is shared with v2.
  EXPECT_GE(shared, total_v1 - 64);
}

TEST(ExternalBst, HeightLogarithmicForRandomKeys) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) keys.push_back(static_cast<std::int64_t>(rng()));
  E t = insert_all(a, E{}, keys);
  // Random insertion order: expected height ~ 2.99 log2 n ≈ 36; be generous.
  EXPECT_LE(t.height(), 60u);
}

TEST(ExternalBst, InsertOrAssign) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {1, 2});
  E t2 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 999); });
  EXPECT_EQ(*t2.find(2), 999);
  EXPECT_EQ(t2.size(), 2u);
  EXPECT_NE(t2.root_ptr(), t.root_ptr());
  EXPECT_TRUE(t2.check_invariants());
}

TEST(ExternalBst, RandomOpsAgainstOracle) {
  alloc::Arena a;
  E t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(17);
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t k = rng.range(-40, 40);
    if (rng.chance(1, 2)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
      oracle.emplace(k, k);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
    if (i % 500 == 0) {
      ASSERT_TRUE(t.check_invariants());
    }
  }
  const auto items = t.items();
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(items[i].first, k);
    ++i;
  }
}

TEST(ExternalBst, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  E t;
  for (std::int64_t k = 0; k < 100; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 2 * 100u - 1);  // leaves + internals
  E::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- from_sorted + apply_sorted_batch (shared oracle harness) -----

TEST(ExternalBst, FromSortedRoundTrip) { test::from_sorted_roundtrip<E>(); }

// The bulk build is leaf-oriented: exactly 2n-1 nodes, every pair in a
// leaf, routers separating (check_invariants audits leaf/router
// separation and the size augmentation).
TEST(ExternalBst, FromSortedIsLeafOriented) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 200; ++k) items.emplace_back(k * 3, k);
  {
    alloc::MallocAlloc counted;
    E t = test::apply(counted, [&](auto& b) {
      return E::from_sorted(b, items.begin(), items.end());
    });
    EXPECT_EQ(counted.stats().live_blocks(), 2 * 200u - 1);
    EXPECT_TRUE(t.check_invariants());
    // Midpoint build: height is logarithmic, not the linked-list chain
    // a naive sequential external insert of sorted keys would produce.
    EXPECT_LE(t.height(), 10u);  // ceil(log2(200)) + 1
    E::destroy(t.root_node(), counted);
    EXPECT_EQ(counted.stats().live_blocks(), 0u);
  }
}

TEST(ExternalBstBatch, NoopBatchesShareRoot) {
  test::batch_oracle_noop_shares_root<E>();
}

TEST(ExternalBstBatch, OutcomesAndContents) {
  test::batch_oracle_outcomes<E>();
}

TEST(ExternalBstBatch, RandomBatchesMatchSequentialApplication) {
  test::batch_oracle_random<E>(6161, 40, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<E>(6162, 20, test::BatchKeyPattern::kClustered);
}

// Batch erases splice siblings upward exactly like point erases: erasing
// one side of a router leaves the other side's subtree shared, and
// erasing everything leaves the empty tree.
TEST(ExternalBstBatch, EraseRunSplicesSiblings) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {10, 20, 30, 40, 50, 60, 70, 80});
  // Erase the whole left half [10, 40]; the right half must come back
  // shared, not copied.
  std::vector<E::BatchOp> ops;
  for (const std::int64_t k : {10, 20, 30, 40}) {
    ops.push_back(E::BatchOp{E::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<E::BatchOutcome> out(ops.size());
  E t2 = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t2.size(), 4u);
  EXPECT_TRUE(t2.check_invariants());
  EXPECT_TRUE(t.check_invariants());  // old version untouched
  EXPECT_EQ(E::shared_nodes(t, t2), 2 * 4u - 1);  // right half fully shared

  std::vector<E::BatchOp> wipe;
  for (const std::int64_t k : {50, 60, 70, 80}) {
    wipe.push_back(E::BatchOp{E::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<E::BatchOutcome> out2(wipe.size());
  E none = test::apply(
      a, [&](auto& b) { return t2.apply_sorted_batch(b, wipe, out2); });
  EXPECT_TRUE(none.empty());
}

// PR 10 range port for the leaf-oriented tree: router keys prune, only
// leaves emit; validated against a std::set oracle plus bounded-scan
// prefix semantics. (No count_range here — the external BST is the
// per-key-fallback structure on the read-batch path too.)
TEST(ExternalBst, ForEachRangeAndScanMatchOracle) {
  test::range_oracle_random<E>(5101);
}

}  // namespace
}  // namespace pathcopy
