// What is particular to the external (leaf-oriented) BST: entries live
// only in leaves under routers, an erase splices the sibling up, a bulk
// build has exactly 2n - 1 nodes, and its height is logarithmic only for
// random insertion orders. The map contract it shares with the other maps
// is in test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <utility>
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

TEST(ExternalBst, EntriesLiveInLeavesUnderRouters) {
  alloc::Arena a;
  E t = insert_all(a, E{}, {7});
  ASSERT_NE(t.root_node(), nullptr);
  EXPECT_TRUE(t.root_node()->is_leaf());  // a single entry is a leaf root
  t = insert_all(a, t, {3});
  EXPECT_EQ(t.size(), 2u);
  ASSERT_FALSE(t.root_node()->is_leaf());
  // Router equals min of right subtree (= 7).
  EXPECT_EQ(t.root_node()->key, 7);
  EXPECT_EQ(t.root_node()->left->key, 3);
  EXPECT_EQ(t.root_node()->right->key, 7);
  EXPECT_TRUE(t.check_invariants());
  // A search path ends at the leaf holding the key, past its router.
  t = insert_all(a, t, {1, 5, 9});
  const auto path = t.path_to(5);
  ASSERT_GE(path.size(), 2u);
  EXPECT_TRUE(path.back()->is_leaf());
  EXPECT_EQ(path.back()->key, 5);
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

TEST(ExternalBst, HeightLogarithmicForRandomKeys) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) keys.push_back(static_cast<std::int64_t>(rng()));
  E t = insert_all(a, E{}, keys);
  // Random insertion order: expected height ~ 2.99 log2 n ≈ 36; be generous.
  EXPECT_LE(t.height(), 60u);
}

// The bulk build is leaf-oriented: exactly 2n-1 nodes, every pair in a
// leaf, routers separating (check_invariants audits leaf/router
// separation and the size augmentation).
TEST(ExternalBst, FromSortedIsLeafOriented) {
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 200; ++k) items.emplace_back(k * 3, k);
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

}  // namespace
}  // namespace pathcopy
