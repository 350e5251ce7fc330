// What is particular to the AVL tree: its height bound under sorted
// inserts, the rotations that keep it, and the perfect balance of its
// bulk builds. The map contract it shares with the other maps is in
// test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "persist/avl.hpp"
#include "test_support.hpp"

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

TEST(Avl, FromSortedIsPerfectlyBalanced) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 1000; k += 3) items.emplace_back(k, k * 10);
  A t = test::apply(
      a, [&](auto& b) { return A::from_sorted(b, items.begin(), items.end()); });
  // Midpoint build is perfectly balanced: height == ceil(log2(n+1)).
  EXPECT_LE(t.height(), 9u);  // n = 334
}

TEST(AvlBatch, BatchOnEmptyTreeIsBalanced) {
  alloc::Arena a;
  std::vector<A::BatchOp> ops;
  for (std::int64_t k = 0; k < 127; ++k) {
    ops.push_back(test::batch_ins<A>(k, k));
  }
  std::vector<A::BatchOutcome> out(ops.size());
  A t = test::apply(
      a, [&](auto& b) { return A{}.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t.size(), 127u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.height(), 7u);  // perfect tree of 127
}

}  // namespace
}  // namespace pathcopy
