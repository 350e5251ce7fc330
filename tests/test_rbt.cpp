// What is particular to the red-black tree: its height and black-height
// bounds, the erase paths that must keep the coloring (root erases one
// after another, reshaping batches), and the leveled coloring of its bulk
// builds at every size. The map contract it shares with the other maps is
// in test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "persist/rbt.hpp"
#include "test_support.hpp"

namespace pathcopy {
namespace {

using R = persist::RbTree<std::int64_t, std::int64_t>;

template <class Alloc>
R insert_all(Alloc& al, R t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(al, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

std::vector<std::int64_t> iota_keys(std::int64_t n) {
  std::vector<std::int64_t> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) keys.push_back(i);
  return keys;
}

TEST(Rbt, AscendingInsertKeepsRedBlackContract) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(1024));
  EXPECT_EQ(t.size(), 1024u);
  EXPECT_TRUE(t.check_invariants());
  // Red-black height bound: <= 2 log2(n+1) = 20 for n=1024.
  EXPECT_LE(t.height(), 20u);
}

TEST(Rbt, DescendingInsertKeepsRedBlackContract) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 1024; i > 0; --i) keys.push_back(i);
  R t = insert_all(a, R{}, keys);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_LE(t.height(), 20u);
}

TEST(Rbt, EraseRootRepeatedly) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(200));
  while (!t.empty()) {
    const std::int64_t root_key = t.root_node()->key;
    t = test::apply(a, [&](auto& b) { return t.erase(b, root_key); });
    ASSERT_TRUE(t.check_invariants());
  }
}

TEST(Rbt, BlackHeightIsLogarithmic) {
  alloc::Arena a;
  R t = insert_all(a, R{}, iota_keys(4096));
  const double log2n = std::log2(4096.0 + 1.0);
  EXPECT_GE(t.black_height(), static_cast<std::size_t>(log2n / 2.0));
  EXPECT_LE(t.black_height(), static_cast<std::size_t>(log2n) + 1);
}

// The leveled coloring (bottommost midpoint level red, the rest black)
// must satisfy the full red/black contract at every size, including the
// awkward just-past-a-power-of-two ones; check_invariants audits BST
// order, black root, no red-red edge, and uniform black height.
TEST(Rbt, FromSortedColoringHoldsAcrossSizes) {
  alloc::Arena a;
  for (std::int64_t n = 0; n <= 300; ++n) {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < n; ++k) items.emplace_back(k, k);
    R t = test::apply(a, [&](auto& b) {
      return R::from_sorted(b, items.begin(), items.end());
    });
    ASSERT_TRUE(t.check_invariants()) << "n = " << n;
    ASSERT_EQ(t.size(), static_cast<std::size_t>(n));
  }
}

// Red/black audit after a reshaping batch on a big tree: the join spine
// descent and recolor cascade must leave uniform black height and no
// red-red edge, with the deterministic height bound intact.
TEST(RbtBatch, BigBatchKeepsRedBlackContract) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 4096; ++k) items.emplace_back(k * 2, k);
  R t = test::apply(
      a, [&](auto& b) { return R::from_sorted(b, items.begin(), items.end()); });
  std::vector<R::BatchOp> ops;
  for (std::int64_t k = 1000; k < 1400; k += 2) {
    ops.push_back(R::BatchOp{R::BatchOpKind::kInsert, k + 1, k});
  }
  for (std::int64_t k = 6000; k < 6800; k += 2) {
    ops.push_back(R::BatchOp{R::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<R::BatchOutcome> out(ops.size());
  R t2 = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t2.size(), 4096u + 200 - 400);
  EXPECT_TRUE(t2.check_invariants());
  EXPECT_TRUE(t.check_invariants());  // old version untouched
  // height <= 2 log2(N+1), the red-black worst case.
  EXPECT_LE(t2.height(),
            2 * static_cast<std::size_t>(std::log2(t2.size() + 1)) + 2);
}

}  // namespace
}  // namespace pathcopy
