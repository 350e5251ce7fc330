// What is particular to the weight-balanced tree: its height bound under
// sorted and random inserts, and the weight balance a reshaping batch
// must restore at every level. The map contract it shares with the other
// maps is in test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "persist/wbt.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using W = persist::WbTree<std::int64_t, std::int64_t>;

template <class Alloc>
W insert_all(Alloc& a, W t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    // Unsigned, so full-range random keys wrap instead of overflowing.
    const auto v = static_cast<std::int64_t>(static_cast<std::uint64_t>(k) * 10);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, v); });
  }
  return t;
}

TEST(Wbt, AscendingAndDescendingStayBalanced) {
  alloc::Arena a;
  std::vector<std::int64_t> up, down;
  for (std::int64_t i = 0; i < 2048; ++i) {
    up.push_back(i);
    down.push_back(2048 - i);
  }
  W tu = insert_all(a, W{}, up);
  W td = insert_all(a, W{}, down);
  EXPECT_TRUE(tu.check_invariants());
  EXPECT_TRUE(td.check_invariants());
  // BB[3] height bound is c * log2 n with small c; 2 log2(2048) = 22.
  EXPECT_LE(tu.height(), 22u);
  EXPECT_LE(td.height(), 22u);
}

TEST(Wbt, HeightTracksLogN) {
  alloc::Arena a;
  util::Xoshiro256 rng(8);
  std::vector<std::int64_t> keys;
  for (int i = 0; i < 8192; ++i) keys.push_back(static_cast<std::int64_t>(rng()));
  W t = insert_all(a, W{}, keys);
  EXPECT_TRUE(t.check_invariants());
  // BB[3] guarantees height <= log_{3/2}... in practice well under 2 log2 n.
  EXPECT_LE(t.height(), 2.0 * std::log2(8192.0) + 2);
}

// Weight-balance audit after a reshaping batch on a big tree: the join
// unwind must restore the Delta bound at every level, not just produce
// the right contents.
TEST(WbtBatch, BigBatchKeepsWeightBalance) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 4096; ++k) items.emplace_back(k * 2, k);
  W t = test::apply(
      a, [&](auto& b) { return W::from_sorted(b, items.begin(), items.end()); });
  // One clustered run of inserts (odd keys in a hot range) plus a run of
  // erases: the batch recursion reshapes two whole subranges.
  std::vector<W::BatchOp> ops;
  for (std::int64_t k = 1000; k < 1400; k += 2) {
    ops.push_back(W::BatchOp{W::BatchOpKind::kInsert, k + 1, k});
  }
  for (std::int64_t k = 6000; k < 6800; k += 2) {
    ops.push_back(W::BatchOp{W::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<W::BatchOutcome> out(ops.size());
  W t2 = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(t2.size(), 4096u + 200 - 400);
  EXPECT_TRUE(t2.check_invariants());
  EXPECT_TRUE(t.check_invariants());  // old version untouched
}

}  // namespace
}  // namespace pathcopy
