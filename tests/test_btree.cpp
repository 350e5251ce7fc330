// What is particular to the B+tree: leaf splits and height, occupancy
// bounds through borrow/merge and bulk builds, the fanouts the typed
// contract suite does not run, and the combining UC's clustering probe
// (count_leaf_runs). The map contract it shares with the other maps is
// in test_ordered_api.cpp, at fanouts 8 and 64.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "persist/btree.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::BTree<std::int64_t, std::int64_t, 8>;

template <class Tree, class Alloc>
Tree insert_all(Alloc& al, Tree t, const std::vector<std::int64_t>& keys) {
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

TEST(Btree, LeafSplitCreatesRoot) {
  alloc::Arena a;
  T t = insert_all(a, T{}, iota_keys(8));  // one leaf, full at fanout 8
  EXPECT_EQ(t.height(), 1u);
  t = insert_all(a, t, {8});  // capacity 8 → split
  EXPECT_EQ(t.height(), 2u);
  EXPECT_TRUE(t.check_invariants());
  for (std::int64_t k = 0; k < 9; ++k) ASSERT_TRUE(t.contains(k));
}

TEST(Btree, SortedInsertsKeepInvariants) {
  alloc::Arena a;
  T up = insert_all(a, T{}, iota_keys(2048));
  EXPECT_EQ(up.size(), 2048u);
  EXPECT_TRUE(up.check_invariants());
  // Fanout-8 height bound: log_4(2048) ≈ 5.5 plus root slack.
  EXPECT_LE(up.height(), 7u);
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 2048; i > 0; --i) keys.push_back(i);
  T down = insert_all(a, T{}, keys);
  EXPECT_EQ(down.size(), 2048u);
  EXPECT_TRUE(down.check_invariants());
}

TEST(Btree, EraseTriggersBorrowAndMerge) {
  alloc::Arena a;
  // Build enough structure for internal rebalancing, then erase a block
  // of adjacent keys — adjacency maximizes borrow/merge traffic — and
  // then the rest in random order. Merges only ever shorten the tree.
  T t = insert_all(a, T{}, iota_keys(512));
  std::size_t last_height = t.height();
  const auto erase_checked = [&](std::int64_t k) {
    t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    ASSERT_TRUE(t.check_invariants()) << "after erasing " << k;
    ASSERT_LE(t.height(), last_height) << "after erasing " << k;
    last_height = t.height();
  };
  for (std::int64_t k = 100; k < 400; ++k) erase_checked(k);
  EXPECT_EQ(t.size(), 212u);
  for (std::int64_t k = 0; k < 100; ++k) ASSERT_TRUE(t.contains(k));
  for (std::int64_t k = 100; k < 400; ++k) ASSERT_FALSE(t.contains(k));
  for (std::int64_t k = 400; k < 512; ++k) ASSERT_TRUE(t.contains(k));

  std::vector<std::int64_t> rest = iota_keys(100);
  for (std::int64_t k = 400; k < 512; ++k) rest.push_back(k);
  util::Xoshiro256 rng(5);
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.below(i)]);
  }
  for (const auto k : rest) erase_checked(k);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 0u);
}

// The random-ops oracle at the fanouts the typed contract suite does not
// run (it runs 8 and 64), down to the minimum legal fanout 3, where every
// split/merge boundary case fires constantly.
template <unsigned F>
void run_fanout_battery() {
  using TF = persist::BTree<std::int64_t, std::int64_t, F>;
  alloc::Arena a;
  TF t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(41 + F);
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t k = rng.range(-120, 120);
    if (rng.chance(3, 5)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k * 2); });
      oracle.emplace(k, k * 2);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
    if (i % 200 == 0) { ASSERT_TRUE(t.check_invariants()); }
  }
  ASSERT_TRUE(t.check_invariants());
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(t.find(k), nullptr);
    ASSERT_EQ(*t.find(k), v);
  }
}

TEST(BtreeFanouts, F3) { run_fanout_battery<3>(); }
TEST(BtreeFanouts, F4) { run_fanout_battery<4>(); }
TEST(BtreeFanouts, F16) { run_fanout_battery<16>(); }

// ----- from_sorted + apply_sorted_batch -----

// Balanced leaf/internal packing must respect the occupancy bounds at
// every size (check_invariants audits [min, max] fill and uniform leaf
// depth) — and at the tightest legal fanout, where the margins vanish.
TEST(Btree, FromSortedOccupancyHoldsAcrossSizes) {
  alloc::Arena a;
  for (std::int64_t n = 0; n <= 200; ++n) {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < n; ++k) items.emplace_back(k, k);
    T t = test::apply(a, [&](auto& b) {
      return T::from_sorted(b, items.begin(), items.end());
    });
    ASSERT_TRUE(t.check_invariants()) << "n = " << n;
    using T3 = persist::BTree<std::int64_t, std::int64_t, 3>;
    T3 t3 = test::apply(a, [&](auto& b) {
      return T3::from_sorted(b, items.begin(), items.end());
    });
    ASSERT_TRUE(t3.check_invariants()) << "fanout 3, n = " << n;
  }
}

// Sorted read batch over the multiway layout: separator-directed probe
// partitioning plus the leaf linear merge must answer exactly like
// per-key find() at fanout 3 too, where the nodes are tightest.
TEST(Btree, SortedReadBatchAtFanout3) {
  test::read_batch_oracle_random<persist::BTree<std::int64_t, std::int64_t, 3>>(
      6113, 20, test::BatchKeyPattern::kClustered);
}

// The piece machinery is fanout-sensitive (underflow repair margins
// shrink with F); run the oracle at the tightest and a fat fanout too.
TEST(BtreeBatch, RandomBatchesAcrossFanouts) {
  test::batch_oracle_random<persist::BTree<std::int64_t, std::int64_t, 3>>(
      9291, 25, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<persist::BTree<std::int64_t, std::int64_t, 4>>(
      9292, 25, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<persist::BTree<std::int64_t, std::int64_t, 16>>(
      9293, 25, test::BatchKeyPattern::kClustered);
}

// ----- the combining UC's clustering probe (count_leaf_runs) -----

TEST(BtreeBatch, CountLeafRunsMatchesLeafPartition) {
  alloc::Arena a;
  // Dense keys 0..n-1 at fanout 8: consecutive keys co-reside in leaves,
  // far-apart keys do not.
  T t = insert_all(a, T{}, iota_keys(512));
  const auto probe = [&](std::vector<std::int64_t> keys) {
    std::vector<typename T::BatchOp> ops;
    for (const auto k : keys) {
      ops.push_back({persist::BatchOpKind::kInsert, k, k});
    }
    return t.count_leaf_runs(std::span<const typename T::BatchOp>(ops));
  };
  EXPECT_EQ(probe({}), 0u);
  EXPECT_EQ(probe({100}), 1u);
  // Two adjacent keys share a leaf; a full-span pair cannot.
  EXPECT_EQ(probe({100, 101}), 1u);
  EXPECT_EQ(probe({0, 511}), 2u);
  // Keys 64 apart at leaf capacity 8 are always on distinct leaves, so
  // the run count equals the key count.
  EXPECT_EQ(probe({0, 64, 128, 192, 256, 320, 384, 448}), 8u);
  // A clustered window tiles into far fewer leaves than it has ops: every
  // key of 128..191 lands in one of ~64/kLeafMin..64/kLeafCap leaves.
  std::vector<std::int64_t> window;
  for (std::int64_t k = 128; k < 192; ++k) window.push_back(k);
  const unsigned runs = probe(window);
  EXPECT_GE(runs, 64u / T::kLeafCap);
  EXPECT_LE(runs, 64u / T::kLeafMin + 1);
}

TEST(BtreeBatch, CountLeafRunsSampledPrefixStopsEarly) {
  alloc::Arena a;
  T t = insert_all(a, T{}, iota_keys(512));
  std::vector<typename T::BatchOp> ops;
  for (std::int64_t k = 0; k < 512; k += 64) {
    ops.push_back({persist::BatchOpKind::kInsert, k, k});  // 8 leaves
  }
  const std::span<const typename T::BatchOp> span(ops);
  // Uncapped: exact count, everything covered.
  std::size_t covered = ~std::size_t{0};
  EXPECT_EQ(t.count_leaf_runs(span, ~0u, &covered), 8u);
  EXPECT_EQ(covered, ops.size());
  // Capped at 4: four descents, four leading ops covered (one per leaf).
  EXPECT_EQ(t.count_leaf_runs(span, 4, &covered), 4u);
  EXPECT_EQ(covered, 4u);
  // Clustered prefix: the cap still covers many ops per counted leaf.
  std::vector<typename T::BatchOp> dense;
  for (std::int64_t k = 128; k < 192; ++k) {
    dense.push_back({persist::BatchOpKind::kInsert, k, k});
  }
  const unsigned dense_runs = t.count_leaf_runs(
      std::span<const typename T::BatchOp>(dense), 4, &covered);
  EXPECT_EQ(dense_runs, 4u);
  // Every key in the window is in the batch, so each fully-sampled leaf
  // contributes its whole occupancy (>= kLeafMin); the first leaf may be
  // entered mid-range, so discount it.
  EXPECT_GE(covered, 3u * T::kLeafMin + 1);
}

// Occupancy audit around batch-driven growth and shrinkage: a bulk
// insert run must split leaves (height grows, bounds hold), and a mass
// erase must merge/collapse back down to a shorter valid tree.
TEST(BtreeBatch, SplitsAndCollapsesKeepOccupancyBounds) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t k = 0; k < 512; ++k) items.emplace_back(k * 2, k);
  T t = test::apply(
      a, [&](auto& b) { return T::from_sorted(b, items.begin(), items.end()); });
  const std::size_t h0 = t.height();

  // Dense insert run: every odd key in [0, 2048) lands, doubling the
  // contested range and forcing leaf splits all along it.
  std::vector<T::BatchOp> grow;
  for (std::int64_t k = 1; k < 2048; k += 2) {
    grow.push_back(T::BatchOp{T::BatchOpKind::kInsert, k, k});
  }
  std::vector<T::BatchOutcome> out(grow.size());
  T big = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, grow, out); });
  EXPECT_EQ(big.size(), 512u + grow.size());
  EXPECT_TRUE(big.check_invariants());
  EXPECT_GE(big.height(), h0);

  // Mass erase: everything but 3 keys vanishes in one batch; the tree
  // must collapse to a short valid root without underfull nodes.
  std::vector<T::BatchOp> shrink;
  for (const auto& [k, v] : big.items()) {
    if (k % 997 != 0) {
      shrink.push_back(T::BatchOp{T::BatchOpKind::kErase, k, std::nullopt});
    }
  }
  std::vector<T::BatchOutcome> out2(shrink.size());
  T small = test::apply(
      a, [&](auto& b) { return big.apply_sorted_batch(b, shrink, out2); });
  EXPECT_EQ(small.size(), big.size() - shrink.size());
  EXPECT_TRUE(small.check_invariants());
  EXPECT_LT(small.height(), big.height());
  EXPECT_TRUE(big.check_invariants());  // old version untouched

  // And all the way to empty.
  std::vector<T::BatchOp> wipe;
  for (const auto& [k, v] : small.items()) {
    wipe.push_back(T::BatchOp{T::BatchOpKind::kErase, k, std::nullopt});
  }
  std::vector<T::BatchOutcome> out3(wipe.size());
  T none = test::apply(
      a, [&](auto& b) { return small.apply_sorted_batch(b, wipe, out3); });
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.check_invariants());
}

}  // namespace
}  // namespace pathcopy
