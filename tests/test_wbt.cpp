#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
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

TEST(Wbt, EmptyBasics) {
  W t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.check_invariants());
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

TEST(Wbt, DuplicateInsertAndMissingEraseAreNoOps) {
  alloc::Arena a;
  W t = insert_all(a, W{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.insert(b, 2, 0).root_ptr(), t.root_ptr());
  EXPECT_EQ(t.erase(b, 9).root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TEST(Wbt, RankKthMinMax) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 128; ++i) keys.push_back(i * 3);
  W t = insert_all(a, W{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(t.kth(i)->key, keys[i]);
    ASSERT_EQ(t.rank(keys[i]), i);
  }
  EXPECT_EQ(t.min_node()->key, 0);
  EXPECT_EQ(t.max_node()->key, 127 * 3);
  EXPECT_EQ(t.count_range(3, 30), 9u);
}

TEST(Wbt, InsertOrAssign) {
  alloc::Arena a;
  W t = insert_all(a, W{}, {1, 2, 3});
  W t2 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 99); });
  EXPECT_EQ(*t2.find(2), 99);
  EXPECT_EQ(*t.find(2), 20);
  EXPECT_TRUE(t2.check_invariants());
}

TEST(Wbt, EraseEverythingKeepsBalance) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 512; ++i) keys.push_back(i);
  W t = insert_all(a, W{}, keys);
  util::Xoshiro256 rng(3);
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

TEST(Wbt, PersistenceAndSharing) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 1024; ++i) keys.push_back(i);
  W v1 = insert_all(a, W{}, keys);
  core::Builder<alloc::Arena> b(a);
  W v2 = v1.insert(b, 99999, 0);
  b.seal();
  (void)b.commit();
  EXPECT_EQ(v1.size(), 1024u);
  EXPECT_EQ(v2.size(), 1025u);
  EXPECT_FALSE(v1.contains(99999));
  EXPECT_GE(W::shared_nodes(v1, v2), v1.size() - 30);
}

TEST(Wbt, OracleChurn) {
  alloc::Arena a;
  W t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(51);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t k = rng.range(-70, 70);
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

TEST(Wbt, WorksUnderAtomConcurrently) {
  alloc::MallocAlloc a;
  {
    reclaim::EpochReclaimer smr;
    core::Atom<W, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, *a.retire_backend());
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        core::Atom<W, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, a);
        for (std::int64_t i = 0; i < 1000; ++i) {
          const std::int64_t key = w * 1000 + i;
          atom.update(ctx, [key](W t, auto& b) { return t.insert(b, key, key); });
        }
      });
    }
    for (auto& t : workers) t.join();
    core::Atom<W, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, a);
    EXPECT_EQ(atom.read(ctx, [](W t) { return t.size(); }), 4000u);
    EXPECT_TRUE(atom.read(ctx, [](W t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Wbt, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  W t;
  for (std::int64_t k = 0; k < 100; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 100u);
  W::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- from_sorted + apply_sorted_batch (shared oracle harness) -----

TEST(Wbt, FromSortedRoundTrip) { test::from_sorted_roundtrip<W>(); }

TEST(WbtBatch, NoopBatchesShareRoot) {
  test::batch_oracle_noop_shares_root<W>();
}

TEST(WbtBatch, OutcomesAndContents) { test::batch_oracle_outcomes<W>(); }

TEST(WbtBatch, RandomBatchesMatchSequentialApplication) {
  test::batch_oracle_random<W>(7171, 40, test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<W>(7172, 20, test::BatchKeyPattern::kClustered);
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

// PR 10 range port: subtree-pruned in-order walk vs a std::set oracle,
// with count_range cross-checks and bounded-scan prefix semantics.
TEST(Wbt, ForEachRangeAndScanMatchOracle) {
  test::range_oracle_random<W>(4101);
}

// Sorted read batch: one descent-sharing sweep must answer exactly like
// per-key find(), with consistent savings accounting.
TEST(Wbt, SortedReadBatchMatchesPerKeyFind) {
  test::read_batch_oracle_random<W>(4111, 30, test::BatchKeyPattern::kUniform);
  test::read_batch_oracle_random<W>(4112, 20,
                                    test::BatchKeyPattern::kClustered);
}

}  // namespace
}  // namespace pathcopy
