// Parameterized property sweeps across seeds and sizes: the treap's
// canonical shape, the leftist heap against a priority-queue oracle, and
// the simulator's scaling claims over its parameter grid. The ordered
// maps' oracle and persistence sweeps run for every map in
// test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "model/sim.hpp"
#include "persist/leftist_heap.hpp"
#include "persist/treap.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;

// ---------------------------------------------------------------------
// Treap canonical-shape sweep: any permutation of the same key set builds
// the identical tree.
// ---------------------------------------------------------------------

class CanonicalShapeSweep : public ::testing::TestWithParam<std::uint64_t> {};

void collect_preorder(const T::Node* n, std::vector<std::int64_t>& out) {
  if (n == nullptr) return;
  out.push_back(n->key);
  collect_preorder(n->left, out);
  collect_preorder(n->right, out);
}

TEST_P(CanonicalShapeSweep, PermutationInvariance) {
  const std::uint64_t seed = GetParam();
  alloc::Arena arena;
  util::Xoshiro256 rng(seed);
  std::set<std::int64_t> key_set;
  while (key_set.size() < 300) key_set.insert(rng.range(-10000, 10000));
  std::vector<std::int64_t> keys(key_set.begin(), key_set.end());

  auto build = [&](const std::vector<std::int64_t>& order) {
    T t;
    for (const auto k : order) {
      t = test::apply(arena, [&](auto& b) { return t.insert(b, k, k); });
    }
    return t;
  };
  const T sorted_build = build(keys);
  auto shuffled = keys;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  const T shuffled_build = build(shuffled);
  // Identical shape => identical height and full node-level sharing count
  // equal to... distinct trees, so compare structurally via pre-order keys.
  std::vector<std::int64_t> pre1, pre2;
  collect_preorder(sorted_build.root_node(), pre1);
  collect_preorder(shuffled_build.root_node(), pre2);
  EXPECT_EQ(pre1, pre2);

  // And removing a random half (in any order) keeps shapes canonical.
  std::vector<std::int64_t> to_remove(keys.begin(), keys.begin() + 150);
  auto t1 = sorted_build;
  for (const auto k : to_remove) {
    t1 = test::apply(arena, [&](auto& b) { return t1.erase(b, k); });
  }
  std::vector<std::int64_t> remaining(keys.begin() + 150, keys.end());
  const T rebuilt = build(remaining);
  std::vector<std::int64_t> pre3, pre4;
  collect_preorder(t1.root_node(), pre3);
  collect_preorder(rebuilt.root_node(), pre4);
  EXPECT_EQ(pre3, pre4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalShapeSweep,
                         ::testing::Values(7u, 8u, 9u));

// ---------------------------------------------------------------------
// Heap sweep.
// ---------------------------------------------------------------------

class HeapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapSweep, MatchesPriorityQueueOracle) {
  const std::uint64_t seed = GetParam();
  alloc::Arena arena;
  persist::LeftistHeap<std::int64_t> h;
  std::multiset<std::int64_t> oracle;
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < 1500; ++i) {
    if (oracle.empty() || rng.chance(11, 20)) {
      const std::int64_t v = rng.range(-1000, 1000);
      h = test::apply(arena, [&](auto& b) { return h.push(b, v); });
      oracle.insert(v);
    } else {
      ASSERT_EQ(h.top(), *oracle.begin());
      h = test::apply(arena, [&](auto& b) { return h.pop(b); });
      oracle.erase(oracle.begin());
    }
    ASSERT_EQ(h.size(), oracle.size());
  }
  ASSERT_TRUE(h.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapSweep, ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------
// Simulator grid: core scaling claims hold across the parameter space.
// ---------------------------------------------------------------------

using SimParam = std::tuple<std::size_t /*P*/, std::uint64_t /*R*/>;

class SimGrid : public ::testing::TestWithParam<SimParam> {};

TEST_P(SimGrid, RetryMissesStaySmallEverywhere) {
  const auto [p, r] = GetParam();
  model::SimConfig cfg;
  cfg.num_leaves = 1 << 13;
  cfg.cache_lines = 1 << 9;
  cfg.miss_cost = r;
  cfg.processes = p;
  cfg.ops = 3000;
  const auto res = model::run_protocol_sim(cfg);
  if (res.retry_count > 200) {
    // Path length is 14; retries must miss only a small constant.
    EXPECT_LT(res.misses_per_retry(), 5.0);
  }
  // Determinism across the grid.
  const auto res2 = model::run_protocol_sim(cfg);
  EXPECT_EQ(res.total_ticks, res2.total_ticks);
}

TEST_P(SimGrid, ThroughputNeverBelowHalfSequential) {
  // Even at P=1 (pure overhead: every op pays a cold path copy) the UC
  // simulation should stay within 2x of the mutating baseline.
  const auto [p, r] = GetParam();
  model::SimConfig cfg;
  cfg.num_leaves = 1 << 13;
  cfg.cache_lines = 1 << 9;
  cfg.miss_cost = r;
  cfg.processes = p;
  cfg.ops = 3000;
  EXPECT_GT(model::simulated_speedup(cfg), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimGrid,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 8, 16),
                       ::testing::Values<std::uint64_t>(16, 64, 256)));

}  // namespace
}  // namespace pathcopy
