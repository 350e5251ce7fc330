#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "persist/treap.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;

// Pre-order (key, prio) serialization: equal sequences <=> identical shape.
void serialize(const T::Node* n, std::vector<std::pair<std::int64_t, std::uint64_t>>& out) {
  if (n == nullptr) return;
  out.emplace_back(n->key, n->prio);
  serialize(n->left, out);
  serialize(n->right, out);
}

std::vector<std::pair<std::int64_t, std::uint64_t>> shape_of(const T& t) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  serialize(t.root_node(), out);
  return out;
}

template <class Alloc>
T insert_all(Alloc& a, T t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

TEST(Treap, EmptyBasics) {
  T t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.min_node(), nullptr);
  EXPECT_EQ(t.max_node(), nullptr);
  EXPECT_EQ(t.kth(0), nullptr);
  EXPECT_EQ(t.rank(5), 0u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.height(), 0u);
}

TEST(Treap, SingleInsert) {
  alloc::Arena a;
  T t = test::apply(a, [&](auto& b) { return T{}.insert(b, 5, 50); });
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.contains(5));
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), 50);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, DuplicateInsertReturnsSameRoot) {
  alloc::Arena a;
  T t = test::apply(a, [&](auto& b) { return T{}.insert(b, 5, 50); });
  core::Builder<alloc::Arena> b(a);
  T t2 = t.insert(b, 5, 99);
  EXPECT_EQ(t2.root_ptr(), t.root_ptr());  // semantic no-op: same version
  EXPECT_EQ(b.fresh_count(), 0u);          // and no allocations at all
  b.rollback();
  EXPECT_EQ(*t.find(5), 50);
}

TEST(Treap, EraseAbsentReturnsSameRoot) {
  alloc::Arena a;
  T t = test::apply(a, [&](auto& b) { return T{}.insert(b, 5, 50); });
  core::Builder<alloc::Arena> b(a);
  T t2 = t.erase(b, 7);
  EXPECT_EQ(t2.root_ptr(), t.root_ptr());
  b.rollback();
}

TEST(Treap, InsertEraseRoundTrip) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {3, 1, 4, 1, 5, 9, 2, 6});
  EXPECT_EQ(t.size(), 7u);  // duplicate 1 collapsed
  t = test::apply(a, [&](auto& b) { return t.erase(b, 4); });
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FALSE(t.contains(4));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, ItemsAreSorted) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {9, 1, 8, 2, 7, 3});
  const auto items = t.items();
  ASSERT_EQ(items.size(), 6u);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_EQ(items.front().first, 1);
  EXPECT_EQ(items.back().first, 9);
}

TEST(Treap, ValuesFollowKeys) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {10, 20, 30});
  EXPECT_EQ(*t.find(10), 100);
  EXPECT_EQ(*t.find(20), 200);
  EXPECT_EQ(*t.find(30), 300);
}

TEST(Treap, MinMax) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {5, -3, 12, 0});
  ASSERT_NE(t.min_node(), nullptr);
  EXPECT_EQ(t.min_node()->key, -3);
  EXPECT_EQ(t.max_node()->key, 12);
}

TEST(Treap, FloorCeiling) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {10, 20, 30});
  EXPECT_EQ(t.floor_node(25)->key, 20);
  EXPECT_EQ(t.floor_node(20)->key, 20);
  EXPECT_EQ(t.floor_node(5), nullptr);
  EXPECT_EQ(t.ceiling_node(25)->key, 30);
  EXPECT_EQ(t.ceiling_node(30)->key, 30);
  EXPECT_EQ(t.ceiling_node(35), nullptr);
}

TEST(Treap, RankAndKthAgree) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 100; ++i) keys.push_back(i * 3);
  T t = insert_all(a, T{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto* n = t.kth(i);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->key, static_cast<std::int64_t>(i * 3));
    EXPECT_EQ(t.rank(n->key), i);
  }
  EXPECT_EQ(t.kth(keys.size()), nullptr);
  EXPECT_EQ(t.rank(1000), 100u);  // all keys < 1000
  EXPECT_EQ(t.rank(1), 1u);       // only key 0
}

TEST(Treap, CountRange) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(t.count_range(3, 6), 3u);  // {3,4,5}
  EXPECT_EQ(t.count_range(1, 9), 8u);
  EXPECT_EQ(t.count_range(5, 5), 0u);
  EXPECT_EQ(t.count_range(9, 3), 0u);  // inverted range
}

TEST(Treap, ForEachRangeRespectsBounds) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<std::int64_t> seen;
  t.for_each_range(3, 7, [&](const std::int64_t& k, const std::int64_t&) {
    seen.push_back(k);
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{3, 4, 5, 6}));
}

TEST(Treap, CanonicalShapeIndependentOfInsertOrder) {
  alloc::Arena a;
  std::vector<std::int64_t> keys{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42, -5};
  T t1 = insert_all(a, T{}, keys);
  std::reverse(keys.begin(), keys.end());
  T t2 = insert_all(a, T{}, keys);
  EXPECT_EQ(shape_of(t1), shape_of(t2));
}

TEST(Treap, EraseThenReinsertRestoresShape) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto before = shape_of(t);
  T t2 = test::apply(a, [&](auto& b) { return t.erase(b, 5); });
  T t3 = test::apply(a, [&](auto& b) { return t2.insert(b, 5, 50); });
  EXPECT_EQ(shape_of(t3), before);
}

TEST(Treap, FromSortedMatchesIncrementalShape) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 500; ++i) {
    items.emplace_back(i * 7, i);
    keys.push_back(i * 7);
  }
  T bulk = test::apply(
      a, [&](auto& b) { return T::from_sorted(b, items.begin(), items.end()); });
  EXPECT_TRUE(bulk.check_invariants());
  EXPECT_EQ(bulk.size(), 500u);

  std::vector<std::int64_t> shuffled = keys;
  util::Xoshiro256 rng(11);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  T inc;
  for (const auto k : shuffled) {
    inc = test::apply(a, [&](auto& b) { return inc.insert(b, k, k / 7); });
  }
  EXPECT_EQ(shape_of(bulk), shape_of(inc));
}

TEST(Treap, FromSortedEmptyAndSingle) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> none;
  T t0 = test::apply(a, [&](auto& b) {
    return T::from_sorted(b, none.begin(), none.end());
  });
  EXPECT_TRUE(t0.empty());
  std::vector<std::pair<std::int64_t, std::int64_t>> one{{4, 40}};
  T t1 = test::apply(a, [&](auto& b) {
    return T::from_sorted(b, one.begin(), one.end());
  });
  EXPECT_EQ(t1.size(), 1u);
  EXPECT_EQ(*t1.find(4), 40);
}

TEST(Treap, PersistenceOldVersionUnchanged) {
  alloc::Arena a;
  T v1 = insert_all(a, T{}, {1, 2, 3, 4, 5});
  const auto v1_shape = shape_of(v1);
  core::Builder<alloc::Arena> b(a);
  T v2 = v1.insert(b, 6, 60);
  b.seal();
  (void)b.commit();  // keep superseded nodes alive: v1 still references them
  EXPECT_EQ(shape_of(v1), v1_shape);
  EXPECT_EQ(v1.size(), 5u);
  EXPECT_EQ(v2.size(), 6u);
  EXPECT_FALSE(v1.contains(6));
  EXPECT_TRUE(v2.contains(6));
  EXPECT_TRUE(v1.check_invariants());
  EXPECT_TRUE(v2.check_invariants());
}

TEST(Treap, StructuralSharingAfterInsert) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 1024; ++i) keys.push_back(i);
  T v1 = insert_all(a, T{}, keys);
  core::Builder<alloc::Arena> b(a);
  T v2 = v1.insert(b, 5000, 0);
  b.seal();
  (void)b.commit();
  const std::size_t shared = T::shared_nodes(v1, v2);
  // Only the copied path is new: sharing covers all but O(log n) nodes.
  EXPECT_GE(shared, v1.size() - 4 * 11);
  EXPECT_LT(shared, v2.size());
}

TEST(Treap, InsertCopiesOnlyLogarithmicallyManyNodes) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t i = 0; i < 100000; ++i) items.emplace_back(i, i);
  T t = test::apply(
      a, [&](auto& b) { return T::from_sorted(b, items.begin(), items.end()); });
  core::Builder<alloc::Arena> b(a);
  (void)t.insert(b, -42, 0);
  // Expected treap height is ~1.39 log2 n; split/merge allocates at most
  // about twice the path length. 120 is a very generous cap for n = 1e5.
  EXPECT_LE(b.stats().created, 120u);
  EXPECT_GE(b.stats().created, 2u);
  b.rollback();
}

TEST(Treap, HeightIsLogarithmic) {
  alloc::Arena a;
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::int64_t i = 0; i < 10000; ++i) items.emplace_back(i, i);
  T t = test::apply(
      a, [&](auto& b) { return T::from_sorted(b, items.begin(), items.end()); });
  // log2(1e4) ~ 13.3; random treap height concentrates below ~3 log2 n.
  EXPECT_LE(t.height(), 60u);
  EXPECT_GE(t.height(), 13u);
}

TEST(Treap, InsertOrAssignOverwrites) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3});
  T t2 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 999); });
  EXPECT_EQ(*t2.find(2), 999);
  EXPECT_EQ(t2.size(), 3u);
  EXPECT_NE(t2.root_ptr(), t.root_ptr());  // assignment makes a new version
  EXPECT_TRUE(t2.check_invariants());
  // Shape unchanged: only values differ.
  EXPECT_EQ(shape_of(t2), shape_of(t));
}

TEST(Treap, PathToKeyEndsAtKey) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto path = t.path_to(5);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), t.root_node());
  EXPECT_EQ(path.back()->key, 5);
}

TEST(Treap, RandomOpsAgainstOracle) {
  alloc::Arena a;
  T t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t k = rng.range(-50, 50);
    if (rng.chance(1, 2)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
      oracle.emplace(k, k);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
  }
  EXPECT_TRUE(t.check_invariants());
  const auto items = t.items();
  ASSERT_EQ(items.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(items[i].first, k);
    ++i;
  }
}

TEST(Treap, DestroyFreesEverything) {
  alloc::MallocAlloc a;
  T t;
  for (std::int64_t k = 0; k < 200; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 200u);
  T::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Treap, PriorityIsDeterministic) {
  EXPECT_EQ(T::priority_of(42), T::priority_of(42));
  EXPECT_NE(T::priority_of(42), T::priority_of(43));
}

// ----- apply_sorted_batch -----

T::BatchOp ins(std::int64_t k, std::int64_t v) {
  return T::BatchOp{T::BatchOpKind::kInsert, k, v};
}
T::BatchOp era(std::int64_t k) {
  return T::BatchOp{T::BatchOpKind::kErase, k, std::nullopt};
}
T::BatchOp asg(std::int64_t k, std::int64_t v) {
  return T::BatchOp{T::BatchOpKind::kAssign, k, v};
}

// Empty/all-noop sharing and the three-kind outcome check come from the
// shared batch-oracle harness (test_support.hpp), instantiated for every
// SupportsSortedBatch structure.
TEST(TreapBatch, NoopBatchesShareRoot) {
  test::batch_oracle_noop_shares_root<T>();
}

TEST(TreapBatch, OutcomesAndContents) { test::batch_oracle_outcomes<T>(); }

TEST(TreapBatch, BatchOnEmptyTreeBuildsCanonicalShape) {
  alloc::Arena a;
  std::vector<T::BatchOp> ops{ins(1, 10), era(2), ins(3, 30), asg(4, 40),
                              era(5), ins(6, 60)};
  std::vector<T::BatchOutcome> out(ops.size());
  T batch = test::apply(
      a, [&](auto& b) { return T{}.apply_sorted_batch(b, ops, out); });
  T seq = insert_all(a, T{}, {1, 3, 6});
  seq = test::apply(a, [&](auto& b) { return seq.insert(b, 4, 40); });
  EXPECT_EQ(shape_of(batch), shape_of(seq));
  EXPECT_EQ(out[1], T::BatchOutcome::kNoop);
  EXPECT_EQ(out[3], T::BatchOutcome::kInserted);
  EXPECT_TRUE(batch.check_invariants());
}

// The canonical-form property test the batch path is held to, via the
// shared oracle harness: contents and outcomes must match sequential
// application — and, the treap being canonical, so must the exact shape
// (the `extra` hook). Uniform and clustered key patterns both run; the
// clustered one is the hot-range regime the shared spine exists for.
TEST(TreapBatch, RandomBatchesMatchSequentialApplication) {
  const auto shapes_equal = [](const T& batch, const T& seq) {
    ASSERT_EQ(shape_of(batch), shape_of(seq));
  };
  test::batch_oracle_random<T>(1234, 40, test::BatchKeyPattern::kUniform,
                               shapes_equal);
  test::batch_oracle_random<T>(1235, 20, test::BatchKeyPattern::kClustered,
                               shapes_equal);
}

// Bounded scan rides for_each_range; the shared oracle also re-checks the
// range walk and count_range against a std::set reference.
TEST(Treap, ScanMatchesOracle) { test::range_oracle_random<T>(1101); }

// Sorted read batch: one descent-sharing sweep must answer exactly like
// per-key find(), with consistent savings accounting.
TEST(Treap, SortedReadBatchMatchesPerKeyFind) {
  test::read_batch_oracle_random<T>(1111, 30, test::BatchKeyPattern::kUniform);
  test::read_batch_oracle_random<T>(1112, 20,
                                    test::BatchKeyPattern::kClustered);
}

}  // namespace
}  // namespace pathcopy
