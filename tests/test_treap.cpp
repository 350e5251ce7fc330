// What is particular to the treap: its shape is canonical (fixed by the
// key set through key-derived priorities, whatever the order or path of
// the updates), its priorities, and its copy cost and height. The map
// contract it shares with the other maps is in test_ordered_api.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc/arena_alloc.hpp"
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

TEST(Treap, CanonicalShapeIndependentOfInsertOrder) {
  alloc::Arena a;
  std::vector<std::int64_t> keys{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42, -5};
  T t1 = insert_all(a, T{}, keys);
  std::reverse(keys.begin(), keys.end());
  T t2 = insert_all(a, T{}, keys);
  EXPECT_EQ(shape_of(t1), shape_of(t2));
}

TEST(Treap, PointUpdatesKeepCanonicalShape) {
  alloc::Arena a;
  T t = insert_all(a, T{}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto before = shape_of(t);
  T t2 = test::apply(a, [&](auto& b) { return t.erase(b, 5); });
  T t3 = test::apply(a, [&](auto& b) { return t2.insert(b, 5, 50); });
  EXPECT_EQ(shape_of(t3), before);
  // An assignment changes a value, never the shape.
  T t4 = test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, 999); });
  EXPECT_EQ(shape_of(t4), before);
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

TEST(Treap, PriorityIsDeterministic) {
  EXPECT_EQ(T::priority_of(42), T::priority_of(42));
  EXPECT_NE(T::priority_of(42), T::priority_of(43));
}

// A sorted batch leaves the canonical shape too: applied to a random
// version or to the empty one, its result has exactly the shape
// from_sorted builds for the same keys (itself the incremental shape,
// above). Uniform and clustered (hot-range) batches both run.
TEST(TreapBatch, ResultsHaveCanonicalShape) {
  util::Xoshiro256 rng(1234);
  for (int round = 0; round < 60; ++round) {
    alloc::Arena a;
    const auto pattern = round < 40 ? test::BatchKeyPattern::kUniform
                                    : test::BatchKeyPattern::kClustered;
    const test::BatchCase<T> c = test::random_batch_case<T>(a, rng, pattern);
    std::vector<T::BatchOutcome> out(c.ops.size());
    for (const T& start : {c.start, T{}}) {
      const T batch = test::apply(
          a, [&](auto& b) { return start.apply_sorted_batch(b, c.ops, out); });
      const auto items = batch.items();
      const T canonical = test::apply(a, [&](auto& b) {
        return T::from_sorted(b, items.begin(), items.end());
      });
      ASSERT_EQ(shape_of(batch), shape_of(canonical)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace pathcopy
