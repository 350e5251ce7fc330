// One battery, every ordered structure: the same semantic contract runs
// against Treap, AVL, weight-balanced, red-black, external BST and two
// B+tree fanouts through a typed test suite. Surface differences (node-
// pointer vs key-pointer accessors, optional floor/ceiling) are bridged
// with `if constexpr (requires ...)` so each structure is tested exactly
// as far as its API goes — no copy-paste per structure, no weakened
// checks for the structures that do support an operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

// ----- API bridges -----

template <class DS>
const std::int64_t* min_key_of(const DS& t) {
  if constexpr (requires { t.min_key(); }) {
    return t.min_key();
  } else if constexpr (requires { t.min_node(); }) {
    const auto* n = t.min_node();
    return n == nullptr ? nullptr : &n->key;
  } else {
    const auto* n = t.min_leaf();
    return n == nullptr ? nullptr : &n->key;
  }
}

template <class DS>
const std::int64_t* max_key_of(const DS& t) {
  if constexpr (requires { t.max_key(); }) {
    return t.max_key();
  } else if constexpr (requires { t.max_node(); }) {
    const auto* n = t.max_node();
    return n == nullptr ? nullptr : &n->key;
  } else {
    const auto* n = t.max_leaf();
    return n == nullptr ? nullptr : &n->key;
  }
}

template <class DS>
const std::int64_t* kth_key_of(const DS& t, std::size_t i) {
  if constexpr (requires { t.kth_key(i); }) {
    return t.kth_key(i);
  } else {
    const auto* n = t.kth(i);
    return n == nullptr ? nullptr : &n->key;
  }
}

template <class DS>
const std::int64_t* floor_key_of(const DS& t, std::int64_t q) {
  if constexpr (requires { t.floor_key(q); }) {
    return t.floor_key(q);
  } else {
    const auto* n = t.floor_node(q);
    return n == nullptr ? nullptr : &n->key;
  }
}

template <class DS, class Alloc>
DS insert_all(Alloc& al, DS t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(al, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

std::vector<std::int64_t> shuffled_iota(std::int64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < n; ++i) keys.push_back(i);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  return keys;
}

template <class DS>
class OrderedApi : public ::testing::Test {};

using Structures =
    ::testing::Types<persist::Treap<std::int64_t, std::int64_t>,
                     persist::AvlTree<std::int64_t, std::int64_t>,
                     persist::WbTree<std::int64_t, std::int64_t>,
                     persist::RbTree<std::int64_t, std::int64_t>,
                     persist::ExternalBst<std::int64_t, std::int64_t>,
                     persist::BTree<std::int64_t, std::int64_t, 8>,
                     persist::BTree<std::int64_t, std::int64_t, 64>>;
TYPED_TEST_SUITE(OrderedApi, Structures);

TYPED_TEST(OrderedApi, EmptyTreeEdgeCases) {
  TypeParam t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(42), nullptr);
  EXPECT_FALSE(t.contains(42));
  EXPECT_EQ(min_key_of(t), nullptr);
  EXPECT_EQ(max_key_of(t), nullptr);
  EXPECT_EQ(kth_key_of(t, 0), nullptr);
  EXPECT_EQ(t.rank(0), 0u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_TRUE(t.items().empty());
}

TYPED_TEST(OrderedApi, SingleElementLifecycle) {
  alloc::Arena a;
  TypeParam t;
  t = test::apply(a, [&](auto& b) { return t.insert(b, 7, 70); });
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(7), 70);
  EXPECT_EQ(*min_key_of(t), 7);
  EXPECT_EQ(*max_key_of(t), 7);
  EXPECT_EQ(*kth_key_of(t, 0), 7);
  EXPECT_TRUE(t.check_invariants());
  t = test::apply(a, [&](auto& b) { return t.erase(b, 7); });
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.check_invariants());
}

TYPED_TEST(OrderedApi, DuplicateInsertAndAbsentEraseKeepRoot) {
  alloc::Arena a;
  TypeParam t = insert_all(a, TypeParam{}, {1, 2, 3});
  core::Builder<alloc::Arena> b(a);
  EXPECT_EQ(t.insert(b, 2, 0).root_ptr(), t.root_ptr());
  EXPECT_EQ(t.erase(b, 9).root_ptr(), t.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TYPED_TEST(OrderedApi, InsertOrAssignReplacesWithoutGrowth) {
  alloc::Arena a;
  TypeParam t = insert_all(a, TypeParam{}, {1, 2, 3});
  TypeParam t2 =
      test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 2, -5); });
  EXPECT_EQ(*t2.find(2), -5);
  EXPECT_EQ(*t.find(2), 20);  // old version untouched
  EXPECT_EQ(t2.size(), 3u);
  EXPECT_TRUE(t2.check_invariants());
}

TYPED_TEST(OrderedApi, ItemsSortedAndComplete) {
  alloc::Arena a;
  const auto keys = shuffled_iota(512, 17);
  TypeParam t = insert_all(a, TypeParam{}, keys);
  const auto items = t.items();
  ASSERT_EQ(items.size(), 512u);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].first, static_cast<std::int64_t>(i));
    EXPECT_EQ(items[i].second, static_cast<std::int64_t>(i) * 10);
  }
}

TYPED_TEST(OrderedApi, RankKthRoundTrip) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 200; ++i) keys.push_back(i * 7 + 3);
  TypeParam t = insert_all(a, TypeParam{}, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(kth_key_of(t, i), nullptr);
    EXPECT_EQ(*kth_key_of(t, i), keys[i]);
    EXPECT_EQ(t.rank(keys[i]), i);
  }
  EXPECT_EQ(kth_key_of(t, keys.size()), nullptr);
}

TYPED_TEST(OrderedApi, OptionalRangeQueriesMatchOracle) {
  alloc::Arena a;
  util::Xoshiro256 rng(29);
  std::map<std::int64_t, std::int64_t> oracle;
  TypeParam t;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t k = rng.range(-200, 200);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
    oracle.emplace(k, k);
  }
  if constexpr (requires { t.count_range(0, 1); }) {
    for (int probe = 0; probe < 50; ++probe) {
      const std::int64_t lo = rng.range(-220, 220);
      const std::int64_t hi = rng.range(-220, 220);
      const std::size_t expect =
          hi > lo ? static_cast<std::size_t>(std::distance(
                        oracle.lower_bound(lo), oracle.lower_bound(hi)))
                  : 0u;
      ASSERT_EQ(t.count_range(lo, hi), expect)
          << "[" << lo << ", " << hi << ")";
    }
  }
  if constexpr (requires { t.ceiling_node(0); }) {
    for (int probe = 0; probe < 50; ++probe) {
      const std::int64_t q = rng.range(-220, 220);
      const auto it = oracle.lower_bound(q);
      const auto* n = t.ceiling_node(q);
      if (it == oracle.end()) {
        ASSERT_EQ(n, nullptr);
      } else {
        ASSERT_NE(n, nullptr);
        ASSERT_EQ(n->key, it->first);
      }
    }
  }
  if constexpr (requires { t.ceiling_key(0); }) {
    for (int probe = 0; probe < 50; ++probe) {
      const std::int64_t q = rng.range(-220, 220);
      const auto it = oracle.lower_bound(q);
      const auto* k = t.ceiling_key(q);
      if (it == oracle.end()) {
        ASSERT_EQ(k, nullptr);
      } else {
        ASSERT_NE(k, nullptr);
        ASSERT_EQ(*k, it->first);
      }
    }
  }
  if constexpr (requires { t.floor_key(0); } || requires { t.floor_node(0); }) {
    // Random probes plus one below the minimum and one above the maximum.
    std::vector<std::int64_t> probes = {oracle.begin()->first - 1,
                                        oracle.rbegin()->first + 1};
    for (int probe = 0; probe < 50; ++probe) {
      probes.push_back(rng.range(-220, 220));
    }
    for (const std::int64_t q : probes) {
      const auto it = oracle.upper_bound(q);
      const std::int64_t* k = floor_key_of(t, q);
      if (it == oracle.begin()) {
        ASSERT_EQ(k, nullptr) << q;
      } else {
        ASSERT_NE(k, nullptr) << q;
        ASSERT_EQ(*k, std::prev(it)->first) << q;
      }
    }
  }
  if constexpr (requires { t.path_to(0); }) {
    for (const auto& [k, v] : oracle) {
      const auto path = t.path_to(k);
      ASSERT_FALSE(path.empty()) << k;
      ASSERT_EQ(path.back()->key, k);
    }
  }
}

TYPED_TEST(OrderedApi, FuzzAgainstOracleWithInvariants) {
  alloc::Arena a;
  TypeParam t;
  std::map<std::int64_t, std::int64_t> oracle;
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t k = rng.range(-100, 100);
    if (rng.chance(3, 5)) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
      oracle.emplace(k, k);
    } else {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      oracle.erase(k);
    }
    ASSERT_EQ(t.size(), oracle.size());
    ASSERT_EQ(t.contains(k), oracle.contains(k));
    if (i % 200 == 0) { ASSERT_TRUE(t.check_invariants()); }
  }
  ASSERT_TRUE(t.check_invariants());
  const auto items = t.items();
  ASSERT_EQ(items.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(items[i].first, k);
    ++i;
  }
}

TYPED_TEST(OrderedApi, VersionChainStaysIntact) {
  // Persistence across a chain of versions: every fifth version is
  // retained with its expected contents and re-verified at the end.
  alloc::Arena a;
  TypeParam t;
  std::vector<TypeParam> versions;
  std::vector<std::size_t> sizes;
  for (std::int64_t k = 0; k < 200; ++k) {
    core::Builder<alloc::Arena> b(a);
    t = t.insert(b, k * 3, k);
    b.seal();
    (void)b.commit();  // keep superseded nodes alive: old versions use them
    if (k % 5 == 0) {
      versions.push_back(t);
      sizes.push_back(t.size());
    }
  }
  for (std::size_t i = 0; i < versions.size(); ++i) {
    ASSERT_EQ(versions[i].size(), sizes[i]);
    ASSERT_TRUE(versions[i].check_invariants());
    // Spot-check contents: version i contains exactly keys 0..5i (*3).
    ASSERT_TRUE(versions[i].contains(0));
    ASSERT_EQ(versions[i].contains(static_cast<std::int64_t>(i) * 5 * 3 + 3),
              false);
  }
}

TYPED_TEST(OrderedApi, SharingAfterOneInsertIsPathLocal) {
  alloc::Arena a;
  TypeParam t = insert_all(a, TypeParam{}, shuffled_iota(2048, 7));
  core::Builder<alloc::Arena> b(a);
  TypeParam t2 = t.insert(b, 99999, 0);
  b.seal();
  (void)b.commit();
  const std::size_t shared = TypeParam::shared_nodes(t, t2);
  // The unshared remainder is the copied path (+ rebalance fan-out, +
  // leaf width for the B+tree) — generously bounded by 64 entries plus
  // 8 per level.
  EXPECT_GE(shared, t.size() - 64 - 8 * t.height());
}

TYPED_TEST(OrderedApi, WorksThroughTheUniversalConstruction) {
  // Every ordered structure must plug into the Atom unchanged: disjoint
  // concurrent inserts all land, invariants hold, teardown frees all.
  alloc::MallocAlloc a;
  constexpr int kThreads = 3;
  constexpr std::int64_t kPerThread = 400;
  {
    reclaim::EpochReclaimer smr;
    core::Atom<TypeParam, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, *a.retire_backend());
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename core::Atom<TypeParam, reclaim::EpochReclaimer,
                            alloc::MallocAlloc>::Ctx ctx(smr, a);
        for (std::int64_t i = 0; i < kPerThread; ++i) {
          const std::int64_t key = w * kPerThread + i;
          const auto r = atom.update(ctx, [key](TypeParam t, auto& b) {
            return t.insert(b, key, key);
          });
          ASSERT_EQ(r, core::UpdateResult::kInstalled);
        }
      });
    }
    for (auto& w : workers) w.join();
    typename core::Atom<TypeParam, reclaim::EpochReclaimer,
                        alloc::MallocAlloc>::Ctx ctx(smr, a);
    EXPECT_EQ(atom.read(ctx, [](TypeParam t) { return t.size(); }),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_TRUE(
        atom.read(ctx, [](TypeParam t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(OrderedApi, DestroyReclaimsEveryNode) {
  alloc::MallocAlloc a;
  TypeParam t;
  for (std::int64_t k = 0; k < 128; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_GT(a.stats().live_blocks(), 0u);
  TypeParam::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
