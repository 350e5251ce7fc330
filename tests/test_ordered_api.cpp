// The ordered-map contract, checked once for every map: Treap, AVL,
// weight-balanced, red-black, external BST and the B+tree at fanouts 8
// and 64 run the same typed cases. Surface differences (node-pointer vs
// key-pointer accessors, optional floor/ceiling and count_range, no
// sorted read batch on the external BST) are bridged with
// `if constexpr (requires ...)`, so each map is tested exactly as far as
// its API goes. What belongs to one map alone (balance and height bounds,
// the treap's canonical shape, B+tree occupancy and fanouts, the external
// BST's leaves and splicing) stays in that map's own suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/universal.hpp"
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

using Items = std::vector<std::pair<std::int64_t, std::int64_t>>;

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
concept HasFloorCeiling = requires(const DS& t) { t.floor_key(0); } ||
                          requires(const DS& t) { t.floor_node(0); };

template <HasFloorCeiling DS>
const std::int64_t* floor_key_of(const DS& t, std::int64_t q) {
  if constexpr (requires { t.floor_key(q); }) {
    return t.floor_key(q);
  } else {
    const auto* n = t.floor_node(q);
    return n == nullptr ? nullptr : &n->key;
  }
}

template <HasFloorCeiling DS>
const std::int64_t* ceiling_key_of(const DS& t, std::int64_t q) {
  if constexpr (requires { t.ceiling_key(q); }) {
    return t.ceiling_key(q);
  } else {
    const auto* n = t.ceiling_node(q);
    return n == nullptr ? nullptr : &n->key;
  }
}

/// Heap blocks a version occupies, where its layout fixes the count: one
/// node per entry, or the external BST's leaves plus routers (2n - 1).
/// The B+tree packs several entries per leaf, so it has no such count.
template <class DS>
std::optional<std::size_t> node_count(const DS& t) {
  if constexpr (requires { t.min_leaf(); }) {
    return t.empty() ? 0 : 2 * t.size() - 1;
  } else if constexpr (requires { t.min_node(); }) {
    return t.size();
  } else {
    return std::nullopt;
  }
}

/// The units shared_nodes counts: nodes, except on the B+tree, which
/// counts the entries under its shared nodes.
template <class DS>
std::size_t sharing_units(const DS& t) {
  return node_count(t).value_or(t.size());
}

/// Entries one B+tree leaf holds (0 for the node-per-entry maps).
template <class DS>
constexpr std::size_t leaf_entries() {
  if constexpr (requires { DS::kLeafCap; }) {
    return DS::kLeafCap;
  } else {
    return 0;
  }
}

template <class DS, class Alloc>
DS insert_all(Alloc& al, DS t, const std::vector<std::int64_t>& keys) {
  for (const auto k : keys) {
    t = test::apply(al, [&](auto& b) { return t.insert(b, k, k * 10); });
  }
  return t;
}

/// keys[i] = i * stride + offset for i < n, in a seeded random order.
std::vector<std::int64_t> shuffled_keys(std::int64_t n, std::int64_t stride,
                                        std::int64_t offset,
                                        std::uint64_t seed) {
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < n; ++i) keys.push_back(i * stride + offset);
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

// ----- edges and no-ops -----

TYPED_TEST(OrderedApi, EmptyTreeEdgeCases) {
  TypeParam t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.find(42), nullptr);
  EXPECT_FALSE(t.contains(42));
  EXPECT_EQ(min_key_of(t), nullptr);
  EXPECT_EQ(max_key_of(t), nullptr);
  EXPECT_EQ(kth_key_of(t, 0), nullptr);
  EXPECT_EQ(t.rank(0), 0u);
  EXPECT_EQ(t.rank(5), 0u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_TRUE(t.items().empty());
  if constexpr (requires { t.black_height(); }) {
    EXPECT_EQ(t.black_height(), 0u);
  }
  if constexpr (HasFloorCeiling<TypeParam>) {
    EXPECT_EQ(floor_key_of(t, 42), nullptr);
    EXPECT_EQ(ceiling_key_of(t, 42), nullptr);
  }
}

TYPED_TEST(OrderedApi, SingleElementLifecycle) {
  alloc::Arena a;
  TypeParam t;
  t = test::apply(a, [&](auto& b) { return t.insert(b, 7, 70); });
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_TRUE(t.contains(7));
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(*t.find(7), 70);
  EXPECT_EQ(*min_key_of(t), 7);
  EXPECT_EQ(*max_key_of(t), 7);
  EXPECT_EQ(*kth_key_of(t, 0), 7);
  EXPECT_EQ(t.rank(7), 0u);
  EXPECT_EQ(t.rank(8), 1u);
  EXPECT_TRUE(t.check_invariants());
  t = test::apply(a, [&](auto& b) { return t.erase(b, 7); });
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_TRUE(t.check_invariants());
}

TYPED_TEST(OrderedApi, NoOpUpdatesKeepRootAndAllocateNothing) {
  // A duplicate insert and an absent erase return the very same version
  // without allocating — on a three-key root and through the interior
  // levels of a deep tree alike.
  alloc::Arena a;
  {
    TypeParam t = insert_all(a, TypeParam{}, {1, 2, 3});
    core::Builder<alloc::Arena> b(a);
    EXPECT_EQ(t.insert(b, 2, 999).root_ptr(), t.root_ptr());
    EXPECT_EQ(t.erase(b, 9).root_ptr(), t.root_ptr());
    EXPECT_EQ(b.fresh_count(), 0u);
    b.rollback();
    EXPECT_EQ(*t.find(2), 20);  // set-style insert kept the old value
  }
  TypeParam t = insert_all(a, TypeParam{}, shuffled_keys(512, 2, 0, 3));
  core::Builder<alloc::Arena> b(a);
  for (std::int64_t k = 0; k < 1024; k += 34) {
    ASSERT_EQ(t.insert(b, k, -1).root_ptr(), t.root_ptr()) << k;
  }
  for (const std::int64_t k : {std::int64_t{-1}, std::int64_t{1023},
                               std::int64_t{1}, std::int64_t{511}}) {
    ASSERT_EQ(t.erase(b, k).root_ptr(), t.root_ptr()) << k;
  }
  EXPECT_EQ(b.fresh_count(), 0u);
  b.rollback();
}

TYPED_TEST(OrderedApi, InsertOrAssign) {
  alloc::Arena a;
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 100; ++k) keys.push_back(k);
  TypeParam t = insert_all(a, TypeParam{}, keys);
  // On a present key: a new version with the new value, no growth, and
  // the old version untouched.
  TypeParam t2 =
      test::apply(a, [&](auto& b) { return t.insert_or_assign(b, 50, -1); });
  EXPECT_EQ(*t2.find(50), -1);
  EXPECT_EQ(*t.find(50), 500);
  EXPECT_EQ(t2.size(), 100u);
  EXPECT_NE(t2.root_ptr(), t.root_ptr());
  EXPECT_TRUE(t2.check_invariants());
  EXPECT_TRUE(t.check_invariants());
  // On an absent key: an insert.
  TypeParam t3 = test::apply(
      a, [&](auto& b) { return t2.insert_or_assign(b, 1000, 7); });
  EXPECT_EQ(*t3.find(1000), 7);
  EXPECT_EQ(t3.size(), 101u);
  EXPECT_FALSE(t2.contains(1000));
  EXPECT_TRUE(t3.check_invariants());
}

// ----- ordered reads -----

TYPED_TEST(OrderedApi, ItemsMinMaxAndRankKth) {
  alloc::Arena a;
  // 512 keys -700, -697, ..., 833, inserted in random order.
  TypeParam t = insert_all(a, TypeParam{}, shuffled_keys(512, 3, -700, 17));
  const auto items = t.items();
  ASSERT_EQ(items.size(), 512u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i) * 3 - 700;
    ASSERT_EQ(items[i].first, k);
    ASSERT_EQ(items[i].second, k * 10);
    ASSERT_EQ(*t.find(k), k * 10);
    ASSERT_NE(kth_key_of(t, i), nullptr);
    ASSERT_EQ(*kth_key_of(t, i), k);
    ASSERT_EQ(t.rank(k), i);
    ASSERT_EQ(t.rank(k + 1), i + 1);  // between stored keys
  }
  EXPECT_EQ(*min_key_of(t), -700);
  EXPECT_EQ(*max_key_of(t), 833);
  EXPECT_EQ(kth_key_of(t, items.size()), nullptr);
  EXPECT_EQ(t.rank(-701), 0u);
  EXPECT_EQ(t.rank(10000), items.size());
}

TYPED_TEST(OrderedApi, FloorCeilingAndPathMatchOracle) {
  alloc::Arena a;
  util::Xoshiro256 rng(29);
  std::map<std::int64_t, std::int64_t> oracle;
  TypeParam t;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t k = rng.range(-200, 200);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
    oracle.emplace(k, k);
  }
  if constexpr (HasFloorCeiling<TypeParam>) {
    // Every probe across the key range: exact hits, gaps, and the
    // misses below the minimum and above the maximum.
    for (std::int64_t q = -210; q <= 210; ++q) {
      const auto ceil = oracle.lower_bound(q);
      const std::int64_t* c = ceiling_key_of(t, q);
      if (ceil == oracle.end()) {
        ASSERT_EQ(c, nullptr) << q;
      } else {
        ASSERT_NE(c, nullptr) << q;
        ASSERT_EQ(*c, ceil->first) << q;
      }
      const auto above = oracle.upper_bound(q);
      const std::int64_t* f = floor_key_of(t, q);
      if (above == oracle.begin()) {
        ASSERT_EQ(f, nullptr) << q;
      } else {
        ASSERT_NE(f, nullptr) << q;
        ASSERT_EQ(*f, std::prev(above)->first) << q;
      }
    }
  }
  if constexpr (requires { t.path_to(0); }) {
    for (const auto& [k, v] : oracle) {
      const auto path = t.path_to(k);
      ASSERT_FALSE(path.empty()) << k;
      ASSERT_EQ(path.front(), t.root_node()) << k;
      ASSERT_EQ(path.back()->key, k);
    }
  }
}

TYPED_TEST(OrderedApi, RangeVisitAndScanMatchOracle) {
  // for_each_range, count_range and the bounded scan against a std::set
  // reference, over random windows, their inversions (lo > hi visits
  // nothing), and the boundary windows [k, k) and [k, k + 1).
  alloc::Arena a;
  util::Xoshiro256 rng(6101);
  TypeParam t;
  std::set<std::int64_t> oracle;
  for (int i = 0; i < 900; ++i) {
    const std::int64_t k = rng.range(-700, 700);
    oracle.insert(k);
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k * 3); });
  }
  ASSERT_EQ(t.size(), oracle.size());

  const auto check_window = [&](std::int64_t lo, std::int64_t hi) {
    Items want;
    for (auto it = oracle.lower_bound(lo); it != oracle.end() && *it < hi;
         ++it) {
      want.emplace_back(*it, *it * 3);
    }
    Items got;
    t.for_each_range(lo, hi, [&](const std::int64_t& k,
                                 const std::int64_t& v) {
      got.emplace_back(k, v);
    });
    ASSERT_EQ(got, want) << "window [" << lo << ", " << hi << ")";
    if constexpr (requires { t.count_range(lo, hi); }) {
      ASSERT_EQ(t.count_range(lo, hi), want.size())
          << "window [" << lo << ", " << hi << ")";
    }
    // A scan with a limit emits exactly the first `limit` hits.
    const std::size_t limit = rng.below(want.size() + 3);
    Items scanned;
    const std::size_t emitted = t.scan(lo, hi, limit, scanned);
    const std::size_t expect = std::min(limit, want.size());
    ASSERT_EQ(emitted, expect);
    ASSERT_EQ(scanned.size(), expect);
    for (std::size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(scanned[i], want[i]) << "scan hit " << i;
    }
  };

  for (int w = 0; w < 200; ++w) {
    const std::int64_t lo = rng.range(-800, 800);
    const std::int64_t hi = rng.range(-800, 800);
    check_window(lo, hi);
    check_window(hi, lo);
  }
  for (const std::int64_t k : {*oracle.begin(), *oracle.rbegin(),
                               *std::next(oracle.begin(), 100)}) {
    check_window(k, k);
    check_window(k, k + 1);
  }
  check_window(*oracle.begin(), *oracle.rbegin() + 1);  // everything
}

// ----- updates against an oracle -----

TYPED_TEST(OrderedApi, RandomOpsMatchStdMap) {
  // Random insert / erase / insert_or_assign histories against std::map,
  // with the invariant audit after every op, over a (seed, ops, key
  // range) grid: dense churn, sparse growth, a tiny key space, and the
  // longest history at the widest dense range.
  struct Point {
    std::uint64_t seed;
    int ops;
    std::int64_t range;
  };
  for (const Point p : {Point{1, 800, 30}, Point{2, 800, 100000},
                        Point{3, 2000, 500}, Point{4, 400, 5},
                        Point{5, 1500, 64}, Point{6, 6000, 150}}) {
    SCOPED_TRACE(::testing::Message() << "seed " << p.seed << ", " << p.ops
                                      << " ops, keys +-" << p.range);
    alloc::Arena a;
    TypeParam t;
    std::map<std::int64_t, std::int64_t> oracle;
    util::Xoshiro256 rng(p.seed);
    for (int i = 0; i < p.ops; ++i) {
      const std::int64_t k = rng.range(-p.range, p.range);
      switch (rng.below(3)) {
        case 0:
          t = test::apply(a, [&](auto& b) { return t.insert(b, k, k * 2); });
          oracle.emplace(k, k * 2);
          break;
        case 1:
          t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
          oracle.erase(k);
          break;
        default:
          t = test::apply(
              a, [&](auto& b) { return t.insert_or_assign(b, k, k * 3); });
          oracle.insert_or_assign(k, k * 3);
          break;
      }
      ASSERT_EQ(t.size(), oracle.size()) << "op " << i;
      const auto it = oracle.find(k);
      ASSERT_EQ(t.contains(k), it != oracle.end()) << "op " << i;
      const std::int64_t* v = t.find(k);
      if (it == oracle.end()) {
        ASSERT_EQ(v, nullptr) << "op " << i;
      } else {
        ASSERT_NE(v, nullptr) << "op " << i;
        ASSERT_EQ(*v, it->second) << "op " << i;
      }
      ASSERT_TRUE(t.check_invariants()) << "op " << i;
    }
    ASSERT_EQ(t.items(), Items(oracle.begin(), oracle.end()));
  }
}

TYPED_TEST(OrderedApi, EraseInEveryOrderKeepsInvariants) {
  {
    // A leaf, a one-child node, a two-children node, then the root.
    alloc::Arena a;
    TypeParam t = insert_all(a, TypeParam{}, {8, 4, 12, 2, 6, 10, 14, 1, 3});
    for (const std::int64_t k : {3, 2, 4, 8}) {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
      ASSERT_FALSE(t.contains(k));
      ASSERT_TRUE(t.check_invariants()) << "after erasing " << k;
    }
    EXPECT_EQ(t.items(), (Items{{1, 10}, {6, 60}, {10, 100}, {12, 120},
                                {14, 140}}));
  }
  // 512 keys emptied smallest first, largest first, and in random order.
  std::vector<std::int64_t> ascending;
  for (std::int64_t k = 0; k < 512; ++k) ascending.push_back(k);
  const std::vector<std::int64_t> descending(ascending.rbegin(),
                                             ascending.rend());
  for (const auto& order :
       {ascending, descending, shuffled_keys(512, 1, 0, 5)}) {
    alloc::Arena arena;
    TypeParam t = insert_all(arena, TypeParam{}, ascending);
    std::size_t left = order.size();
    for (const auto k : order) {
      t = test::apply(arena, [&](auto& b) { return t.erase(b, k); });
      ASSERT_EQ(t.size(), --left);
      ASSERT_FALSE(t.contains(k));
      ASSERT_TRUE(t.check_invariants()) << "after erasing " << k;
    }
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.height(), 0u);
  }
}

// ----- persistence, sharing, memory -----

TYPED_TEST(OrderedApi, EveryVersionStaysFrozen) {
  // Every 50th version of a random insert / erase / assign history keeps
  // exactly the contents it had when it was published, however many
  // updates follow it.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    alloc::Arena a;  // frees nothing: superseded nodes stay readable
    TypeParam t;
    std::map<std::int64_t, std::int64_t> oracle;
    std::vector<std::pair<TypeParam, Items>> checkpoints;
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 600; ++i) {
      const std::int64_t k = rng.range(-64, 64);
      core::Builder<alloc::Arena> b(a);
      switch (rng.below(3)) {
        case 0:
          t = t.insert(b, k, k);
          oracle.emplace(k, k);
          break;
        case 1:
          t = t.erase(b, k);
          oracle.erase(k);
          break;
        default:
          t = t.insert_or_assign(b, k, -k);
          oracle.insert_or_assign(k, -k);
          break;
      }
      b.seal();
      (void)b.commit();  // keep superseded nodes: old versions use them
      if (i % 50 == 0) {
        checkpoints.emplace_back(t, Items(oracle.begin(), oracle.end()));
      }
    }
    ASSERT_EQ(checkpoints.size(), 12u);
    for (const auto& [version, frozen] : checkpoints) {
      ASSERT_EQ(version.size(), frozen.size()) << "seed " << seed;
      ASSERT_TRUE(version.check_invariants()) << "seed " << seed;
      ASSERT_EQ(version.items(), frozen) << "seed " << seed;
    }
  }
}

TYPED_TEST(OrderedApi, SharingAfterOneInsertIsPathLocal) {
  // One insert into a 4096-entry version copies only its search path
  // (plus rebalancing copies): everything else is shared by pointer with
  // the old version, which stays intact. At this size the copied nodes
  // number at most 30 (about 2.5 log2 n); a B+tree also leaves the
  // entries of its copied leaf unshared.
  alloc::Arena a;
  TypeParam t = insert_all(a, TypeParam{}, shuffled_keys(4096, 2, 0, 7));
  for (const std::int64_t q : {std::int64_t{99999}, std::int64_t{-1},
                               std::int64_t{4095}}) {
    core::Builder<alloc::Arena> b(a);
    TypeParam t2 = t.insert(b, q, 0);
    b.seal();
    (void)b.commit();
    ASSERT_EQ(t2.size(), t.size() + 1);
    EXPECT_FALSE(t.contains(q));
    EXPECT_TRUE(t2.contains(q));
    EXPECT_TRUE(t.check_invariants());
    EXPECT_TRUE(t2.check_invariants());
    const std::size_t unshared =
        sharing_units(t) - TypeParam::shared_nodes(t, t2);
    EXPECT_GE(unshared, 1u) << q;
    EXPECT_LE(unshared, 30 + leaf_entries<TypeParam>()) << q;
  }
}

TYPED_TEST(OrderedApi, DestroyFreesEveryNode) {
  alloc::MallocAlloc a;
  TypeParam t;
  for (std::int64_t k = 0; k < 300; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  const auto expect_live_nodes = [&] {
    if (const auto nodes = node_count(t)) {
      EXPECT_EQ(a.stats().live_blocks(), *nodes);
    } else {
      EXPECT_GT(a.stats().live_blocks(), 0u);
    }
  };
  expect_live_nodes();
  // Insert/erase cycles free every node they supersede: only the 300
  // survivors' nodes stay live.
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::int64_t k = 300; k < 332; ++k) {
      t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
    }
    for (std::int64_t k = 300; k < 332; ++k) {
      t = test::apply(a, [&](auto& b) { return t.erase(b, k); });
    }
    ASSERT_TRUE(t.check_invariants());
    ASSERT_EQ(t.size(), 300u);
    expect_live_nodes();
  }
  TypeParam::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(OrderedApi, WorksThroughTheUniversalConstruction) {
  // Every map plugs into the Atom unchanged: disjoint concurrent inserts
  // all land, invariants hold, teardown frees all.
  using AtomT =
      core::Atom<TypeParam, reclaim::EpochReclaimer, alloc::MallocAlloc>;
  alloc::MallocAlloc a;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 1000;
  {
    reclaim::EpochReclaimer smr;
    AtomT atom(smr, *a.retire_backend());
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename AtomT::Ctx ctx(smr, a);
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
    typename AtomT::Ctx ctx(smr, a);
    EXPECT_EQ(atom.read(ctx, [](TypeParam t) { return t.size(); }),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_TRUE(
        atom.read(ctx, [](TypeParam t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- bulk build and sorted batches -----

TYPED_TEST(OrderedApi, FromSortedRoundTrip) {
  // A bulk build of a strictly increasing run iterates back exactly and
  // keeps the map's invariants, at every size in [0, 64] (the awkward
  // just-past-a-power-of-two packings included) and at 334 entries.
  alloc::Arena a;
  const auto build = [&](const Items& run) {
    return test::apply(a, [&](auto& b) {
      return TypeParam::from_sorted(b, run.begin(), run.end());
    });
  };
  Items items;
  for (std::int64_t k = 0; k < 1000; k += 3) items.emplace_back(k, k * 10);
  const TypeParam t = build(items);
  EXPECT_EQ(t.size(), items.size());
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.items(), items);

  EXPECT_TRUE(build({}).empty());
  const TypeParam t1 = build({{7, 70}});
  EXPECT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1.height(), 1u);
  EXPECT_EQ(*t1.find(7), 70);
  EXPECT_TRUE(t1.check_invariants());

  for (std::int64_t n = 0; n <= 64; ++n) {
    Items run;
    for (std::int64_t k = 0; k < n; ++k) run.emplace_back(k * 2, k);
    const TypeParam tn = build(run);
    ASSERT_EQ(tn.size(), static_cast<std::size_t>(n));
    ASSERT_TRUE(tn.check_invariants()) << "n = " << n;
    ASSERT_EQ(tn.items(), run) << "n = " << n;
  }
}

TYPED_TEST(OrderedApi, SortedBatchNoopSharesRoot) {
  // Empty and all-noop batches return the very same version without
  // allocating a node — on a three-key root and through the interior
  // levels of a deep tree alike.
  using DS = TypeParam;
  alloc::Arena a;
  DS t = insert_all(a, DS{}, {10, 20, 30});
  {
    core::Builder<alloc::Arena> b(a);
    std::vector<typename DS::BatchOutcome> out;
    DS t2 = t.apply_sorted_batch(b, {}, out);
    EXPECT_EQ(t2.root_ptr(), t.root_ptr());
    EXPECT_EQ(b.fresh_count(), 0u);
    b.rollback();
  }
  {
    // Inserts of present keys and erases of absent ones.
    core::Builder<alloc::Arena> b(a);
    std::vector<typename DS::BatchOp> ops{
        test::batch_ins<DS>(10, 99), test::batch_era<DS>(15),
        test::batch_ins<DS>(30, 99), test::batch_era<DS>(40)};
    std::vector<typename DS::BatchOutcome> out(ops.size());
    DS t2 = t.apply_sorted_batch(b, ops, out);
    EXPECT_EQ(t2.root_ptr(), t.root_ptr());
    EXPECT_EQ(b.fresh_count(), 0u);
    for (const auto o : out) EXPECT_EQ(o, DS::BatchOutcome::kNoop);
    EXPECT_EQ(*t2.find(10), 100);  // set-style insert kept the old value
    b.rollback();
  }
  Items items;
  for (std::int64_t k = 0; k < 512; ++k) items.emplace_back(k * 2, k);
  DS big = test::apply(
      a, [&](auto& b) { return DS::from_sorted(b, items.begin(), items.end()); });
  core::Builder<alloc::Arena> b(a);
  std::vector<typename DS::BatchOp> ops;
  for (std::int64_t k = 1; k < 1024; k += 38) {
    ops.push_back(test::batch_era<DS>(k));  // odd keys: all absent
  }
  for (std::int64_t k = 0; k < 1024; k += 34) {
    ops.push_back(test::batch_ins<DS>(k, -1));  // even keys: all present
  }
  std::sort(ops.begin(), ops.end(),
            [](const auto& x, const auto& y) { return x.key < y.key; });
  std::vector<typename DS::BatchOutcome> out(ops.size());
  DS big2 = big.apply_sorted_batch(b, ops, out);
  EXPECT_EQ(big2.root_ptr(), big.root_ptr());
  EXPECT_EQ(b.fresh_count(), 0u);
  for (const auto o : out) EXPECT_EQ(o, DS::BatchOutcome::kNoop);
  b.rollback();
}

TYPED_TEST(OrderedApi, SortedBatchOutcomes) {
  // Every op kind on present and absent keys, on a populated version
  // and on the empty one.
  using DS = TypeParam;
  using O = typename DS::BatchOutcome;
  alloc::Arena a;
  DS t = insert_all(a, DS{}, {10, 20, 30});
  std::vector<typename DS::BatchOp> ops{
      test::batch_ins<DS>(5, 55), test::batch_era<DS>(10),
      test::batch_asg<DS>(20, 2000), test::batch_asg<DS>(25, 2500),
      test::batch_ins<DS>(30, 999)};
  std::vector<O> out(ops.size());
  DS t2 = test::apply(
      a, [&](auto& b) { return t.apply_sorted_batch(b, ops, out); });
  EXPECT_EQ(out, (std::vector<O>{O::kInserted, O::kErased, O::kAssigned,
                                 O::kInserted, O::kNoop}));
  EXPECT_EQ(t2.items(),
            (Items{{5, 55}, {20, 2000}, {25, 2500}, {30, 300}}));
  EXPECT_TRUE(t2.check_invariants());

  std::vector<typename DS::BatchOp> fresh{
      test::batch_ins<DS>(1, 10), test::batch_era<DS>(2),
      test::batch_ins<DS>(3, 30), test::batch_asg<DS>(4, 40),
      test::batch_era<DS>(5), test::batch_ins<DS>(6, 60)};
  std::vector<O> fresh_out(fresh.size());
  DS built = test::apply(
      a, [&](auto& b) { return DS{}.apply_sorted_batch(b, fresh, fresh_out); });
  EXPECT_EQ(fresh_out, (std::vector<O>{O::kInserted, O::kNoop, O::kInserted,
                                       O::kInserted, O::kNoop, O::kInserted}));
  EXPECT_EQ(built.items(), (Items{{1, 10}, {3, 30}, {4, 40}, {6, 60}}));
  EXPECT_TRUE(built.check_invariants());
}

TYPED_TEST(OrderedApi, SortedBatchMatchesSequentialApplication) {
  test::batch_oracle_random<TypeParam>(1234, 40,
                                       test::BatchKeyPattern::kUniform);
  test::batch_oracle_random<TypeParam>(1235, 20,
                                       test::BatchKeyPattern::kClustered);
}

TYPED_TEST(OrderedApi, SortedReadBatchMatchesPerKeyFind) {
  if constexpr (core::SupportsSortedReadBatch<TypeParam>) {
    test::read_batch_oracle_random<TypeParam>(1111, 30,
                                              test::BatchKeyPattern::kUniform);
    test::read_batch_oracle_random<TypeParam>(
        1112, 20, test::BatchKeyPattern::kClustered);
  } else {
    GTEST_SKIP() << "no get_sorted_batch: multi_get probes key by key";
  }
}

}  // namespace
}  // namespace pathcopy
