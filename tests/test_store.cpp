// Store layer: the ShardedMap facade over its tablet router, and the
// cross-shard batch splitter — driven through the UniversalConstruction
// concept over both UC backends (plain Atom and CombiningAtom) × all six
// persistent structures.
//
// The strongest checks are the oracle equivalences: a sharded map must be
// observationally identical to a std::set / std::map (point ops, ordered
// reads, bounded scans) and to a single unsharded UC fed the same request
// stream (batch split/reassembly) — same per-op results, same ordered
// contents. Ordered reads run on a monotone table and on a scrambled one
// whose shard index is not monotone in the key.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "core/universal.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "store/rebalancer.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using K = std::int64_t;
using Epoch = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using TabR = store::TabletRouter<K>;

template <class DS>
using Plain = core::Atom<DS, Epoch, MA>;
template <class DS>
using Comb = core::CombiningAtom<DS, Epoch, MA>;
using T = persist::Treap<K, K>;
using Avl = persist::AvlTree<K, K>;
using Btree = persist::BTree<K, K, 8>;
using Rbt = persist::RbTree<K, K>;
using Wbt = persist::WbTree<K, K>;
using Ebst = persist::ExternalBst<K, K>;

// ----- typed store tests: backend × structure -----

// Key window the tablet tables split; tests keep keys inside it only
// where shard coverage matters (the first and last tablets are unbounded).
constexpr K kLo = -64;
constexpr K kHi = 1088;

/// Equal-width tablets over the key window, tablet i on shard i.
TabR uniform_table(std::size_t shards) {
  return TabR::uniform(kLo, kHi, shards);
}

/// Equal-width tablets over [lo, hi), tablet i on shard owners[i].
TabR table_over(K lo, K hi, std::vector<std::size_t> owners) {
  const std::size_t tablets = owners.size();
  return TabR(TabR::uniform(lo, hi, tablets).bounds(), std::move(owners));
}

/// 4 shards, 8 equal-width tablets, owners out of key order: shard index
/// is not monotone in the key, and every shard serves two tablets.
TabR scrambled_table() {
  return table_over(kLo, kHi, {2, 0, 3, 1, 0, 2, 1, 3});
}

/// Every shard installed at least one update: the test's keys really
/// spread over the table instead of all landing on one shard.
template <class StatsOf>
void expect_installs_on_every_shard(std::size_t shards, StatsOf stats_of) {
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(stats_of(s).updates, 0u) << "shard " << s;
  }
}

template <class UcT>
struct Combo {
  using Uc = UcT;
  using Map = store::ShardedMap<Uc, TabR>;
};

template <class C>
class StoreTyped : public ::testing::Test {};

using Combos =
    ::testing::Types<Combo<Plain<T>>, Combo<Comb<T>>, Combo<Plain<Avl>>,
                     Combo<Comb<Avl>>, Combo<Plain<Btree>>, Combo<Comb<Btree>>,
                     Combo<Plain<Rbt>>, Combo<Comb<Rbt>>, Combo<Plain<Wbt>>,
                     Combo<Comb<Wbt>>, Combo<Plain<Ebst>>, Combo<Comb<Ebst>>>;
TYPED_TEST_SUITE(StoreTyped, Combos);

TYPED_TEST(StoreTyped, ModelsTheUcConcept) {
  static_assert(core::UniversalConstruction<typename TypeParam::Uc>);
}

TYPED_TEST(StoreTyped, PointOpsMatchSetOracle) {
  MA a;
  for (const TabR& table : {uniform_table(4), scrambled_table()}) {
    typename TypeParam::Map map(4, a, table);
    typename TypeParam::Map::Session session(map, a);
    std::set<K> oracle;
    util::Xoshiro256 rng(42);
    for (int i = 0; i < 3000; ++i) {
      const K k = rng.range(0, 500);
      if (rng.chance(1, 2)) {
        ASSERT_EQ(session.insert(k, k * 3), oracle.insert(k).second);
      } else {
        ASSERT_EQ(session.erase(k), oracle.erase(k) > 0);
      }
    }
    ASSERT_EQ(session.size(), oracle.size());
    for (const K k : {K{0}, K{250}}) {
      ASSERT_EQ(session.contains(k), oracle.contains(k));
      const auto v = session.find(k);
      ASSERT_EQ(v.has_value(), oracle.contains(k));
      if (v) {
        ASSERT_EQ(*v, k * 3);
      }
    }
    // Ordered iteration composed across shards matches the sorted oracle.
    std::vector<K> expect(oracle.begin(), oracle.end());
    std::vector<K> got;
    session.for_each_ordered([&](const K& k, const K& v) {
      got.push_back(k);
      ASSERT_EQ(v, k * 3);
    });
    ASSERT_EQ(got, expect);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, BatchSplitMatchesSingleAtomOracle) {
  using Uc = typename TypeParam::Uc;
  using Req = typename Uc::BatchRequest;
  using Op = typename Uc::OpKind;
  MA a1, a2;
  // Tables over the drawn keys [0, 81), so every shard takes a share.
  for (const TabR& table :
       {TabR::uniform(0, 81, 5),
        table_over(0, 81, {3, 0, 4, 1, 2, 0, 3, 2, 4, 1})}) {
    typename TypeParam::Map map(5, a1, table);
    typename TypeParam::Map::Session session(map, a1);
    Epoch smr;
    Uc oracle(smr, a2);
    typename Uc::Ctx octx(smr, a2);

    util::Xoshiro256 rng(7);
    for (int iter = 0; iter < 25; ++iter) {
      const int n = 1 + static_cast<int>(rng.range(0, 39));
      std::vector<Req> reqs;
      for (int i = 0; i < n; ++i) {
        const K k = rng.range(0, 80);  // dense: same-key chains
        if (rng.chance(1, 2)) {
          reqs.push_back(Req{Op::kInsert, k, k + 1000 * iter + i});
        } else {
          reqs.push_back(Req{Op::kErase, k, std::nullopt});
        }
      }
      bool got[48], want[48];
      session.execute_batch(reqs, std::span<bool>(got, reqs.size()));
      oracle.execute_batch(octx, reqs, std::span<bool>(want, reqs.size()));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "iter " << iter << " op " << i;
      }
    }
    const auto got_items = session.items();
    const auto want_items =
        oracle.read(octx, [](auto snapshot) { return snapshot.items(); });
    ASSERT_EQ(got_items, want_items);
    expect_installs_on_every_shard(
        5, [&](std::size_t s) { return session.shard_stats(s); });
  }
  EXPECT_EQ(a1.stats().live_blocks(), 0u);
  EXPECT_EQ(a2.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, SeedSortedPartitionsAcrossShards) {
  MA a;
  for (const TabR& table : {uniform_table(4), scrambled_table()}) {
    typename TypeParam::Map map(4, a, table);
    typename TypeParam::Map::Session session(map, a);
    std::vector<std::pair<K, K>> items;
    for (K k = 0; k < 1024; k += 2) items.emplace_back(k, k * 7);
    session.seed_sorted(items.begin(), items.end());
    // Every install loop counts its passes, the seed's included.
    for (std::size_t s = 0; s < map.shard_count(); ++s) {
      EXPECT_GE(session.shard_stats(s).attempts,
                session.shard_stats(s).updates)
          << "shard " << s;
    }
    ASSERT_EQ(session.size(), items.size());
    ASSERT_EQ(session.items(), items);
    // The seeded map stays updatable through the same session.
    EXPECT_TRUE(session.insert(1, 7));
    EXPECT_FALSE(session.insert(0, 99));  // present from the seed
    EXPECT_TRUE(session.erase(2));
    ASSERT_EQ(session.size(), items.size());  // +1 insert, -1 erase
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, ContendedNetEffectReconcilesAcrossShards) {
  MA a;
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  for (const TabR& table :
       {TabR::uniform(0, kKeys, 4),
        table_over(0, kKeys, {2, 0, 3, 1, 0, 2, 1, 3})}) {
    typename TypeParam::Map map(4, a, table);
    std::array<std::atomic<K>, kKeys> net{};
    store::ShardStatsBoard board(4);
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename TypeParam::Map::Session session(map, a);
        util::Xoshiro256 rng(w + 17);
        for (int i = 0; i < 2500; ++i) {
          const K k = rng.range(0, kKeys - 1);
          if (rng.chance(1, 2)) {
            if (session.insert(k, k)) net[k].fetch_add(1);
          } else {
            if (session.erase(k)) net[k].fetch_sub(1);
          }
        }
        session.fold_into(board);
      });
    }
    for (auto& w : workers) w.join();
    typename TypeParam::Map::Session session(map, a);
    std::size_t present_count = 0;
    for (int k = 0; k < kKeys; ++k) {
      const K n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      ASSERT_EQ(session.contains(k), n == 1) << "key " << k;
      present_count += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(session.size(), present_count);
    // The board saw every install the workers performed: per-shard rows
    // sum to the total, and something actually ran.
    core::OpStats sum;
    for (std::size_t s = 0; s < board.shards(); ++s) sum += board.shard(s);
    EXPECT_EQ(sum.updates, board.total().updates);
    EXPECT_EQ(sum.attempts, board.total().attempts);
    EXPECT_GT(board.total().attempts, 0u);
    expect_installs_on_every_shard(
        4, [&](std::size_t s) { return board.shard(s); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(StoreTyped, StatsRollupsMatchSessionCounters) {
  MA a;
  for (const TabR& table :
       {TabR::uniform(0, 200, 3), table_over(0, 200, {2, 0, 1, 1, 2, 0})}) {
    typename TypeParam::Map map(3, a, table);
    typename TypeParam::Map::Session session(map, a);
    for (K k = 0; k < 200; ++k) session.insert(k, k);
    for (K k = 0; k < 200; k += 2) session.erase(k);
    const core::OpStats total = session.stats();
    core::OpStats by_shard;
    for (std::size_t s = 0; s < 3; ++s) by_shard += session.shard_stats(s);
    EXPECT_EQ(by_shard.updates, total.updates);
    EXPECT_EQ(by_shard.attempts, total.attempts);
    EXPECT_EQ(by_shard.reads, total.reads);
    store::ShardStatsBoard board(3);
    session.fold_into(board);
    EXPECT_EQ(board.total().updates, total.updates);
    // Every op completed exactly once, whichever backend ran it.
    EXPECT_EQ(total.updates + total.noop_updates + total.helped_completions,
              300u);
    expect_installs_on_every_shard(
        3, [&](std::size_t s) { return session.shard_stats(s); });
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// A single-shard map over either backend behaves exactly like the bare
// UC — the degenerate configuration the facade must not tax.
TYPED_TEST(StoreTyped, SingleShardDegeneratesToBareUc) {
  MA a;
  {
    typename TypeParam::Map map(1, a, uniform_table(1));
    typename TypeParam::Map::Session session(map, a);
    EXPECT_TRUE(session.insert(5, 50));
    EXPECT_FALSE(session.insert(5, 51));
    EXPECT_EQ(session.find(5), std::optional<K>(50));
    EXPECT_TRUE(session.erase(5));
    EXPECT_EQ(session.size(), 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// The first `limit` entries of [lo, hi) in key order.
std::vector<std::pair<K, K>> oracle_scan(const std::map<K, K>& m, K lo, K hi,
                                         std::size_t limit) {
  std::vector<std::pair<K, K>> out;
  for (auto it = m.lower_bound(lo);
       it != m.end() && it->first < hi && out.size() < limit; ++it) {
    out.emplace_back(*it);
  }
  return out;
}

TYPED_TEST(StoreTyped, ScanMatchesMapOracleAcrossTabletEdges) {
  MA a;
  for (const TabR& table : {uniform_table(4), scrambled_table()}) {
    typename TypeParam::Map map(4, a, table);
    typename TypeParam::Map::Session session(map, a);
    std::map<K, K> oracle;
    util::Xoshiro256 rng(77);
    // Keys beyond the window too: they live in the unbounded end tablets.
    for (int i = 0; i < 600; ++i) {
      const K k = rng.range(kLo - 40, kHi + 40);
      if (session.insert(k, ~k)) oracle.emplace(k, ~k);
    }
    std::vector<std::pair<K, K>> got;
    const auto check = [&](K lo, K hi, std::size_t limit) {
      got.clear();
      const std::size_t n = session.scan(lo, hi, limit, got);
      const auto want = oracle_scan(oracle, lo, hi, limit);
      ASSERT_EQ(n, want.size()) << "[" << lo << ", " << hi << ") " << limit;
      ASSERT_EQ(got, want) << "[" << lo << ", " << hi << ") " << limit;
    };
    const std::vector<K>& b = table.bounds();  // 3 or 7 tablet edges
    // Whole ranges crossing several tablet edges, from an edge and from
    // inside a tablet, and the unbounded end tablets.
    check(b.front(), b.back(), 1000);
    check(b.front() - 5, b.back() + 7, 1000);
    check(std::numeric_limits<K>::min(), b.front(), 1000);
    check(b.back(), std::numeric_limits<K>::max(), 1000);
    // Limits that end inside a tablet: one past the second tablet's
    // content, and a few records into a middle tablet.
    const std::size_t second = oracle_scan(oracle, b[0], b[1], 1000).size();
    check(b[0], b.back(), second + 1);
    check(b[1] + 3, b.back(), 4);
    // Empty and inverted ranges.
    check(b[1], b[1], 10);
    check(b.back(), b.front(), 10);
    for (int i = 0; i < 300; ++i) {
      const K lo = rng.range(kLo - 60, kHi + 60);
      const K hi = lo + rng.range(0, 700);
      check(lo, hi, static_cast<std::size_t>(rng.range(1, 90)));
    }
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// The key type's extremes sit in the unbounded first and last tablets:
/// ordered reads and a migration of both end tablets must carry them
/// (the max key is exactly what half-open range traversal cannot name).
TYPED_TEST(StoreTyped, ExtremeKeysSurviveItemsAndMigration) {
  using Map = typename TypeParam::Map;
  constexpr K kMin = std::numeric_limits<K>::min();
  constexpr K kMax = std::numeric_limits<K>::max();
  MA a;
  {
    const TabR table = scrambled_table();
    Map map(4, a, table);
    typename Map::Session session(map, a);
    const std::vector<K> keys = {kMin, kMin + 1, 0, 500, kMax - 1, kMax};
    std::vector<std::pair<K, K>> want;
    for (const K k : keys) {
      ASSERT_TRUE(session.insert(k, k));
      want.emplace_back(k, k);
    }
    ASSERT_EQ(session.items(), want);
    std::vector<std::pair<K, K>> got;
    ASSERT_EQ(session.scan(kMin, kMax, 100, got), keys.size() - 1);
    got.emplace_back(kMax, kMax);  // hi is exclusive: scans never reach kMax
    ASSERT_EQ(got, want);

    // First tablet (kMin, kMin + 1, 0) moves 2 -> 1, last tablet
    // (kMax - 1, kMax) moves 3 -> 0.
    store::Rebalancer<Map> reb(map, a);
    reb.migrate_to(table.with_owner(0, 1).with_owner(7, 0));
    EXPECT_EQ(reb.stats().keys_moved, 5u);
    EXPECT_EQ(session.items(), want);
    session.read_cut([&](const auto& cut) {
      EXPECT_NE(cut.snapshot(1).find(kMin), nullptr);
      EXPECT_EQ(cut.snapshot(2).find(kMin), nullptr);
      EXPECT_NE(cut.snapshot(0).find(kMax), nullptr);
      EXPECT_EQ(cut.snapshot(3).find(kMax), nullptr);
      return 0;
    });
    EXPECT_TRUE(session.erase(kMax));
    EXPECT_TRUE(session.erase(kMin));
    EXPECT_EQ(session.size(), keys.size() - 2);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
