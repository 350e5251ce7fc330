// Adaptive shard rebalancing: routing epochs over tablet tables, the
// continuous tick planner, and live path-copying shard migration
// (store/rebalancer.hpp, store/router_epoch.hpp).
//
// The load-bearing guarantees under test:
//   * migration preserves contents exactly — no key lost, none
//     duplicated, values intact — while writers run;
//   * per-op outcomes stay correct across a flip (an op on a moving key
//     gates until its new owner holds the data, so insert/erase results
//     are computed against complete state);
//   * after a flip every shard holds exactly the keys the new topology
//     assigns it (the invariant the extraction/install/erase phases
//     maintain);
//   * consistent cuts are wholly-before or wholly-after a flip, never a
//     mixture (a mixed cut would double-count or drop the moving range);
//   * the sketch → tick → migrate loop actually balances a skewed
//     offered load.
//
// The concurrent cases run under TSan in CI (the drain handshake, the
// settle release, and the gate loop are exactly the code TSan vets).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/external_bst.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "store/executor.hpp"
#include "store/rebalancer.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using Smr = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using PlainUc = core::Atom<T, Smr, MA>;
using CombUc = core::CombiningAtom<T, Smr, MA>;
using TabR = store::TabletRouter<std::int64_t>;

template <class UcT>
struct Fix {
  using Uc = UcT;
  using Map = store::ShardedMap<Uc, TabR>;
  using Reb = store::Rebalancer<Map>;
};

template <class F>
class RebalanceTyped : public ::testing::Test {};

using Fixes = ::testing::Types<Fix<PlainUc>, Fix<CombUc>>;
TYPED_TEST_SUITE(RebalanceTyped, Fixes);

TYPED_TEST(RebalanceTyped, ManualMigrationPreservesContentsAndTopology) {
  MA a;
  {
    typename TypeParam::Map map(4, a, TabR::uniform(0, 1 << 20, 4));
    typename TypeParam::Map::Session session(map, a);
    // Skewed seed: everything lives in shard 0's uniform range.
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < 4000; k += 2) items.emplace_back(k, k * 3);
    session.seed_sorted(items.begin(), items.end());

    typename TypeParam::Reb reb(map, a);
    reb.migrate_to(TabR({1000, 2000, 3000}, {0, 1, 2, 3}));

    EXPECT_EQ(reb.stats().migrations, 1u);
    EXPECT_GT(reb.stats().keys_moved, 0u);
    EXPECT_EQ(map.current_epoch()->seq, 2u);
    EXPECT_TRUE(map.current_epoch()->is_settled());

    // Contents unchanged, no loss, no duplication.
    EXPECT_EQ(session.items(), items);
    // Every shard holds exactly its new range: [0,1000) has 500 even
    // keys, etc. — checked through per-shard sizes via a cut.
    session.read_cut([&](const store::ConsistentCut<typename TypeParam::Uc>&
                             cut) {
      for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(cut.snapshot(s).size(), 500u) << "shard " << s;
      }
      return 0;
    });
    // The map stays fully operational under the fitted topology.
    EXPECT_TRUE(session.insert(1, 7));
    EXPECT_FALSE(session.insert(0, 9));
    EXPECT_TRUE(session.erase(2));
    EXPECT_EQ(session.size(), items.size());
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(RebalanceTyped, TickIdlesOnBalancedTraffic) {
  MA a;
  {
    typename TypeParam::Map map(8, a, TabR::uniform(0, 1 << 20, 8));
    typename TypeParam::Map::Session session(map, a);
    store::RebalanceConfig cfg;
    cfg.min_samples = 256;
    typename TypeParam::Reb reb(map, a, cfg);
    util::Xoshiro256 rng(11);
    for (int i = 0; i < 4096; ++i) {
      session.insert(rng.range(0, (1 << 20) - 1), 1);
    }
    EXPECT_EQ(reb.tick(), store::TickResult::kIdle);
    EXPECT_EQ(reb.stats().plans, 1u);
    EXPECT_LT(reb.stats().last_imbalance, 1.3);
    EXPECT_EQ(reb.stats().migrations, 0u);
    EXPECT_EQ(map.current_epoch()->seq, 1u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// 4 mixed reader/writer threads over disjoint key sets, with forced
/// migrations racing the traffic. Disjointness makes every op's outcome
/// deterministic, so the test can assert exact per-op results *through*
/// the flips, plus exact final contents.
template <class TP>
void run_concurrent_oracle(bool with_executor) {
  using Map = typename TP::Map;
  using Reb = typename TP::Reb;
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 128;
  constexpr int kRounds = 60;
  constexpr std::int64_t kSpace = 1 << 20;
  MA a;
  {
    Map map(4, a, TabR::uniform(0, kSpace, 4));
    std::optional<store::ShardExecutor<typename TP::Uc>> exec;
    if (with_executor) exec.emplace(map, [&a]() -> MA& { return a; });
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename Map::Session session(map, a);
        // Thread w owns keys w*spread + i*7 for i in [0, kKeysPerThread):
        // scattered across the keyspace so every migration moves some.
        const std::int64_t base = w * (kSpace / kThreads);
        auto key_of = [&](int i) { return base + i * 61; };
        for (int r = 0; r < kRounds; ++r) {
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_TRUE(session.insert(key_of(i), w)) << "w" << w << " r" << r;
          }
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_FALSE(session.insert(key_of(i), w + 100));
            ASSERT_TRUE(session.contains(key_of(i)));
            const auto v = session.find(key_of(i));
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(*v, w);  // the first insert's value survived the move
          }
          // Erase every second key; re-check both classes.
          for (int i = 0; i < kKeysPerThread; i += 2) {
            ASSERT_TRUE(session.erase(key_of(i)));
          }
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_EQ(session.contains(key_of(i)), i % 2 == 1);
          }
          for (int i = 1; i < kKeysPerThread; i += 2) {
            ASSERT_TRUE(session.erase(key_of(i)));
          }
        }
      });
    }
    // Force migrations under the traffic: alternate between topologies
    // until the workers finish.
    Reb reb(map, a);
    std::thread flipper([&] {
      bool uniform = false;
      std::uint64_t flips = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (uniform) {
          reb.migrate_to(TabR::uniform(0, kSpace, 4));
        } else {
          reb.migrate_to(
              TabR({kSpace / 16, kSpace / 8, kSpace / 2}, {0, 1, 2, 3}));
        }
        uniform = !uniform;
        ++flips;
        std::this_thread::yield();
      }
      EXPECT_GT(flips, 0u);
    });
    for (auto& w : workers) w.join();
    stop.store(true);
    flipper.join();
    EXPECT_GT(reb.stats().migrations, 0u);

    // Final state: empty (every thread erased everything it inserted),
    // whatever interleaving of flips the run saw.
    typename Map::Session session(map, a);
    EXPECT_EQ(session.size(), 0u);
    EXPECT_TRUE(session.items().empty());
    if (exec.has_value()) {
      exec->stop();
      exec.reset();
    }
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(RebalanceTyped, ConcurrentOracleAcrossForcedMigrations) {
  run_concurrent_oracle<TypeParam>(/*with_executor=*/false);
}

TYPED_TEST(RebalanceTyped, ConcurrentOracleAcrossMigrationsThroughExecutor) {
  run_concurrent_oracle<TypeParam>(/*with_executor=*/true);
}

/// Batch ingest racing migrations: client batches split under one epoch
/// must land whole and answer exactly, through flips, with and without
/// the executor pipeline.
TYPED_TEST(RebalanceTyped, BatchIngestSurvivesMigrations) {
  using Map = typename TypeParam::Map;
  using Req = typename Map::BatchRequest;
  using K = typename Map::OpKind;
  constexpr std::int64_t kSpace = 1 << 16;
  MA a;
  {
    Map map(4, a, TabR::uniform(0, kSpace, 4));
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([&, w] {
        typename Map::Session session(map, a);
        const std::int64_t base = w * (kSpace / 2);
        bool out[64];
        for (int r = 0; r < 200; ++r) {
          std::vector<Req> reqs;
          for (int i = 0; i < 32; ++i) {
            reqs.push_back(Req{K::kInsert, base + i * 97, w});
          }
          session.execute_batch(reqs, std::span<bool>(out, reqs.size()));
          for (int i = 0; i < 32; ++i) ASSERT_TRUE(out[i]) << "r" << r;
          reqs.clear();
          for (int i = 0; i < 32; ++i) {
            reqs.push_back(Req{K::kErase, base + i * 97, std::nullopt});
          }
          session.execute_batch(reqs, std::span<bool>(out, reqs.size()));
          for (int i = 0; i < 32; ++i) ASSERT_TRUE(out[i]) << "r" << r;
        }
      });
    }
    typename TypeParam::Reb reb(map, a);
    std::thread flipper([&] {
      bool uniform = false;
      while (!stop.load(std::memory_order_relaxed)) {
        reb.migrate_to(
            uniform ? TabR::uniform(0, kSpace, 4)
                    : TabR({kSpace / 8, kSpace / 4, kSpace / 2}, {0, 1, 2, 3}));
        uniform = !uniform;
        std::this_thread::yield();
      }
    });
    for (auto& w : workers) w.join();
    stop.store(true);
    flipper.join();
    typename Map::Session session(map, a);
    EXPECT_EQ(session.size(), 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// Consistent cuts across topology flips: with writers quiesced the
/// store's contents are a fixed oracle; a cut that mixed topologies
/// (source pinned before its erase phase, destination after its install
/// phase, or vice versa) would show duplicated or missing keys. Readers
/// hammer cuts while the flipper migrates; every cut must equal the
/// oracle exactly and carry one settled epoch token.
TYPED_TEST(RebalanceTyped, CutsNeverMixTopologies) {
  using Map = typename TypeParam::Map;
  constexpr std::int64_t kSpace = 1 << 16;
  MA a;
  {
    Map map(4, a, TabR::uniform(0, kSpace, 4));
    typename Map::Session seeder(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> oracle;
    for (std::int64_t k = 0; k < kSpace; k += 37) oracle.emplace_back(k, ~k);
    seeder.seed_sorted(oracle.begin(), oracle.end());

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> cuts_taken{0};
    std::vector<std::thread> readers;
    for (int w = 0; w < 2; ++w) {
      readers.emplace_back([&] {
        typename Map::Session session(map, a);
        while (!stop.load(std::memory_order_relaxed)) {
          // items() runs over one consistent cut internally.
          const auto got = session.items();
          ASSERT_EQ(got, oracle);
          // And through the raw cut surface: per-shard sizes sum to the
          // oracle and the cut names one settled epoch.
          session.read_cut(
              [&](const store::ConsistentCut<typename TypeParam::Uc>& cut) {
                std::size_t total = 0;
                for (std::size_t s = 0; s < cut.shards(); ++s) {
                  total += cut.snapshot(s).size();
                }
                EXPECT_EQ(total, oracle.size());
                EXPECT_NE(cut.epoch_token(), nullptr);
                return 0;
              });
          cuts_taken.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    typename TypeParam::Reb reb(map, a);
    for (int f = 0; f < 40; ++f) {
      reb.migrate_to(
          f % 2 == 0 ? TabR({kSpace / 16, kSpace / 4, kSpace / 2}, {0, 1, 2, 3})
                     : TabR::uniform(0, kSpace, 4));
      std::this_thread::yield();
    }
    stop.store(true);
    for (auto& r : readers) r.join();
    EXPECT_EQ(reb.stats().migrations, 40u);
    EXPECT_GT(cuts_taken.load(), 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// Stats plumbing: migration key counts and epoch waits reach the board.
TYPED_TEST(RebalanceTyped, MigrationCountersReachTheBoard) {
  MA a;
  {
    typename TypeParam::Map map(2, a, TabR::uniform(0, 1024, 2));
    typename TypeParam::Map::Session session(map, a);
    for (std::int64_t k = 0; k < 512; ++k) session.insert(k, k);
    typename TypeParam::Reb reb(map, a);
    reb.migrate_to(TabR({128}, {0, 1}));  // moves [128, 512) from shard 0 to 1
    store::ShardStatsBoard board(2);
    reb.fold_into(board);
    EXPECT_EQ(board.shard(1).mig_keys_in, 384u);
    EXPECT_EQ(board.shard(0).mig_keys_out, 384u);
    EXPECT_EQ(board.total().mig_keys_in, board.total().mig_keys_out);
    EXPECT_EQ(reb.stats().keys_moved, 384u);
    EXPECT_EQ(session.size(), 512u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ===================== splits, moves and continuous ticks ============
//
// The added guarantees under test:
//   * a split-only flip migrates ZERO keys (boundaries changed, owners
//     didn't — the tablet diff is empty);
//   * a single-tablet reassignment moves exactly that tablet's resident
//     keys and nothing else;
//   * the continuous tick loop reaches balance as a stream of small
//     flips — splitting the hot head and migrating a small fraction of
//     the resident mass — and client ops stay exact through ≥ 20
//     throttled single-tablet moves (the TSan-enrolled oracle).

TYPED_TEST(RebalanceTyped, SplitOnlyFlipMigratesZeroKeys) {
  constexpr std::int64_t kSpace = 1 << 20;
  MA a;
  {
    typename TypeParam::Map map(4, a, TabR::uniform(0, kSpace, 4));
    typename TypeParam::Map::Session session(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < kSpace; k += 257) items.emplace_back(k, ~k);
    session.seed_sorted(items.begin(), items.end());

    typename TypeParam::Reb reb(map, a);
    // Cut shard 0's tablet in three. Owners unchanged -> zero keys move,
    // but the epoch still runs the full publish/drain/settle protocol.
    const TabR cur = map.current_epoch()->router;
    const std::vector<std::int64_t> cuts = {kSpace / 16, kSpace / 8};
    reb.migrate_to(cur.with_split(0, std::span<const std::int64_t>(cuts)));

    EXPECT_EQ(reb.stats().migrations, 1u);
    EXPECT_EQ(reb.stats().keys_moved, 0u);
    EXPECT_EQ(map.current_epoch()->seq, 2u);
    EXPECT_TRUE(map.current_epoch()->is_settled());
    EXPECT_EQ(map.router().tablet_count(), 6u);
    EXPECT_EQ(session.items(), items);

    // And the reverse: coalescing the pieces back is also free.
    reb.migrate_to(map.router().coalesced());
    EXPECT_EQ(reb.stats().keys_moved, 0u);
    EXPECT_EQ(map.router().tablet_count(), 4u);
    EXPECT_EQ(session.items(), items);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(RebalanceTyped, ReassignMovesExactlyThatTablet) {
  constexpr std::int64_t kSpace = 1 << 16;
  MA a;
  {
    typename TypeParam::Map map(4, a, TabR::uniform(0, kSpace, 4));
    typename TypeParam::Map::Session session(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < kSpace; k += 16) items.emplace_back(k, k);
    session.seed_sorted(items.begin(), items.end());
    const std::size_t per_shard = items.size() / 4;

    typename TypeParam::Reb reb(map, a);
    // Split tablet 0 into [0, kSpace/8) + rest, then hand the first
    // piece to shard 3: exactly its resident keys move, 0 -> 3.
    const std::vector<std::int64_t> cuts = {kSpace / 8};
    reb.migrate_to(map.router().with_split(0, std::span<const std::int64_t>(
                                                  cuts)));
    ASSERT_EQ(reb.stats().keys_moved, 0u);
    reb.migrate_to(map.router().with_owner(0, 3));

    const std::size_t piece = per_shard / 2;  // [0, kSpace/8) resident
    EXPECT_EQ(reb.stats().keys_moved, piece);
    store::ShardStatsBoard board(4);
    reb.fold_into(board);
    EXPECT_EQ(board.shard(3).mig_keys_in, piece);
    EXPECT_EQ(board.shard(0).mig_keys_out, piece);
    EXPECT_EQ(session.items(), items);

    // Shard 3 now serves two tablets: its uniform quarter + the piece.
    session.read_cut(
        [&](const store::ConsistentCut<typename TypeParam::Uc>& cut) {
          EXPECT_EQ(cut.snapshot(3).size(), per_shard + piece);
          EXPECT_EQ(cut.snapshot(0).size(), per_shard - piece);
          return 0;
        });
    EXPECT_EQ(map.router().tablets_per_shard(4)[3], 2u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(RebalanceTyped, ContinuousTicksReachBalance) {
  constexpr std::int64_t kSpace = 1 << 20;
  MA a;
  {
    typename TypeParam::Map map(8, a, TabR::uniform(0, kSpace, 8));
    typename TypeParam::Map::Session session(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < kSpace; k += 64) items.emplace_back(k, k);
    session.seed_sorted(items.begin(), items.end());
    const std::size_t resident = session.size();

    store::RebalanceConfig cfg;
    cfg.min_samples = 256;
    cfg.budget_keys = 1 << 20;  // throttle out of the way (tested elsewhere)
    typename TypeParam::Reb reb(map, a, cfg);

    util::Xoshiro256 rng(31);
    std::uint64_t moves = 0, splits = 0;
    double imbalance = 0.0;
    for (int round = 0; round < 200; ++round) {
      // Keep the sketch fed with the hot-head workload between ticks
      // (each flip decays the reservoir).
      for (int i = 0; i < 1024; ++i) {
        const std::int64_t k = rng.range(0, 2047);
        if (rng.chance(1, 2)) {
          session.insert(k, k);
        } else {
          session.erase(k);
        }
      }
      const store::TickResult r = reb.tick();
      if (r == store::TickResult::kMove) ++moves;
      if (r == store::TickResult::kSplit) ++splits;
      if (r == store::TickResult::kIdle) {
        imbalance = reb.stats().last_imbalance;
        if (reb.stats().plans > 0 && imbalance < 1.3 && imbalance > 0.0) {
          break;
        }
      }
    }
    EXPECT_LT(imbalance, 1.3) << "continuous mode never reached balance";
    EXPECT_GT(splits, 0u) << "hot head was never carved";
    EXPECT_GT(moves, 0u) << "no tablet ever moved";
    EXPECT_GT(map.router().tablet_count(), 8u) << "the head was not split";
    // Each step was small and the sum stayed a fraction of the store:
    // cold tablets kept their owners, so balance did not repack the cold
    // mass.
    EXPECT_LE(reb.stats().keys_moved, static_cast<std::uint64_t>(resident) / 4)
        << "tablet moves should not repack the cold mass";
    EXPECT_EQ(reb.stats().migrations, moves + splits);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// The continuous-mode concurrent oracle (TSan-enrolled via this file):
/// 4 exactness workers over disjoint even keys, a hot writer hammering a
/// shifting odd-key hot range (so imbalance keeps re-arising), and a
/// ticker thread driving reb.tick() until >= 20 throttled single-tablet
/// moves have executed. Every worker op asserts its exact outcome
/// through the flips; final contents are exact.
TYPED_TEST(RebalanceTyped, ContinuousOracleAcrossThrottledMoves) {
  using Map = typename TypeParam::Map;
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 96;
  constexpr std::int64_t kSpace = 1 << 20;
  constexpr std::uint64_t kWantMoves = 20;
  MA a;
  {
    Map map(4, a, TabR::uniform(0, kSpace, 4));
    store::RebalanceConfig cfg;
    cfg.min_samples = 256;
    cfg.budget_keys = 4096;
    cfg.budget_interval = std::chrono::milliseconds(2);
    typename TypeParam::Reb reb(map, a, cfg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename Map::Session session(map, a);
        const std::int64_t base = w * (kSpace / kThreads);
        auto key_of = [&](int i) { return base + i * 62; };  // even keys
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_TRUE(session.insert(key_of(i), w));
          }
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_FALSE(session.insert(key_of(i), w + 100));
            const auto v = session.find(key_of(i));
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(*v, w);
          }
          for (int i = 0; i < kKeysPerThread; ++i) {
            ASSERT_TRUE(session.erase(key_of(i)));
          }
        }
      });
    }
    // Hot writer: odd keys only (disjoint from the workers), hot range
    // shifts phase so the planner always has fresh imbalance to fix.
    std::thread hot([&] {
      typename Map::Session session(map, a);
      util::Xoshiro256 rng(41);
      std::size_t phase = 0;
      std::uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t base =
            static_cast<std::int64_t>(phase) * (kSpace / 4) + 1;
        for (int j = 0; j < 256; ++j) {
          const std::int64_t k = base + 2 * rng.range(0, 511);
          session.insert(k, k);
          session.erase(k);
        }
        if (++round % 64 == 0) phase = (phase + 1) % 4;
      }
    });
    // Ticker: continuous rebalancing until enough moves have run.
    std::uint64_t moves = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (moves < kWantMoves &&
           std::chrono::steady_clock::now() < deadline) {
      if (reb.tick() == store::TickResult::kMove) ++moves;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
    for (auto& w : workers) w.join();
    hot.join();
    EXPECT_GE(moves, kWantMoves)
        << "continuous mode stalled: plans=" << reb.stats().plans
        << " splits=" << reb.stats().splits
        << " moves=" << reb.stats().assignment_moves
        << " budget_deferrals=" << reb.stats().budget_deferrals
        << " pressure_deferrals=" << reb.stats().pressure_deferrals
        << " last_imbalance=" << reb.stats().last_imbalance
        << " tablets=" << map.router().tablet_count();
    EXPECT_EQ(reb.stats().assignment_moves, moves);

    // Hot writer erased everything it inserted; workers finished their
    // rounds clean. Whatever interleaving ran: store must be empty.
    typename Map::Session session(map, a);
    EXPECT_EQ(session.size(), 0u);
    EXPECT_TRUE(session.items().empty());
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// The throttle prices a tablet move by its resident keys, which every
/// ordered map can count exactly. ExternalBst has no count_range, so it
/// is the map that would fall back to pricing the whole shard: here
/// shard 0 holds a hot tablet and a cold one, so the first move carries
/// fewer keys than the shard. Single-threaded, nothing changes the slice
/// between the estimate and the extraction, so the admitted estimate
/// must equal the keys moved.
TEST(Rebalance, MoveEstimateIsTheTabletNotTheShard) {
  using Eb = persist::ExternalBst<std::int64_t, std::int64_t>;
  using EbMap = store::ShardedMap<core::Atom<Eb, Smr, MA>, TabR>;
  constexpr std::int64_t kSpace = 1 << 16;
  MA a;
  {
    // Shard 0 owns [0, kSpace/8) (hot below) and [kSpace/8, kSpace/4).
    EbMap map(4, a,
              TabR({kSpace / 8, kSpace / 4, kSpace / 2, 3 * kSpace / 4},
                   {0, 0, 1, 2, 3}));
    EbMap::Session session(map, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < kSpace; k += 8) items.emplace_back(k, k);
    session.seed_sorted(items.begin(), items.end());

    store::RebalanceConfig cfg;
    cfg.min_samples = 256;
    cfg.budget_keys = 1 << 20;  // admit every move
    store::Rebalancer<EbMap> reb(map, a, cfg);
    util::Xoshiro256 rng(5);
    bool moved = false;
    for (int round = 0; round < 200 && !moved; ++round) {
      for (int i = 0; i < 1024; ++i) {
        (void)session.find(rng.range(0, kSpace / 8 - 1));
      }
      const std::size_t shard0 = session.read_cut(
          [](const store::ConsistentCut<core::Atom<Eb, Smr, MA>>& cut) {
            return cut.snapshot(0).size();
          });
      if (reb.tick() != store::TickResult::kMove) continue;
      moved = true;
      ASSERT_GT(reb.stats().keys_moved, 0u);
      ASSERT_LT(reb.stats().keys_moved, shard0);
      EXPECT_EQ(reb.stats().peak_interval_est, reb.stats().keys_moved);
    }
    EXPECT_TRUE(moved) << "no tablet ever moved";
    EXPECT_EQ(session.items(), items);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
