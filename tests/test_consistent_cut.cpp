// Vector-clock-consistent cross-shard reads.
//
// The strongest check is the lockstep invariant: one writer alternates
// fresh-key inserts between shard 0 and shard 1 (shard 0 always first),
// so at every single instant size(shard 0) - size(shard 1) is 0 or 1.
// A reader composing independently pinned snapshots can observe any skew
// (pin shard 0, sleep through k writer rounds, pin shard 1 → negative
// skew of up to k); a reader on a consistent cut can never see anything
// but {0, 1}. The concurrent tests hammer exactly that, plus:
//
//   * clock exactness on the combining backend — the version label rides
//     in the pinned VersionRec, and with only fresh-key inserts landing
//     on a shard, size == version - 1 identically;
//   * clock lower-bound on the plain Atom — its counter trails the root
//     CAS, so size >= version - 1;
//   * per-reader clock monotonicity (successive cuts are totally ordered
//     component-wise);
//   * quiesced cuts equal the oracle, and the retry counter is surfaced
//     through OpStats / ShardStatsBoard.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "store/version_vector.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using Epoch = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using PlainUc = core::Atom<T, Epoch, MA>;
using CombUc = core::CombiningAtom<T, Epoch, MA>;
using TabR = store::TabletRouter<std::int64_t>;

TEST(VersionVector, EqualityAndDominance) {
  store::VersionVector a(3), b(3);
  a[0] = 1; a[1] = 5; a[2] = 2;
  b[0] = 1; b[1] = 5; b[2] = 2;
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.dominated_by(b));
  b[2] = 3;
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));
  a[0] = 9;  // incomparable: a ahead on shard 0, behind on shard 2
  EXPECT_FALSE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));
}

template <class UcT>
struct CutCase {
  using Uc = UcT;
  // The combining backend binds label and snapshot atomically (the label
  // rides in the VersionRec); the plain Atom's label may trail in-flight
  // installs, so it only lower-bounds.
  static constexpr bool kExactClock =
      !std::is_same_v<UcT, core::Atom<T, Epoch, MA>>;
};

template <class C>
class CutTyped : public ::testing::Test {};

using CutBackends = ::testing::Types<CutCase<PlainUc>, CutCase<CombUc>>;
TYPED_TEST_SUITE(CutTyped, CutBackends);

// Key split at 1 << 20: writer keys 0,1,2,... go to shard 0 and
// (1<<20)+i to shard 1.
constexpr std::int64_t kSplit = std::int64_t{1} << 20;

TYPED_TEST(CutTyped, QuiescedCutMatchesOracleAndCurrentVersions) {
  using Uc = typename TypeParam::Uc;
  using Map = store::ShardedMap<Uc, TabR>;
  MA a;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    typename Map::Session session(map, a);
    for (std::int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(session.insert(i, i));
      ASSERT_TRUE(session.insert(kSplit + i, i));
    }
    session.read_cut([&](const store::ConsistentCut<Uc>& cut) {
      EXPECT_EQ(cut.shards(), 2u);
      EXPECT_EQ(cut.snapshot(0).size(), 100u);
      EXPECT_EQ(cut.snapshot(1).size(), 100u);
      EXPECT_EQ(cut.retries(), 0u);  // no writer racing: first pass stable
      // Quiesced, so the clock must equal the live version counters.
      EXPECT_EQ(cut.clock()[0], map.shard(0).version());
      EXPECT_EQ(cut.clock()[1], map.shard(1).version());
    });
    EXPECT_EQ(session.size(), 200u);
    // Each shard's counters saw the cut participations.
    EXPECT_GT(session.shard_stats(0).cut_reads, 0u);
    EXPECT_EQ(session.shard_stats(0).cut_retries, 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CutTyped, ConcurrentLockstepWriterNeverSkewsTheCut) {
  using Uc = typename TypeParam::Uc;
  using Map = store::ShardedMap<Uc, TabR>;
  MA a;
  constexpr int kRounds = 3000;
  constexpr int kReaders = 2;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> cuts_taken{0};
    std::atomic<int> readers_started{0};

    std::thread writer([&] {
      typename Map::Session session(map, a);
      // Write only once every reader has taken a cut: under load, thread
      // start-up can otherwise outlast all kRounds and no cut overlaps.
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (std::int64_t i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(session.insert(i, i));           // shard 0 first
        ASSERT_TRUE(session.insert(kSplit + i, i));  // then shard 1
      }
      done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        typename Map::Session session(map, a);
        store::VersionVector prev;
        bool started = false;
        while (!done.load(std::memory_order_acquire)) {
          session.read_cut([&](const store::ConsistentCut<Uc>& cut) {
            const std::size_t n0 = cut.snapshot(0).size();
            const std::size_t n1 = cut.snapshot(1).size();
            // The lockstep invariant: at every instant shard 0 leads
            // shard 1 by 0 or 1 fresh-key inserts. Only a true cut can
            // guarantee observing it.
            ASSERT_GE(n0, n1);
            ASSERT_LE(n0 - n1, 1u);
            // Fresh-key inserts only: every install grows the shard by
            // one, so size determines version exactly...
            for (std::size_t s = 0; s < 2; ++s) {
              const std::uint64_t v = cut.clock()[s];
              const std::size_t n = cut.snapshot(s).size();
              if (TypeParam::kExactClock) {
                ASSERT_EQ(n, v - 1) << "shard " << s;
              } else {
                // ...while the Atom's label may trail in-flight bumps.
                ASSERT_GE(n + 1, v) << "shard " << s;
              }
            }
            // Per-reader clocks are totally ordered: versions only grow.
            if (prev.size() != 0) {
              ASSERT_TRUE(prev.dominated_by(cut.clock()));
            }
            prev = cut.clock();
          });
          cuts_taken.fetch_add(1, std::memory_order_relaxed);
          if (!started) {
            started = true;
            readers_started.fetch_add(1, std::memory_order_release);
          }
        }
      });
    }
    writer.join();
    for (auto& t : readers) t.join();
    EXPECT_GT(cuts_taken.load(), 0u);

    typename Map::Session session(map, a);
    EXPECT_EQ(session.size(), 2u * kRounds);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CutTyped, ItemsAndForEachReadOneCut) {
  using Uc = typename TypeParam::Uc;
  using Map = store::ShardedMap<Uc, TabR>;
  MA a;
  constexpr int kRounds = 1200;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    std::atomic<bool> done{false};
    std::thread writer([&] {
      typename Map::Session session(map, a);
      for (std::int64_t i = 0; i < kRounds; ++i) {
        session.insert(i, i);
        session.insert(kSplit + i, i);
      }
      done.store(true, std::memory_order_release);
    });
    std::thread reader([&] {
      typename Map::Session session(map, a);
      while (!done.load(std::memory_order_acquire)) {
        const auto items = session.items();
        // Ordered iteration walks tablet 0 (shard 0) then tablet 1
        // (shard 1); derive per-shard sizes from the key ranges and
        // re-check the lockstep invariant through the iteration surface.
        std::size_t n0 = 0;
        std::int64_t prev_key = -1;
        for (const auto& [k, v] : items) {
          ASSERT_GT(k, prev_key) << "iteration out of order";
          prev_key = k;
          if (k < kSplit) ++n0;
        }
        const std::size_t n1 = items.size() - n0;
        ASSERT_GE(n0, n1);
        ASSERT_LE(n0 - n1, 1u);
      }
    });
    writer.join();
    reader.join();
    typename Map::Session session(map, a);
    EXPECT_EQ(session.items().size(), 2u * kRounds);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// White-box: drive ConsistentCut::collect directly and install a write
// on shard 0 between the reader's pin and its validation probe — exactly
// the race the protocol exists to absorb. The cut must re-pin shard 0
// (one counted retry, reported through on_retry), converge, and hand
// back the post-write snapshot under a clock matching the live version.
TEST(CutRetry, MovedShardIsRepinnedAndCounted) {
  using Map = store::ShardedMap<CombUc, TabR>;
  MA a;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    typename Map::Session writer(map, a);
    typename CombUc::Ctx rctx0(map.shard(0).reclaimer(), a);
    typename CombUc::Ctx rctx1(map.shard(1).reclaimer(), a);
    ASSERT_TRUE(writer.insert(1, 1));
    ASSERT_TRUE(writer.insert(kSplit + 1, 1));
    store::ConsistentCut<CombUc> cut;
    std::vector<std::size_t> retried;
    bool injected = false;
    bool seen_shard1 = false;
    cut.collect(
        2,
        [&](std::size_t s) -> CombUc& {
          // The pin pass visits shard 0 then shard 1; the next shard-0
          // call is the validation probe — inject the racing write there.
          if (s == 1) seen_shard1 = true;
          if (s == 0 && seen_shard1 && !injected) {
            injected = true;
            EXPECT_TRUE(writer.insert(2, 2));
          }
          return map.shard(s);
        },
        [&](std::size_t s) -> typename CombUc::Ctx& {
          return s == 0 ? rctx0 : rctx1;
        },
        [&](std::size_t s) { retried.push_back(s); });
    EXPECT_TRUE(injected);
    EXPECT_EQ(cut.retries(), 1u);
    ASSERT_EQ(retried.size(), 1u);
    EXPECT_EQ(retried[0], 0u);
    EXPECT_EQ(cut.snapshot(0).size(), 2u);  // the re-pin saw the write
    EXPECT_EQ(cut.snapshot(1).size(), 1u);
    EXPECT_EQ(cut.clock()[0], map.shard(0).version());
    cut.release();
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// Empty-token regression: the plain Atom used to publish nullptr for
// empty versions — the one recyclable token, patched over with a version
// cross-check that itself had an ABA (tests/test_model_check.cpp holds
// the schedule). Empty versions now carry fresh tagged sentinel tokens,
// so a shard that goes empty -> non-empty -> empty between pin and probe
// is caught by the token comparison alone, like every other transition.
TEST(CutRetry, EmptyShardAbaIsCaughtByTokenAlone) {
  using Map = store::ShardedMap<PlainUc, TabR>;
  MA a;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    typename Map::Session writer(map, a);
    typename PlainUc::Ctx rctx0(map.shard(0).reclaimer(), a);
    typename PlainUc::Ctx rctx1(map.shard(1).reclaimer(), a);
    // Shard 0 stays empty (null token); shard 1 holds a key.
    ASSERT_TRUE(writer.insert(kSplit + 1, 1));
    store::ConsistentCut<PlainUc> cut;
    std::vector<std::size_t> retried;
    bool injected = false;
    bool seen_shard1 = false;
    cut.collect(
        2,
        [&](std::size_t s) -> PlainUc& {
          if (s == 1) seen_shard1 = true;
          if (s == 0 && seen_shard1 && !injected) {
            injected = true;
            // Two installs whose net root is nullptr again.
            EXPECT_TRUE(writer.insert(1, 1));
            EXPECT_TRUE(writer.erase(1));
          }
          return map.shard(s);
        },
        [&](std::size_t s) -> typename PlainUc::Ctx& {
          return s == 0 ? rctx0 : rctx1;
        },
        [&](std::size_t s) { retried.push_back(s); });
    EXPECT_TRUE(injected);
    ASSERT_EQ(retried.size(), 1u);
    EXPECT_EQ(retried[0], 0u);
    EXPECT_EQ(cut.snapshot(0).size(), 0u);
    EXPECT_EQ(cut.clock()[0], map.shard(0).version());
    cut.release();
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(CutStats, RetryCounterRidesTheStatsBoard) {
  // Deterministic surface check: fold a session whose counters include
  // cut activity into the board and make sure the roll-up keeps them.
  using Map = store::ShardedMap<CombUc, TabR>;
  MA a;
  {
    Map map(2, a, TabR({kSplit}, {0, 1}));
    typename Map::Session session(map, a);
    session.insert(1, 1);
    session.insert(kSplit + 1, 1);
    (void)session.size();
    (void)session.size();
    store::ShardStatsBoard board(2);
    session.fold_into(board);
    EXPECT_EQ(board.total().cut_reads, 4u);  // 2 cuts × 2 shards
    EXPECT_EQ(board.total().cut_retries,
              session.shard_stats(0).cut_retries +
                  session.shard_stats(1).cut_retries);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
