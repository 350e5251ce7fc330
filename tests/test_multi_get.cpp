// The batched read path at the UC and store layers.
//
// What must hold:
//   * oracle equivalence — multi_get answers every probe key (present and
//     absent) exactly like per-key reads against the same contents, on
//     both UC backends (Atom, CombiningAtom) and across structures,
//     including the external BST's per-key fallback;
//   * read-only discipline — a multi_get batch performs ZERO allocations,
//     ZERO installs, and ZERO version bumps (white-box via AllocStats and
//     the UC's version counter): a pinned root is a free snapshot;
//   * Session::multi_get — unsorted, duplicate-laden client key sets are
//     split per shard, probed against one snapshot per shard, and
//     scattered back aligned with the input;
//   * per-shard accounting — with no executor, a call's probes run as one
//     wave over every shard, and each shard's counters still read exactly
//     what that shard's own multi_get would have added;
//   * single-snapshot reads under churn — a reader's per-shard probe must
//     never blend two versions: with a writer atomically flip-flopping an
//     invariant-carrying key pair on each of two shards, every multi_get
//     observes consistent pairs (the TSan target: with an executor, so
//     probes ride read tasks, and without, so one wave holds both shards'
//     pins and interleaves their tails).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "store/executor.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using MA = alloc::MallocAlloc;
using Smr = reclaim::EpochReclaimer;
using Treap = persist::Treap<std::int64_t, std::int64_t>;
using Avl = persist::AvlTree<std::int64_t, std::int64_t>;
using Btree = persist::BTree<std::int64_t, std::int64_t, 8>;
using Ebst = persist::ExternalBst<std::int64_t, std::int64_t>;

// The two UC backends write differently (update lambda vs announced
// slot op); hide that behind one insert helper so the oracle body is
// backend-agnostic.
template <class Uc>
unsigned maybe_slot(Uc& uc) {
  if constexpr (requires { uc.register_slot(); }) {
    return uc.register_slot();
  } else {
    return 0;
  }
}

template <class Uc>
void uc_insert(Uc& uc, typename Uc::Ctx& ctx, unsigned slot, std::int64_t k,
               std::int64_t v) {
  if constexpr (requires { uc.insert(ctx, slot, k, v); }) {
    uc.insert(ctx, slot, k, v);
  } else {
    uc.update(ctx, [k, v](auto t, auto& b) { return t.insert(b, k, v); });
  }
}

/// The UC-level oracle: populate, then batch-probe mixed present/absent
/// key sets and hold every answer to the per-key read while asserting
/// the read-only discipline (no allocation, no install, no version bump).
template <class Uc>
void multiget_uc_oracle(Uc& uc, typename Uc::Ctx& ctx, MA& a,
                        std::uint64_t seed, test::BatchKeyPattern pattern) {
  util::Xoshiro256 rng(seed);
  const unsigned slot = maybe_slot(uc);
  std::map<std::int64_t, std::int64_t> oracle;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t k = rng.range(0, 1200);
    uc_insert(uc, ctx, slot, k, k * 9);
    oracle.emplace(k, k * 9);  // insert does not overwrite
  }

  const std::int64_t hot = rng.range(0, 1100);
  const auto gen_key = [&]() -> std::int64_t {
    if (pattern == test::BatchKeyPattern::kClustered) {
      return hot + rng.range(0, 80);
    }
    return rng.range(-50, 1400);  // absent keys on both flanks
  };

  const std::uint64_t reads_before = ctx.stats.reads;
  std::uint64_t probed = 0;
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    std::set<std::int64_t> used;
    const int batch = 1 + static_cast<int>(rng.range(0, 64));
    for (int i = 0; i < batch; ++i) used.insert(gen_key());
    const std::vector<std::int64_t> keys(used.begin(), used.end());
    std::vector<typename Uc::ReadOutcome> out(keys.size());

    const auto version_before = uc.version();
    const std::uint64_t allocs_before = a.stats().allocs.load();
    const std::uint64_t updates_before = ctx.stats.updates;
    const persist::ReadProbeStats st = uc.multi_get(
        ctx, std::span<const std::int64_t>(keys),
        std::span<typename Uc::ReadOutcome>(out));
    // Read-only: the pinned root is the whole story.
    ASSERT_EQ(uc.version(), version_before) << "round " << round;
    ASSERT_EQ(a.stats().allocs.load(), allocs_before)
        << "multi_get allocated, round " << round;
    ASSERT_EQ(ctx.stats.updates, updates_before)
        << "multi_get installed, round " << round;
    ASSERT_GE(st.per_key_nodes, st.nodes_visited);

    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it = oracle.find(keys[i]);
      ASSERT_EQ(out[i].present(), it != oracle.end())
          << "round " << round << " key " << keys[i];
      if (it != oracle.end()) {
        ASSERT_EQ(*out[i].value, it->second)
            << "round " << round << " key " << keys[i];
      }
    }
    probed += keys.size();
  }
  // Counter contract: every probe key counted as a read, every sweep as
  // one read batch.
  EXPECT_EQ(ctx.stats.reads - reads_before, probed);
  EXPECT_EQ(ctx.stats.read_batches, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(ctx.stats.batched_reads, probed);
}

template <class DS>
void run_atom_oracle(std::uint64_t seed, test::BatchKeyPattern pattern) {
  MA a;
  {
    Smr smr;
    core::Atom<DS, Smr, MA> uc(smr, *a.retire_backend());
    typename core::Atom<DS, Smr, MA>::Ctx ctx(smr, a);
    multiget_uc_oracle(uc, ctx, a, seed, pattern);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

template <class DS>
void run_combining_oracle(std::uint64_t seed, test::BatchKeyPattern pattern) {
  MA a;
  {
    Smr smr;
    core::CombiningAtom<DS, Smr, MA> uc(smr, a);
    typename core::CombiningAtom<DS, Smr, MA>::Ctx ctx(smr, a);
    multiget_uc_oracle(uc, ctx, a, seed, pattern);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MultiGetAtom, TreapOracle) {
  run_atom_oracle<Treap>(901, test::BatchKeyPattern::kUniform);
  run_atom_oracle<Treap>(902, test::BatchKeyPattern::kClustered);
}
TEST(MultiGetAtom, AvlOracle) {
  run_atom_oracle<Avl>(903, test::BatchKeyPattern::kUniform);
  run_atom_oracle<Avl>(904, test::BatchKeyPattern::kClustered);
}
TEST(MultiGetAtom, BtreeOracle) {
  run_atom_oracle<Btree>(905, test::BatchKeyPattern::kUniform);
  run_atom_oracle<Btree>(906, test::BatchKeyPattern::kClustered);
}
// External BST has no get_sorted_batch: the concept-gated per-key
// fallback must hold the same contract (still one pin, still no writes).
TEST(MultiGetAtom, ExternalBstFallbackOracle) {
  run_atom_oracle<Ebst>(907, test::BatchKeyPattern::kUniform);
}

TEST(MultiGetCombining, TreapOracle) {
  run_combining_oracle<Treap>(911, test::BatchKeyPattern::kUniform);
  run_combining_oracle<Treap>(912, test::BatchKeyPattern::kClustered);
}
TEST(MultiGetCombining, AvlOracle) {
  run_combining_oracle<Avl>(913, test::BatchKeyPattern::kUniform);
}
TEST(MultiGetCombining, BtreeOracle) {
  run_combining_oracle<Btree>(914, test::BatchKeyPattern::kClustered);
}
TEST(MultiGetCombining, ExternalBstFallbackOracle) {
  run_combining_oracle<Ebst>(915, test::BatchKeyPattern::kUniform);
}

// ----- store layer -----

using TabR = store::TabletRouter<std::int64_t>;
template <class Uc>
using Map = store::ShardedMap<Uc, TabR>;
using PlainUc = core::Atom<Treap, Smr, MA>;
using CombUc = core::CombiningAtom<Treap, Smr, MA>;

template <class Uc>
auto shared_alloc_factory(MA& a) {
  return [&a]() -> MA& { return a; };
}

/// Session::multi_get vs per-key find: unsorted client keys WITH
/// duplicates and absent keys, split across 4 shards — probed on this
/// thread, or as read tasks on the shard lanes when `with_executor`.
template <class Uc>
void session_multiget_oracle(std::uint64_t seed, bool with_executor) {
  MA a;
  {
    Map<Uc> map(4, a, TabR::uniform(0, 1024, 4));
    std::optional<store::ShardExecutor<Uc>> exec;
    if (with_executor) exec.emplace(map, shared_alloc_factory<Uc>(a));
    typename Map<Uc>::Session s(map, a);
    util::Xoshiro256 rng(seed);
    std::map<std::int64_t, std::int64_t> oracle;
    for (int i = 0; i < 500; ++i) {
      const std::int64_t k = rng.range(0, 1024);
      if (s.insert(k, k * 5)) oracle.emplace(k, k * 5);
    }
    for (int round = 0; round < 20; ++round) {
      std::vector<std::int64_t> keys;
      const int batch = 1 + static_cast<int>(rng.range(0, 48));
      for (int i = 0; i < batch; ++i) keys.push_back(rng.range(0, 1100));
      // Force duplicates: repeat a prefix, unsorted order preserved.
      for (int i = 0; i < batch / 3; ++i) keys.push_back(keys[i]);
      std::vector<typename Map<Uc>::ReadOutcome> out(keys.size());
      s.multi_get(std::span<const std::int64_t>(keys),
                  std::span<typename Map<Uc>::ReadOutcome>(out));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto it = oracle.find(keys[i]);
        ASSERT_EQ(out[i].present(), it != oracle.end())
            << "round " << round << " slot " << i << " key " << keys[i];
        if (it != oracle.end()) {
          ASSERT_EQ(*out[i].value, it->second);
        }
      }
    }
    // Bounded global scan: a true prefix of the ordered range.
    std::vector<std::pair<std::int64_t, std::int64_t>> want(oracle.begin(),
                                                            oracle.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    const std::size_t n = s.scan(0, 2048, 17, got);
    ASSERT_EQ(n, std::min<std::size_t>(17, want.size()));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]);
    got.clear();
    ASSERT_EQ(s.scan(0, 2048, want.size() + 10, got), want.size());
    ASSERT_EQ(got, want);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MultiGetSession, SplitsScattersAndScans) {
  for (const bool with_executor : {false, true}) {
    SCOPED_TRACE(with_executor ? "executor attached" : "no executor");
    session_multiget_oracle<PlainUc>(921, with_executor);
    session_multiget_oracle<CombUc>(922, with_executor);
  }
}

/// With no executor a Session::multi_get is one probe wave over every
/// shard, its single-key tails parked in one shared buffer. Each shard's
/// counters must still read exactly what that shard's own uc.multi_get,
/// over the same probe list, adds to a fresh ctx: the same reads, batch
/// counts, batch-size histogram and probe node counts. A wave that
/// credited parked tails to the wrong shard's stats would keep the
/// whole-store sums and fail here. The B+tree (in-place sweep) and the
/// external BST (per-key fallback) cover the structures without the park
/// step.
template <class Uc>
void wave_accounts_each_shard_exactly(std::uint64_t seed) {
  using Outcome = typename Map<Uc>::ReadOutcome;
  MA a;
  {
    Map<Uc> map(4, a, TabR::uniform(0, 1024, 4));
    typename Map<Uc>::Session s(map, a);
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 600; ++i) {
      const std::int64_t k = rng.range(0, 1024);
      s.insert(k, k * 3);
    }
    for (int round = 0; round < 10; ++round) {
      // Unsorted, with duplicates and absent keys.
      std::vector<std::int64_t> keys;
      for (int i = 0; i < 64; ++i) keys.push_back(rng.range(0, 1100));
      for (int i = 0; i < 8; ++i) keys.push_back(keys[i]);
      std::vector<core::OpStats> before;
      for (std::size_t sh = 0; sh < 4; ++sh) {
        before.push_back(s.shard_stats(sh));
      }
      std::vector<Outcome> out(keys.size());
      s.multi_get(std::span<const std::int64_t>(keys),
                  std::span<Outcome>(out));
      std::vector<std::set<std::int64_t>> lists(4);
      for (const std::int64_t k : keys) lists[map.shard_of(k)].insert(k);
      for (std::size_t sh = 0; sh < 4; ++sh) {
        SCOPED_TRACE(testing::Message()
                     << "round " << round << " shard " << sh);
        ASSERT_FALSE(lists[sh].empty());
        const std::vector<std::int64_t> probe(lists[sh].begin(),
                                              lists[sh].end());
        std::vector<Outcome> own(probe.size());
        typename Uc::Ctx ctx(map.shard(sh).reclaimer(), a);
        map.shard(sh).multi_get(ctx, std::span<const std::int64_t>(probe),
                                std::span<Outcome>(own));
        const core::OpStats& got = s.shard_stats(sh);
        const core::OpStats& want = ctx.stats;
        EXPECT_EQ(got.reads - before[sh].reads, want.reads);
        EXPECT_EQ(got.read_batches - before[sh].read_batches,
                  want.read_batches);
        EXPECT_EQ(got.batched_reads - before[sh].batched_reads,
                  want.batched_reads);
        EXPECT_EQ(got.probe_nodes_visited - before[sh].probe_nodes_visited,
                  want.probe_nodes_visited);
        EXPECT_EQ(got.probe_nodes_saved - before[sh].probe_nodes_saved,
                  want.probe_nodes_saved);
        for (std::size_t b = 0; b < want.read_batch_hist.size(); ++b) {
          EXPECT_EQ(got.read_batch_hist[b] - before[sh].read_batch_hist[b],
                    want.read_batch_hist[b])
              << "bucket " << b;
        }
      }
    }
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MultiGetSession, WaveAccountsEachShardExactly) {
  wave_accounts_each_shard_exactly<PlainUc>(931);
  wave_accounts_each_shard_exactly<CombUc>(932);
  wave_accounts_each_shard_exactly<core::CombiningAtom<Btree, Smr, MA>>(933);
  wave_accounts_each_shard_exactly<core::Atom<Ebst, Smr, MA>>(934);
}

/// The single-snapshot property under churn (the TSan target), with an
/// executor attached, so probes ride the shard lanes as read tasks, and
/// without one, so every multi_get is one calling-thread wave that pins
/// both shards and interleaves their tails in one buffer.
///
/// A writer flip-flops one invariant-carrying key pair on each of two
/// shards: each flip atomically erases a shard's live pair and installs
/// the other with values summing to kSum, one batch per shard (a
/// key-unique batch on one shard is one install). Any multi_get that
/// blended two versions of a shard would see a half-present pair or a
/// sum from two rounds.
template <class Uc>
void single_snapshot_under_churn(bool with_executor) {
  // Per shard: pair A = {keys[0], keys[1]}, pair B = {keys[2], keys[3]}.
  // Shard 0 holds [0, 256), shard 1 [256, 512).
  constexpr std::int64_t kPairs[2][4] = {{10, 20, 30, 40},
                                         {300, 310, 320, 330}};
  constexpr std::int64_t kSum = 100000;
  MA a;
  {
    Map<Uc> map(4, a, TabR::uniform(0, 1024, 4));
    std::optional<store::ShardExecutor<Uc>> exec;
    if (with_executor) exec.emplace(map, shared_alloc_factory<Uc>(a));
    using Req = typename Uc::BatchRequest;
    using K = typename Uc::OpKind;
    {
      typename Map<Uc>::Session s(map, a);
      for (const auto& p : kPairs) {
        const Req seed[] = {Req{K::kInsert, p[0], 0},
                            Req{K::kInsert, p[1], kSum}};
        bool r[2];
        s.execute_batch(std::span<const Req>(seed, 2), r);
      }
    }
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      typename Map<Uc>::Session s(map, a);
      typename Uc::Ctx ctxs[2] = {{map.shard(0).reclaimer(), a},
                                  {map.shard(1).reclaimer(), a}};
      bool a_live[2] = {true, true};
      std::int64_t x = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t sh = 0; sh < 2; ++sh) {
          const std::int64_t* p = kPairs[sh];
          x = (x + 7919) % kSum;
          const std::size_t dead = a_live[sh] ? 0 : 2;
          const std::size_t live = a_live[sh] ? 2 : 0;
          a_live[sh] = !a_live[sh];
          const Req flip[] = {Req{K::kErase, p[dead], std::nullopt},
                              Req{K::kErase, p[dead + 1], std::nullopt},
                              Req{K::kInsert, p[live], x},
                              Req{K::kInsert, p[live + 1], kSum - x}};
          if constexpr (std::is_same_v<Uc, PlainUc>) {
            if (!with_executor) {
              // The plain Atom's execute_batch installs op by op; only a
              // lane, which runs the batch task whole between read tasks,
              // makes it atomic to probes. Without one, flip in one update.
              map.shard(sh).update(ctxs[sh], [&](Treap t, auto& b) {
                for (const Req& r : flip) {
                  t = r.kind == K::kErase ? t.erase(b, r.key)
                                          : t.insert(b, r.key, *r.value);
                }
                return t;
              });
              continue;
            }
          }
          bool r[4];
          s.execute_batch(std::span<const Req>(flip, 4), r);
        }
      }
    });
    std::vector<std::thread> readers;
    std::atomic<int> violations{0};
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        typename Map<Uc>::Session s(map, a);
        // Unsorted across the two shards; the split sorts each shard's.
        const std::int64_t keys[] = {330, 10, 310, 20, 300, 30, 320, 40};
        for (int i = 0; i < 1500; ++i) {
          typename Map<Uc>::ReadOutcome out[8];
          s.multi_get(std::span<const std::int64_t>(keys, 8),
                      std::span<typename Map<Uc>::ReadOutcome>(out, 8));
          const auto answer = [&](std::int64_t k) -> const auto& {
            return out[std::find(keys, keys + 8, k) - keys];
          };
          for (const auto& p : kPairs) {
            const auto &a1 = answer(p[0]), &a2 = answer(p[1]);
            const auto &b1 = answer(p[2]), &b2 = answer(p[3]);
            // Pairs flip atomically: never half-present, never both or
            // neither live, and the live pair's values are one round's.
            if (a2.present() != a1.present() || b2.present() != b1.present() ||
                a1.present() == b1.present()) {
              violations.fetch_add(1);
              continue;
            }
            const std::int64_t sum = a1.present() ? *a1.value + *a2.value
                                                  : *b1.value + *b2.value;
            if (sum != kSum) violations.fetch_add(1);
          }
        }
      });
    }
    for (auto& r : readers) r.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(violations.load(), 0) << "a multi_get blended two versions";
    if (exec) exec->stop();
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MultiGetConcurrent, SingleSnapshotUnderChurnAtom) {
  for (const bool with_executor : {true, false}) {
    SCOPED_TRACE(with_executor ? "executor attached" : "no executor");
    single_snapshot_under_churn<PlainUc>(with_executor);
  }
}
TEST(MultiGetConcurrent, SingleSnapshotUnderChurnCombining) {
  for (const bool with_executor : {true, false}) {
    SCOPED_TRACE(with_executor ? "executor attached" : "no executor");
    single_snapshot_under_churn<CombUc>(with_executor);
  }
}

}  // namespace
}  // namespace pathcopy
