// CombiningAtom (lock-free, PSim-style) and FlatCombining (lock-based)
// semantics and accounting, single-threaded and under real contention.
//
// The strongest check here is exactly-once application: every announced
// operation must be absorbed by exactly one installed version, so the sum
// of combined_ops across threads equals the total operation count, and
// per-key "net effect" counters must reconcile with the final contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/combining.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/watermark.hpp"
#include "seq/flat_combining.hpp"
#include "seq/seq_treap.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using FC = seq::FlatCombining<seq::SeqTreap<std::int64_t, std::int64_t>>;

template <class Smr>
class CombiningTyped : public ::testing::Test {};

using Reclaimers =
    ::testing::Types<reclaim::EpochReclaimer, reclaim::WatermarkReclaimer,
                     reclaim::HazardRootReclaimer>;
TYPED_TEST_SUITE(CombiningTyped, Reclaimers);

TYPED_TEST(CombiningTyped, SingleThreadSemantics) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    const unsigned slot = atom.register_slot();

    EXPECT_TRUE(atom.insert(ctx, slot, 1, 10));
    EXPECT_TRUE(atom.insert(ctx, slot, 2, 20));
    EXPECT_FALSE(atom.insert(ctx, slot, 1, 99));  // duplicate
    EXPECT_TRUE(atom.read(ctx, [](T t) {
      return t.contains(1) && t.contains(2) && *t.find(1) == 10;
    }));
    EXPECT_TRUE(atom.erase(ctx, slot, 1));
    EXPECT_FALSE(atom.erase(ctx, slot, 1));  // already gone
    EXPECT_FALSE(atom.erase(ctx, slot, 7));  // never present
    EXPECT_EQ(atom.size(ctx), 1u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CombiningTyped, VersionAdvancesPerInstall) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    const unsigned slot = atom.register_slot();
    EXPECT_EQ(atom.version(), 1u);
    atom.insert(ctx, slot, 1, 1);
    EXPECT_EQ(atom.version(), 2u);
    // Unlike the plain Atom, a semantic no-op still installs a version —
    // the response must be published through the VersionRec.
    atom.insert(ctx, slot, 1, 1);
    EXPECT_EQ(atom.version(), 3u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CombiningTyped, ResultsMatchOracle) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    const unsigned slot = atom.register_slot();
    std::set<std::int64_t> oracle;
    util::Xoshiro256 rng(7);
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t k = rng.range(-40, 40);
      if (rng.chance(1, 2)) {
        ASSERT_EQ(atom.insert(ctx, slot, k, k), oracle.insert(k).second);
      } else {
        ASSERT_EQ(atom.erase(ctx, slot, k), oracle.erase(k) > 0);
      }
    }
    ASSERT_EQ(atom.size(ctx), oracle.size());
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CombiningTyped, DisjointInsertsAllLandExactlyOnce) {
  alloc::MallocAlloc a;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 1200;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> combined{0}, own_installs{0}, helped{0};
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx
            ctx(smr, a);
        const unsigned slot = atom.register_slot();
        for (std::int64_t i = 0; i < kPerThread; ++i) {
          const std::int64_t key = w * kPerThread + i;
          ASSERT_TRUE(atom.insert(ctx, slot, key, key));
        }
        // Every op completes exactly one way.
        ASSERT_EQ(ctx.stats.updates + ctx.stats.helped_completions,
                  static_cast<std::uint64_t>(kPerThread));
        combined += ctx.stats.combined_ops;
        own_installs += ctx.stats.updates;
        helped += ctx.stats.helped_completions;
      });
    }
    for (auto& w : workers) w.join();
    // Exactly-once application: the batches of all installed versions
    // partition the full operation set.
    EXPECT_EQ(combined.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(own_installs.load() + helped.load(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);

    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    EXPECT_EQ(atom.size(ctx), static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(CombiningTyped, ContendedNetEffectReconciles) {
  alloc::MallocAlloc a;
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    std::array<std::atomic<std::int64_t>, kKeys> net{};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx
            ctx(smr, a);
        const unsigned slot = atom.register_slot();
        util::Xoshiro256 rng(w + 11);
        for (int i = 0; i < 2500; ++i) {
          const std::int64_t k = rng.range(0, kKeys - 1);
          if (rng.chance(1, 2)) {
            if (atom.insert(ctx, slot, k, k)) net[k].fetch_add(1);
          } else {
            if (atom.erase(ctx, slot, k)) net[k].fetch_sub(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    for (int k = 0; k < kKeys; ++k) {
      const std::int64_t n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      const bool present =
          atom.read(ctx, [k](T t) { return t.contains(k); });
      ASSERT_EQ(present, n == 1) << "key " << k;
    }
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- sorted-batch fast path -----

using EpochCA = core::CombiningAtom<T, reclaim::EpochReclaimer,
                                    alloc::MallocAlloc>;

// Same-key collisions: a chain of ops on one key inside one batch must
// respond exactly as if applied in order, with the later op deciding the
// final structural state (the "later slot wins" collapse). Checked
// deterministically through execute_batch in both modes.
TEST(CombiningBatch, SameKeyChainsCollapseCorrectly) {
  for (const bool batched : {false, true}) {
    alloc::MallocAlloc a;
    {
      reclaim::EpochReclaimer smr;
      EpochCA atom(smr, a);
      atom.set_batch_apply(batched);
      EpochCA::Ctx ctx(smr, a);
      using Req = EpochCA::BatchRequest;
      using K = EpochCA::OpKind;

      // Key 7 absent: insert v1 lands, erase removes, insert v2 lands,
      // insert v3 no-ops. Keys 1/2 pad the batch over the fast-path
      // threshold. Expected results follow per-op order semantics.
      const std::vector<Req> reqs{
          {K::kInsert, 1, 10},      {K::kInsert, 7, 71},
          {K::kErase, 7, std::nullopt}, {K::kInsert, 7, 72},
          {K::kInsert, 7, 73},      {K::kInsert, 2, 20},
      };
      std::vector<bool> expected{true, true, true, true, false, true};
      bool results[8] = {};
      atom.execute_batch(ctx, reqs, std::span<bool>(results, reqs.size()));
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(results[i], expected[i])
            << "batched=" << batched << " op " << i;
      }
      EXPECT_TRUE(atom.read(ctx, [](T t) {
        return t.size() == 3 && *t.find(7) == 72 && t.check_invariants();
      }));
      EXPECT_EQ(ctx.stats.batched_installs, batched ? 1u : 0u);

      // Chain ending in an erase: key 7 present, [erase, insert v9,
      // erase] leaves it absent; responses trace presence flips.
      const std::vector<Req> reqs2{
          {K::kErase, 7, std::nullopt}, {K::kInsert, 7, 90},
          {K::kErase, 7, std::nullopt}, {K::kErase, 3, std::nullopt},
      };
      std::vector<bool> expected2{true, true, true, false};
      atom.execute_batch(ctx, reqs2, std::span<bool>(results, reqs2.size()));
      for (std::size_t i = 0; i < reqs2.size(); ++i) {
        EXPECT_EQ(results[i], expected2[i])
            << "batched=" << batched << " op " << i;
      }
      EXPECT_TRUE(atom.read(ctx, [](T t) {
        return t.size() == 2 && !t.contains(7);
      }));
    }
    EXPECT_EQ(a.stats().live_blocks(), 0u);
  }
}

// Batch and per-op modes must be observationally identical: same
// responses, same final contents, and — the treap being canonical — the
// same tree for randomized request streams.
TEST(CombiningBatch, BatchMatchesPerOpOnRandomStreams) {
  util::Xoshiro256 rng(99);
  for (int round = 0; round < 20; ++round) {
    alloc::MallocAlloc a1, a2;
    {
      reclaim::EpochReclaimer smr1, smr2;
      EpochCA batched(smr1, a1), per_op(smr2, a2);
      batched.set_batch_apply(true);
      per_op.set_batch_apply(false);
      EpochCA::Ctx c1(smr1, a1), c2(smr2, a2);
      using Req = EpochCA::BatchRequest;
      using K = EpochCA::OpKind;

      const std::int64_t key_range = 1 + static_cast<std::int64_t>(rng.range(0, 60));
      for (int iter = 0; iter < 30; ++iter) {
        const int n = 1 + static_cast<int>(rng.range(0, 24));
        std::vector<Req> reqs;
        for (int i = 0; i < n; ++i) {
          const std::int64_t k = rng.range(0, key_range);
          if (rng.chance(1, 2)) {
            reqs.push_back(Req{K::kInsert, k, k + 1000 * iter + i});
          } else {
            reqs.push_back(Req{K::kErase, k, std::nullopt});
          }
        }
        bool buf1[32], buf2[32];
        batched.execute_batch(c1, reqs, std::span<bool>(buf1, n));
        per_op.execute_batch(c2, reqs, std::span<bool>(buf2, n));
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(buf1[i], buf2[i]) << "round " << round << " op " << i;
        }
      }
      const auto items1 = batched.read(c1, [](T t) { return t.items(); });
      const auto items2 = per_op.read(c2, [](T t) { return t.items(); });
      ASSERT_EQ(items1, items2) << "round " << round;
      ASSERT_TRUE(batched.read(c1, [](T t) { return t.check_invariants(); }));
      ASSERT_GT(c1.stats.batched_installs, 0u);
      ASSERT_EQ(c2.stats.batched_installs, 0u);
    }
    EXPECT_EQ(a1.stats().live_blocks(), 0u);
    EXPECT_EQ(a2.stats().live_blocks(), 0u);
  }
}

// A request stream longer than the slot count (MaxThreads = 32) is one
// install when nothing contends: 150 unsorted requests over 64 keys, with
// same-key chains, land in one CAS, and every per-op result matches
// applying the stream in order to a std::map.
TEST(CombiningBatch, LongRequestStreamIsOneInstall) {
  alloc::MallocAlloc a;
  {
    reclaim::EpochReclaimer smr;
    EpochCA atom(smr, a);
    EpochCA::Ctx ctx(smr, a);
    using Req = EpochCA::BatchRequest;
    using K = EpochCA::OpKind;
    util::Xoshiro256 rng(150);
    std::vector<Req> reqs;
    for (std::int64_t i = 0; i < 150; ++i) {
      const std::int64_t k = rng.range(0, 63);
      if (rng.chance(2, 3)) {
        reqs.push_back(Req{K::kInsert, k, k * 3 + i});
      } else {
        reqs.push_back(Req{K::kErase, k, std::nullopt});
      }
    }
    auto out = std::make_unique<bool[]>(reqs.size());
    atom.execute_batch(ctx, reqs, std::span<bool>(out.get(), reqs.size()));
    std::map<std::int64_t, std::int64_t> oracle;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const bool want = reqs[i].kind == K::kInsert
                            ? oracle.emplace(reqs[i].key, *reqs[i].value).second
                            : oracle.erase(reqs[i].key) == 1;
      EXPECT_EQ(out[i], want) << "op " << i;
    }
    EXPECT_EQ(ctx.stats.attempts, 1u);
    EXPECT_EQ(ctx.stats.updates, 1u);
    EXPECT_EQ(ctx.stats.batched_installs, 1u);
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.items(); }),
              (std::vector<std::pair<std::int64_t, std::int64_t>>(
                  oracle.begin(), oracle.end())));
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// Per-op result correctness under concurrent combiners with the batch
// path hot: a tiny key range plus the gather window forces same-key
// chains inside real gathered batches; net-effect must still reconcile
// with the final contents, and every op must complete exactly once.
TYPED_TEST(CombiningTyped, BatchedContendedNetEffectReconciles) {
  alloc::MallocAlloc a;
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  {
    TypeParam smr;
    core::CombiningAtom<T, TypeParam, alloc::MallocAlloc> atom(smr, a);
    atom.set_gather_window(true);
    std::array<std::atomic<std::int64_t>, kKeys> net{};
    std::atomic<std::uint64_t> total_ops{0}, completions{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx
            ctx(smr, a);
        const unsigned slot = atom.register_slot();
        util::Xoshiro256 rng(w + 77);
        for (int i = 0; i < 3000; ++i) {
          const std::int64_t k = rng.range(0, kKeys - 1);
          if (rng.chance(1, 2)) {
            if (atom.insert(ctx, slot, k, k)) net[k].fetch_add(1);
          } else {
            if (atom.erase(ctx, slot, k)) net[k].fetch_sub(1);
          }
        }
        total_ops += 3000;
        completions += ctx.stats.updates + ctx.stats.helped_completions;
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(completions.load(), total_ops.load());
    typename core::CombiningAtom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(
        smr, a);
    for (int k = 0; k < kKeys; ++k) {
      const std::int64_t n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      const bool present = atom.read(ctx, [k](T t) { return t.contains(k); });
      ASSERT_EQ(present, n == 1) << "key " << k;
    }
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- sorted-batch matrix: every map structure through the combiner -----
//
// The sorted-batch fast path is auto-detected per structure; since the
// E8 port, every map-shaped structure models SupportsSortedBatch, and the
// whole matrix must behave identically through the combining UC: batched
// and per-op modes agree on responses and contents for randomized
// request streams, and contended multi-thread runs reconcile per-key.

template <class DS>
class CombiningMatrix : public ::testing::Test {};

using MapStructures =
    ::testing::Types<persist::Treap<std::int64_t, std::int64_t>,
                     persist::AvlTree<std::int64_t, std::int64_t>,
                     persist::BTree<std::int64_t, std::int64_t, 8>,
                     persist::RbTree<std::int64_t, std::int64_t>,
                     persist::WbTree<std::int64_t, std::int64_t>,
                     persist::ExternalBst<std::int64_t, std::int64_t>>;
TYPED_TEST_SUITE(CombiningMatrix, MapStructures);

static_assert(core::SupportsSortedBatch<
              persist::Treap<std::int64_t, std::int64_t>,
              core::Builder<alloc::MallocAlloc>>);
static_assert(core::SupportsSortedBatch<
              persist::AvlTree<std::int64_t, std::int64_t>,
              core::Builder<alloc::MallocAlloc>>);
static_assert(core::SupportsSortedBatch<
              persist::BTree<std::int64_t, std::int64_t, 8>,
              core::Builder<alloc::MallocAlloc>>);
static_assert(core::SupportsSortedBatch<
              persist::RbTree<std::int64_t, std::int64_t>,
              core::Builder<alloc::MallocAlloc>>);
static_assert(core::SupportsSortedBatch<
              persist::WbTree<std::int64_t, std::int64_t>,
              core::Builder<alloc::MallocAlloc>>);
static_assert(core::SupportsSortedBatch<
              persist::ExternalBst<std::int64_t, std::int64_t>,
              core::Builder<alloc::MallocAlloc>>);

TYPED_TEST(CombiningMatrix, BatchMatchesPerOpOnRandomStreams) {
  using DS = TypeParam;
  using CA = core::CombiningAtom<DS, reclaim::EpochReclaimer,
                                 alloc::MallocAlloc>;
  util::Xoshiro256 rng(55);
  for (int round = 0; round < 6; ++round) {
    alloc::MallocAlloc a1, a2;
    {
      reclaim::EpochReclaimer smr1, smr2;
      CA batched(smr1, a1), per_op(smr2, a2);
      batched.set_batch_apply(true);
      per_op.set_batch_apply(false);
      typename CA::Ctx c1(smr1, a1), c2(smr2, a2);
      using Req = typename CA::BatchRequest;
      using K = typename CA::OpKind;

      const std::int64_t key_range =
          1 + static_cast<std::int64_t>(rng.range(0, 60));
      for (int iter = 0; iter < 30; ++iter) {
        const int n = 1 + static_cast<int>(rng.range(0, 24));
        std::vector<Req> reqs;
        for (int i = 0; i < n; ++i) {
          const std::int64_t k = rng.range(0, key_range);
          if (rng.chance(1, 2)) {
            reqs.push_back(Req{K::kInsert, k, k + 1000 * iter + i});
          } else {
            reqs.push_back(Req{K::kErase, k, std::nullopt});
          }
        }
        bool buf1[32], buf2[32];
        batched.execute_batch(c1, reqs, std::span<bool>(buf1, n));
        per_op.execute_batch(c2, reqs, std::span<bool>(buf2, n));
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(buf1[i], buf2[i]) << "round " << round << " op " << i;
        }
      }
      const auto items1 = batched.read(c1, [](DS t) { return t.items(); });
      const auto items2 = per_op.read(c2, [](DS t) { return t.items(); });
      ASSERT_EQ(items1, items2) << "round " << round;
      ASSERT_TRUE(
          batched.read(c1, [](DS t) { return t.check_invariants(); }));
      ASSERT_GT(c1.stats.batched_installs, 0u);
      ASSERT_EQ(c2.stats.batched_installs, 0u);
    }
    EXPECT_EQ(a1.stats().live_blocks(), 0u);
    EXPECT_EQ(a2.stats().live_blocks(), 0u);
  }
}

// Long unsorted runs, the shape of an executor lane's coalesced tickets,
// against a twin whose installs apply every op in turn (batch apply
// off): dense runs build long same-key chains, sparse runs are the
// unclustered batches the fanout gate of the wide structures (BTree<8>,
// RbTree) declines. Every run must be one install whether the gate
// accepts it or not: a declined run takes the per-op loop inside that
// same install, under the one pin. Then a migration-sized batch of
// fresh keys and of their erases must land every op.
TYPED_TEST(CombiningMatrix, LongRunsMatchPerOpTwinInOneInstall) {
  using DS = TypeParam;
  using CA = core::CombiningAtom<DS, reclaim::EpochReclaimer,
                                 alloc::MallocAlloc>;
  using Req = typename CA::BatchRequest;
  using K = typename CA::OpKind;
  alloc::MallocAlloc a1, a2;
  {
    reclaim::EpochReclaimer smr1, smr2;
    CA batched(smr1, a1), twin(smr2, a2);
    twin.set_batch_apply(false);
    typename CA::Ctx c1(smr1, a1), c2(smr2, a2);
    util::Xoshiro256 rng(2718);
    std::uint64_t long_runs = 0;
    for (int run = 0; run < 120; ++run) {
      const bool dense = run % 2 == 0;
      const std::int64_t key_range = dense ? 63 : 1000000;
      const int n = 1 + static_cast<int>(rng.range(0, 299));
      std::vector<Req> reqs;
      for (int i = 0; i < n; ++i) {
        const std::int64_t k = rng.range(0, key_range);
        if (rng.chance(2, 3)) {
          reqs.push_back(Req{K::kInsert, k, k * 7 + run});
        } else {
          reqs.push_back(Req{K::kErase, k, std::nullopt});
        }
      }
      auto out1 = std::make_unique<bool[]>(n);
      auto out2 = std::make_unique<bool[]>(n);
      const std::uint64_t v_before = batched.version();
      const std::uint64_t twin_before = twin.version();
      batched.execute_batch(c1, reqs, std::span<bool>(out1.get(), n));
      twin.execute_batch(c2, reqs, std::span<bool>(out2.get(), n));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(out1[i], out2[i]) << "run " << run << " op " << i;
      }
      ASSERT_EQ(batched.version(), v_before + 1)
          << "run " << run << " of " << n << " ops took several installs";
      ASSERT_EQ(twin.version(), twin_before + 1) << "run " << run;
      if (n > 32) ++long_runs;
    }
    ASSERT_GT(long_runs, 0u);
    if constexpr (core::ReportsBatchFanout<DS>) {
      EXPECT_GT(c1.stats.batch_declines, 0u) << "no run reached the gate";
    }
    ASSERT_EQ(batched.read(c1, [](DS t) { return t.items(); }),
              twin.read(c2, [](DS t) { return t.items(); }));
    ASSERT_TRUE(batched.read(c1, [](DS t) { return t.check_invariants(); }));

    // A migration-sized batch: 5000 key-sorted, key-unique inserts above
    // every key used so far, then their erases. Each op lands.
    constexpr std::size_t kBulk = 5000;
    std::vector<Req> ins, ers;
    for (std::size_t i = 0; i < kBulk; ++i) {
      const std::int64_t k = 2000000 + 3 * static_cast<std::int64_t>(i);
      ins.push_back(Req{K::kInsert, k, k});
      ers.push_back(Req{K::kErase, k, std::nullopt});
    }
    auto out = std::make_unique<bool[]>(kBulk);
    for (const auto* reqs : {&ins, &ers}) {
      const std::span<bool> res(out.get(), kBulk);
      std::fill(res.begin(), res.end(), false);
      batched.execute_batch(c1, *reqs, res);
      for (std::size_t i = 0; i < kBulk; ++i) {
        ASSERT_TRUE(out[i]) << "bulk op " << i << " did not land";
      }
    }
    ASSERT_EQ(batched.read(c1, [](DS t) { return t.items(); }),
              twin.read(c2, [](DS t) { return t.items(); }));
  }
  EXPECT_EQ(a1.stats().live_blocks(), 0u);
  EXPECT_EQ(a2.stats().live_blocks(), 0u);
}

// Contended 4-thread net-effect run with the batch path hot (gather
// window on, tiny key range): per-key presence must reconcile with the
// net of successful inserts/erases, every op completes exactly once, and
// the final structure passes its own invariant audit — for every
// structure in the matrix.
TYPED_TEST(CombiningMatrix, ContendedNetEffectReconcilesBatched) {
  using DS = TypeParam;
  alloc::MallocAlloc a;
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  {
    reclaim::EpochReclaimer smr;
    core::CombiningAtom<DS, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, a);
    atom.set_gather_window(true);
    std::array<std::atomic<std::int64_t>, kKeys> net{};
    std::atomic<std::uint64_t> total_ops{0}, completions{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        typename core::CombiningAtom<DS, reclaim::EpochReclaimer,
                                     alloc::MallocAlloc>::Ctx ctx(smr, a);
        const unsigned slot = atom.register_slot();
        util::Xoshiro256 rng(w + 177);
        for (int i = 0; i < 2000; ++i) {
          const std::int64_t k = rng.range(0, kKeys - 1);
          if (rng.chance(1, 2)) {
            if (atom.insert(ctx, slot, k, k)) net[k].fetch_add(1);
          } else {
            if (atom.erase(ctx, slot, k)) net[k].fetch_sub(1);
          }
        }
        total_ops += 2000;
        completions += ctx.stats.updates + ctx.stats.helped_completions;
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(completions.load(), total_ops.load());
    typename core::CombiningAtom<DS, reclaim::EpochReclaimer,
                                 alloc::MallocAlloc>::Ctx ctx(smr, a);
    for (int k = 0; k < kKeys; ++k) {
      const std::int64_t n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      const bool present = atom.read(ctx, [k](DS t) { return t.contains(k); });
      ASSERT_EQ(present, n == 1) << "key " << k;
    }
    EXPECT_TRUE(atom.read(ctx, [](DS t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// Value types without a default constructor are announceable: erase
// carries no payload and insert's travels in an optional.
struct Opaque {
  int v;
  explicit Opaque(int x) : v(x) {}
  bool operator==(const Opaque&) const = default;
};

TEST(CombiningBatch, ValueNeedNotBeDefaultConstructible) {
  using OT = persist::Treap<std::int64_t, Opaque>;
  alloc::MallocAlloc a;
  {
    reclaim::EpochReclaimer smr;
    core::CombiningAtom<OT, reclaim::EpochReclaimer, alloc::MallocAlloc>
        atom(smr, a);
    core::CombiningAtom<OT, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx
        ctx(smr, a);
    const unsigned slot = atom.register_slot();
    EXPECT_TRUE(atom.insert(ctx, slot, 1, Opaque{11}));
    EXPECT_FALSE(atom.insert(ctx, slot, 1, Opaque{99}));
    EXPECT_TRUE(atom.erase(ctx, slot, 2) == false);
    EXPECT_TRUE(atom.read(ctx, [](OT t) { return t.find(1)->v == 11; }));
    EXPECT_TRUE(atom.erase(ctx, slot, 1));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(FlatCombining, SingleThreadSemantics) {
  FC fc;
  const unsigned slot = fc.register_slot();
  EXPECT_TRUE(fc.insert(slot, 1, 10));
  EXPECT_TRUE(fc.insert(slot, 2, 20));
  EXPECT_FALSE(fc.insert(slot, 1, 99));
  EXPECT_TRUE(fc.contains(slot, 1));
  EXPECT_FALSE(fc.contains(slot, 9));
  EXPECT_TRUE(fc.erase(slot, 1));
  EXPECT_FALSE(fc.erase(slot, 1));
  EXPECT_EQ(fc.size(slot), 1u);
}

TEST(FlatCombining, DisjointInsertsAllLand) {
  FC fc;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const unsigned slot = fc.register_slot();
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        const std::int64_t key = w * kPerThread + i;
        ASSERT_TRUE(fc.insert(slot, key, key));
      }
    });
  }
  for (auto& w : workers) w.join();
  // Tenures can't exceed operations so far (every counted tenure served
  // at least one op); snapshot before the query phase below adds more.
  const std::uint64_t write_tenures = fc.combiner_tenures();
  EXPECT_GT(write_tenures, 0u);
  EXPECT_LE(write_tenures, static_cast<std::uint64_t>(kThreads) * kPerThread);

  const unsigned slot = fc.register_slot();
  EXPECT_EQ(fc.size(slot), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::int64_t k = 0; k < kThreads * kPerThread; k += 97) {
    EXPECT_TRUE(fc.contains(slot, k));
  }
}

TEST(FlatCombining, ContendedNetEffectReconciles) {
  FC fc;
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  std::array<std::atomic<std::int64_t>, kKeys> net{};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const unsigned slot = fc.register_slot();
      util::Xoshiro256 rng(w + 31);
      for (int i = 0; i < 4000; ++i) {
        const std::int64_t k = rng.range(0, kKeys - 1);
        if (rng.chance(1, 2)) {
          if (fc.insert(slot, k, k)) net[k].fetch_add(1);
        } else {
          if (fc.erase(slot, k)) net[k].fetch_sub(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const unsigned slot = fc.register_slot();
  for (int k = 0; k < kKeys; ++k) {
    const std::int64_t n = net[k].load();
    ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
    ASSERT_EQ(fc.contains(slot, k), n == 1) << "key " << k;
  }
}

}  // namespace
}  // namespace pathcopy
