#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/stats.hpp"
#include "core/universal.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/watermark.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;

// The Atom API is identical across reclaimers; run the semantic tests
// against every freeing policy.
template <class Smr>
class AtomTyped : public ::testing::Test {};

using FreeingReclaimers =
    ::testing::Types<reclaim::EpochReclaimer, reclaim::WatermarkReclaimer,
                     reclaim::HazardRootReclaimer>;
TYPED_TEST_SUITE(AtomTyped, FreeingReclaimers);

TYPED_TEST(AtomTyped, InsertFindErase) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);

    EXPECT_EQ(atom.update(ctx, [](T t, auto& b) { return t.insert(b, 1, 10); }),
              core::UpdateResult::kInstalled);
    EXPECT_EQ(atom.update(ctx, [](T t, auto& b) { return t.insert(b, 2, 20); }),
              core::UpdateResult::kInstalled);

    const auto v = atom.read(ctx, [](T t) {
      return t.contains(1) && t.contains(2) && t.size() == 2;
    });
    EXPECT_TRUE(v);

    EXPECT_EQ(atom.update(ctx, [](T t, auto& b) { return t.erase(b, 1); }),
              core::UpdateResult::kInstalled);
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 1u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);  // teardown frees everything
}

TYPED_TEST(AtomTyped, NoChangeSkipsCas) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);

    atom.update(ctx, [](T t, auto& b) { return t.insert(b, 5, 50); });
    const auto v1 = atom.version();
    EXPECT_EQ(atom.update(ctx, [](T t, auto& b) { return t.insert(b, 5, 99); }),
              core::UpdateResult::kNoChange);
    EXPECT_EQ(atom.update(ctx, [](T t, auto& b) { return t.erase(b, 7); }),
              core::UpdateResult::kNoChange);
    EXPECT_EQ(atom.version(), v1);  // no version consumed by no-ops
    EXPECT_EQ(ctx.stats.noop_updates, 2u);
    EXPECT_EQ(atom.read(ctx, [](T t) { return *t.find(5); }), 50);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(AtomTyped, VersionAdvancesPerInstall) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);
    EXPECT_EQ(atom.version(), 1u);
    for (std::int64_t i = 0; i < 10; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, i); });
    }
    EXPECT_EQ(atom.version(), 11u);
    EXPECT_EQ(ctx.stats.updates, 10u);
    EXPECT_EQ(ctx.stats.attempts, 10u);  // uncontended: one attempt each
    EXPECT_EQ(ctx.stats.cas_failures, 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(AtomTyped, SteadyStateMemoryIsBounded) {
  // Insert/erase churn with periodic reclamation must not accumulate
  // superseded nodes without bound.
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);
    for (std::int64_t i = 0; i < 2000; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i % 64, i); });
      atom.update(ctx, [i](T t, auto& b) { return t.erase(b, i % 64); });
    }
    smr.drain_all();
    // Tree is empty; at most transiently-pending garbage was drained.
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 0u);
    // Exactly one block may outlive the drain: the current empty-root
    // sentinel minted by the last erase-to-empty. The 1999 superseded
    // sentinels went through the reclaimers like any other root, so
    // churn did not accumulate them — that is the boundedness claim.
    EXPECT_LE(a.stats().live_blocks(), 1u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);  // ~Atom frees the live sentinel
}

TYPED_TEST(AtomTyped, BulkLoadInOneUpdate) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t i = 0; i < 1000; ++i) items.emplace_back(i, i);
    atom.update(ctx, [&](T, auto& b) {
      return T::from_sorted(b, items.begin(), items.end());
    });
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 1000u);
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(AtomLeaky, WorksWithArena) {
  alloc::Arena arena;
  reclaim::LeakyReclaimer smr;
  {
    core::Atom<T, reclaim::LeakyReclaimer, alloc::Arena> atom(
        smr, *arena.retire_backend());
    core::Atom<T, reclaim::LeakyReclaimer, alloc::Arena>::Ctx ctx(smr, arena);
    for (std::int64_t i = 0; i < 500; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, i); });
    }
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 500u);
    EXPECT_GT(smr.leaked_nodes(), 0u);  // superseded path nodes leak by design
  }
  arena.reset();  // wholesale reclamation
}

TEST(AtomWatermark, SnapshotReadsOldVersionWhileWritersAdvance) {
  alloc::MallocAlloc a;
  {
    reclaim::WatermarkReclaimer smr;
    core::Atom<T, reclaim::WatermarkReclaimer, alloc::MallocAlloc> atom(
        smr, *a.retire_backend());
    core::Atom<T, reclaim::WatermarkReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, a);

    for (std::int64_t i = 0; i < 100; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, i); });
    }
    auto snap = atom.snapshot();
    const T frozen = T::from_root(
        core::Atom<T, reclaim::WatermarkReclaimer,
                   alloc::MallocAlloc>::structural_root(snap.root()));
    EXPECT_EQ(frozen.size(), 100u);

    // Writers keep going; the snapshot must stay intact and readable.
    for (std::int64_t i = 100; i < 300; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, i); });
      atom.update(ctx, [i](T t, auto& b) { return t.erase(b, i - 100); });
    }
    smr.drain_all();
    EXPECT_EQ(frozen.size(), 100u);
    EXPECT_TRUE(frozen.check_invariants());
    for (std::int64_t i = 0; i < 100; ++i) EXPECT_TRUE(frozen.contains(i));
    EXPECT_GT(smr.pending_nodes(), 0u);  // snapshot blocked some reclamation

    snap.release();
    smr.drain_all();
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ----- unified universal-construction surface (core/universal.hpp) -----

// The plain Atom models the same concept the store layer drives the
// combining backend through.
static_assert(core::UniversalConstruction<
              core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc>>);

TYPED_TEST(AtomTyped, ReifiedInsertEraseMatchSetOracle) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);
    const unsigned slot = atom.register_slot();  // vocabulary no-op
    std::set<std::int64_t> oracle;
    util::Xoshiro256 rng(3);
    for (int i = 0; i < 1500; ++i) {
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

TYPED_TEST(AtomTyped, ExecuteBatchDegradesToPerOpLoop) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    using Atom = core::Atom<T, TypeParam, alloc::MallocAlloc>;
    Atom atom(smr, *a.retire_backend());
    typename Atom::Ctx ctx(smr, a);
    using Req = typename Atom::BatchRequest;
    using K = typename Atom::OpKind;
    // Same-key chain semantics fall out of per-op order for free.
    const std::vector<Req> reqs{
        {K::kInsert, 1, 10},          {K::kInsert, 7, 71},
        {K::kErase, 7, std::nullopt}, {K::kInsert, 7, 72},
        {K::kInsert, 7, 73},          {K::kErase, 9, std::nullopt},
    };
    const std::vector<bool> expected{true, true, true, true, false, false};
    bool results[8] = {};
    atom.execute_batch(ctx, reqs, std::span<bool>(results, reqs.size()));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(results[i], expected[i]) << "op " << i;
    }
    EXPECT_TRUE(atom.read(ctx, [](T t) {
      return t.size() == 2 && *t.find(7) == 72 && t.check_invariants();
    }));
    // One CAS per landing op, no batched installs: the measured baseline.
    EXPECT_EQ(ctx.stats.updates, 4u);
    EXPECT_EQ(ctx.stats.noop_updates, 2u);
    EXPECT_EQ(ctx.stats.batched_installs, 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TYPED_TEST(AtomTyped, SeedSortedBulkLoadsInOneInstall) {
  alloc::MallocAlloc a;
  {
    TypeParam smr;
    core::Atom<T, TypeParam, alloc::MallocAlloc> atom(smr, *a.retire_backend());
    typename core::Atom<T, TypeParam, alloc::MallocAlloc>::Ctx ctx(smr, a);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    for (std::int64_t k = 0; k < 500; ++k) items.emplace_back(k, k * 2);
    atom.seed_sorted(ctx, items.begin(), items.end());
    EXPECT_EQ(atom.version(), 2u);  // exactly one installed version
    EXPECT_EQ(atom.size(ctx), 500u);
    EXPECT_TRUE(atom.read(ctx, [](T t) { return t.check_invariants(); }));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(AtomStats, FailureRatioComputation) {
  core::OpStats s;
  s.updates = 10;
  s.cas_failures = 5;
  EXPECT_DOUBLE_EQ(s.failure_ratio(), 0.5);
  core::OpStats zero;
  EXPECT_DOUBLE_EQ(zero.failure_ratio(), 0.0);
  core::OpStats sum;
  sum += s;
  sum += s;
  EXPECT_EQ(sum.updates, 20u);
  EXPECT_EQ(sum.cas_failures, 10u);
  for (const double figure :
       {zero.tickets_per_wake(), zero.mean_task_us(), zero.mean_read_batch(),
        zero.read_batched_share(), zero.read_tickets_per_wake(),
        zero.mean_batch_size(), zero.batched_share(), zero.recycle_ratio()}) {
    EXPECT_DOUBLE_EQ(figure, 0.0);
  }

  // Every listed counter and both histograms get a distinct value; the
  // struct is summed twice, and each counter read back by name.
  core::OpStats all;
  std::map<std::string, std::uint64_t> want;
  std::uint64_t next = 1;
#define PC_TEST_SET(name, what) \
  all.name = next;              \
  want[#name] = next++;
  PC_OPSTATS_COUNTERS(PC_TEST_SET)
#undef PC_TEST_SET
  for (unsigned i = 0; i < core::OpStats::kBatchHistBuckets; ++i) {
    all.batch_hist[i] = next++;
    all.read_batch_hist[i] = next++;
  }
  core::OpStats twice;
  twice += all;
  twice += all;
  std::set<std::string> seen;
  twice.for_each_counter([&](const char* name, std::uint64_t value) {
    EXPECT_TRUE(seen.insert(name).second) << name << " visited twice";
    ASSERT_EQ(want.count(name), 1u) << name;
    EXPECT_EQ(value, 2 * want[name]) << name;
  });
  EXPECT_EQ(seen.size(), want.size());
  EXPECT_EQ(seen.size(), std::size_t{0 PC_OPSTATS_COUNTERS(PC_STATS_COUNT)});
  for (unsigned i = 0; i < core::OpStats::kBatchHistBuckets; ++i) {
    EXPECT_EQ(twice.batch_hist[i], 2 * all.batch_hist[i]);
    EXPECT_EQ(twice.read_batch_hist[i], 2 * all.read_batch_hist[i]);
  }
}

}  // namespace
}  // namespace pathcopy
