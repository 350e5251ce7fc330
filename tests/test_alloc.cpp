#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "reclaim/retired.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

TEST(MallocAlloc, RoundTripAndCounters) {
  alloc::MallocAlloc a;
  void* p = a.allocate(64, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64);
  EXPECT_EQ(a.stats().allocs.load(), 1u);
  EXPECT_EQ(a.stats().live_blocks(), 1u);
  a.deallocate(p, 64, 8);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
  EXPECT_EQ(a.stats().bytes_allocated.load(), 64u);
  EXPECT_EQ(a.stats().bytes_freed.load(), 64u);
}

TEST(MallocAlloc, RetireBackendIsSelf) {
  alloc::MallocAlloc a;
  EXPECT_EQ(a.retire_backend(), &a);
}

TEST(MallocAlloc, FreeBytesMatchesDeallocate) {
  alloc::MallocAlloc a;
  void* p = a.allocate(32, 8);
  a.free_bytes(p, 32, 8);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(MallocAlloc, OverAlignedAllocation) {
  alloc::MallocAlloc a;
  void* p = a.allocate(128, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  a.deallocate(p, 128, 64);
}

TEST(Arena, BumpAllocationsAreDistinct) {
  alloc::Arena arena;
  std::unordered_set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.allocate(48, 8);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(Arena, RecycleReusesBlock) {
  alloc::Arena arena;
  void* p = arena.allocate(48, 8);
  arena.deallocate(p, 48, 8);
  void* q = arena.allocate(48, 8);
  EXPECT_EQ(p, q);  // same size class comes back from the recycle list
}

TEST(Arena, DifferentSizeClassesDoNotMix) {
  alloc::Arena arena;
  void* p = arena.allocate(16, 8);
  arena.deallocate(p, 16, 8);
  void* q = arena.allocate(480, 8);
  EXPECT_NE(p, q);
}

TEST(Arena, GrowsBeyondOneBlock) {
  alloc::Arena arena;
  // Each allocation is 1 KiB; 2048 of them exceed one 1 MiB slab.
  for (int i = 0; i < 2048; ++i) {
    ASSERT_NE(arena.allocate(1024, 8), nullptr);
  }
  EXPECT_GE(arena.block_count(), 2u);
}

TEST(Arena, HugeAllocationGetsOwnBlock) {
  alloc::Arena arena;
  void* p = arena.allocate(4 << 20, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 4 << 20);
}

TEST(Arena, ResetDropsBlocks) {
  alloc::Arena arena;
  arena.allocate(1024, 8);
  EXPECT_GE(arena.block_count(), 1u);
  arena.reset();
  EXPECT_EQ(arena.block_count(), 0u);
  // Usable again after reset.
  EXPECT_NE(arena.allocate(64, 8), nullptr);
}

TEST(Arena, RetireBackendFreeIsNoOpButCounts) {
  alloc::Arena arena;
  void* p = arena.allocate(64, 8);
  arena.retire_backend()->free_bytes(p, 64, 8);
  EXPECT_EQ(arena.retire_backend()->stats().frees.load(), 1u);
  // Memory still readable: arena memory lives until reset.
  std::memset(p, 0x5a, 64);
}

TEST(Pool, ClassOfRoundsUp) {
  EXPECT_EQ(alloc::PoolBackend::class_of(1), 0u);
  EXPECT_EQ(alloc::PoolBackend::class_of(16), 0u);
  EXPECT_EQ(alloc::PoolBackend::class_of(17), 1u);
  EXPECT_EQ(alloc::PoolBackend::class_of(512), 31u);
  EXPECT_EQ(alloc::PoolBackend::class_bytes(0), 16u);
  EXPECT_EQ(alloc::PoolBackend::class_bytes(31), 512u);
}

TEST(Pool, AllocateFreeReuses) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* p = view.allocate(48, 8);
  view.deallocate(p, 48, 8);
  void* q = view.allocate(48, 8);
  EXPECT_EQ(p, q);
}

TEST(Pool, OversizeFallsBackToNew) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* p = view.allocate(4096, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 4096);
  view.deallocate(p, 4096, 8);
}

TEST(Pool, PopBatchCarvesWhenEmpty) {
  alloc::PoolBackend pool;
  void* items[32];
  const std::size_t got = pool.pop_batch(2, items, 32);
  EXPECT_EQ(got, 32u);
  std::unordered_set<void*> seen(items, items + 32);
  EXPECT_EQ(seen.size(), 32u);
  pool.push_batch(2, items, 32);
  // Popping again returns the pushed blocks, most recently pushed first.
  void* again[16];
  EXPECT_EQ(pool.pop_batch(2, again, 16), 16u);
  EXPECT_EQ(std::unordered_set<void*>(again, again + 16),
            std::unordered_set<void*>(items + 16, items + 32));
}

TEST(Pool, LockCounterAdvances) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  const auto before = pool.lock_acquisitions();
  void* p = view.allocate(32, 8);
  view.deallocate(p, 32, 8);
  EXPECT_GE(pool.lock_acquisitions(), before + 2);
}

TEST(Pool, ConcurrentHammering) {
  alloc::PoolBackend pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      alloc::PoolView view(pool);
      std::vector<void*> held;
      held.reserve(64);
      for (int i = 0; i < kIters; ++i) {
        held.push_back(view.allocate(48, 8));
        if (held.size() == 64) {
          for (void* p : held) view.deallocate(p, 48, 8);
          held.clear();
        }
      }
      for (void* p : held) view.deallocate(p, 48, 8);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(ThreadCache, AllocWithinMagazineAvoidsBackendLocks) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  void* p = cache.allocate(48, 8);  // first allocation pulls one batch
  const auto locks_after_refill = pool.lock_acquisitions();
  cache.deallocate(p, 48, 8);
  for (int i = 0; i < 32; ++i) {
    void* q = cache.allocate(48, 8);
    cache.deallocate(q, 48, 8);
  }
  EXPECT_EQ(pool.lock_acquisitions(), locks_after_refill);
}

TEST(ThreadCache, HighWaterFlushesHalf) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  std::vector<void*> blocks;
  // kHighWater+1 frees trigger exactly one push_batch.
  for (std::size_t i = 0; i <= alloc::ThreadCache::kHighWater; ++i) {
    blocks.push_back(cache.allocate(48, 8));
  }
  for (void* p : blocks) cache.deallocate(p, 48, 8);
  // Everything is accounted for between cache and backend.
  cache.flush();
  EXPECT_EQ(cache.stats().live_blocks(), 0u);
}

TEST(ThreadCache, OversizeBypassesMagazines) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  void* p = cache.allocate(2048, 8);
  ASSERT_NE(p, nullptr);
  cache.deallocate(p, 2048, 8);
}

TEST(ThreadCache, TwoCachesShareBackend) {
  alloc::PoolBackend pool;
  void* p = nullptr;
  {
    alloc::ThreadCache c1(pool);
    p = c1.allocate(48, 8);
    c1.deallocate(p, 48, 8);
  }  // c1 flush returns the block to the pool
  alloc::ThreadCache c2(pool);
  // c2 can obtain blocks previously cached by c1 (through the backend).
  std::unordered_set<void*> seen;
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    found = (c2.allocate(48, 8) == p);
  }
  EXPECT_TRUE(found);
}

TEST(ThreadCache, ConcurrentCaches) {
  alloc::PoolBackend pool;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool] {
      alloc::ThreadCache cache(pool);
      std::vector<void*> held;
      for (int i = 0; i < 20000; ++i) {
        held.push_back(cache.allocate(64, 8));
        if (held.size() == 100) {
          for (void* p : held) cache.deallocate(p, 64, 8);
          held.clear();
        }
      }
      for (void* p : held) cache.deallocate(p, 64, 8);
    });
  }
  for (auto& w : workers) w.join();
}

TEST(Pool, FreeBatchIsOneLockedTrip) {
  alloc::PoolBackend pool;
  void* items[16];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), items, 16), 16u);
  const auto locks_before = pool.lock_acquisitions();
  pool.free_batch(items, 16, 48, 8);
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 1);  // one trip for 16
  // The blocks are reusable: pop them back out.
  void* again[16];
  EXPECT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), again, 16), 16u);
}

TEST(Pool, InterleavedClassesPopOnlyTheirOwnBlocks) {
  // Three classes carved interleaved, across two to six slabs each, then
  // freed in shuffled order: every class's stack must hold exactly its
  // own blocks.
  alloc::PoolBackend pool;
  constexpr std::size_t kSizes[] = {32, 48, 112};
  constexpr std::size_t kPerClass = 12000;
  std::vector<std::pair<void*, std::size_t>> carved;
  std::vector<std::unordered_set<void*>> owned(3);
  for (std::size_t i = 0; i < kPerClass; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      void* p = pool.allocate(kSizes[c], 8);
      carved.emplace_back(p, c);
      owned[c].insert(p);
    }
  }
  util::Xoshiro256 rng(17);
  std::shuffle(carved.begin(), carved.end(), rng);
  for (const auto& [p, c] : carved) pool.deallocate(p, kSizes[c], 8);
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<void*> popped(kPerClass);
    ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(kSizes[c]), popped.data(),
                             kPerClass),
              kPerClass);
    EXPECT_EQ(std::unordered_set<void*>(popped.begin(), popped.end()), owned[c]);
  }
}

// The size-class check: every free must name a block this pool carved,
// with the class it was carved for.
constexpr const char* kNeverCarved = "freed pointer was never carved from this pool";
constexpr const char* kWrongClass =
    "pointer freed with a different size class than it was allocated with";

TEST(PoolDeathTest, DeallocateWithWrongClassAborts) {
  alloc::PoolBackend pool;
  void* p = pool.allocate(48, 8);
  EXPECT_DEATH(pool.deallocate(p, 64, 8), kWrongClass);
  pool.deallocate(p, 48, 8);
}

TEST(PoolDeathTest, FreeBatchWithWrongClassAborts) {
  alloc::PoolBackend pool;
  void* items[4];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), items, 4), 4u);
  EXPECT_DEATH(pool.free_batch(items, 4, 64, 8), kWrongClass);
  pool.free_batch(items, 4, 48, 8);
}

TEST(PoolDeathTest, FreeingForeignPointerAborts) {
  alignas(16) static char foreign[64];
  alloc::PoolBackend pool;
  pool.deallocate(pool.allocate(48, 8), 48, 8);  // the pool owns a slab
  EXPECT_DEATH(pool.deallocate(foreign, 48, 8), kNeverCarved);
}

TEST(PoolDeathTest, FreeingInteriorPointerAborts) {
  alloc::PoolBackend pool;
  void* p = pool.allocate(48, 8);
  EXPECT_DEATH(pool.deallocate(static_cast<char*>(p) + 16, 48, 8), kNeverCarved);
  pool.deallocate(p, 48, 8);
}

TEST(PoolDeathTest, FreeingUncarvedBlockAborts) {
  // The next block of the open slab: on a block boundary, not yet carved.
  alloc::PoolBackend pool;
  void* p = pool.allocate(48, 8);
  EXPECT_DEATH(pool.deallocate(static_cast<char*>(p) + 48, 48, 8), kNeverCarved);
  pool.deallocate(p, 48, 8);
}

TEST(Pool, FreeBatchOversizeFallsBackPerBlock) {
  alloc::PoolBackend pool;
  alloc::PoolView view(pool);
  void* items[3];
  for (void*& p : items) p = view.allocate(4096, 8);
  pool.free_batch(items, 3, 4096, 8);
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(ThreadCache, AcceptRetiredFillsMagazineWithoutBackendTrips) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  // Prime the size class so the magazine exists and the refill trip is
  // already paid for.
  void* warm = cache.allocate(48, 8);
  cache.deallocate(warm, 48, 8);
  // Stage "retired" blocks straight from the backend (as a bundle free
  // would after running destructors).
  void* retired[8];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), retired, 8), 8u);
  const auto locks_before = pool.lock_acquisitions();
  EXPECT_TRUE(cache.accept_retired(&pool, retired, 8, 48, 8));
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);  // zero backend trips
  EXPECT_EQ(cache.stats().recycled.load(), 8u);
  // Retire-then-alloc reuse: the next allocations come from the absorbed
  // blocks (LIFO magazine order), still without touching the backend.
  std::unordered_set<void*> absorbed(retired, retired + 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(absorbed.count(cache.allocate(48, 8)) == 1);
  }
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);
}

TEST(ThreadCache, AcceptRetiredRefusesForeignBackendAndOversize) {
  alloc::PoolBackend pool;
  alloc::PoolBackend other;
  alloc::ThreadCache cache(pool);
  void* blocks[2];
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(48), blocks, 2), 2u);
  // Wrong backend: the blocks belong to `pool`, the sink must refuse so
  // they flow through `other`'s own free path... and vice versa here.
  EXPECT_FALSE(cache.accept_retired(&other, blocks, 2, 48, 8));
  // Oversize class: magazines only hold pooled classes.
  EXPECT_FALSE(cache.accept_retired(&pool, blocks, 2, 4096, 8));
  EXPECT_EQ(cache.stats().recycled.load(), 0u);
  pool.free_batch(blocks, 2, 48, 8);
}

TEST(ThreadCache, AcceptRetiredPastHighWaterFlushesBatched) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  // Absorb 2*kHighWater retired blocks: the magazine must flush older
  // halves in kBatch-sized push_batch trips, never overflow.
  constexpr std::size_t kN = 2 * alloc::ThreadCache::kHighWater;
  std::vector<void*> retired(kN);
  ASSERT_EQ(pool.pop_batch(alloc::PoolBackend::class_of(64), retired.data(), kN),
            kN);
  const auto locks_before = pool.lock_acquisitions();
  EXPECT_TRUE(cache.accept_retired(&pool, retired.data(), kN, 64, 8));
  const auto flush_trips = pool.lock_acquisitions() - locks_before;
  // Absorbing kN into a kHighWater magazine flushes the older half
  // (kBatch blocks) each time the magazine refills: (kN - kHighWater) /
  // kBatch trips — batched, never per-block.
  EXPECT_EQ(flush_trips,
            (kN - alloc::ThreadCache::kHighWater) / alloc::ThreadCache::kBatch);
  cache.flush();
}

namespace {
struct RetireProbe {
  static int destroyed;
  std::uint64_t payload = 0;
  ~RetireProbe() { ++destroyed; }
};
int RetireProbe::destroyed = 0;
}  // namespace

TEST(RetireSink, FreeAllRoutesBundleIntoSinkMagazines) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  RetireProbe::destroyed = 0;
  // Build a bundle of same-class retired nodes, as a winning writer's
  // commit() would.
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 12; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  const reclaim::RetireSink sink = cache.retire_sink();
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, &sink);
  EXPECT_TRUE(bundle.empty());
  EXPECT_EQ(RetireProbe::destroyed, 12);        // destructors all ran
  EXPECT_EQ(pool.lock_acquisitions(), locks_before);  // absorbed, no trips
  EXPECT_EQ(cache.stats().recycled.load(), 12u);
  // The recycled bytes are immediately allocatable from this thread.
  void* p = cache.allocate(sizeof(RetireProbe), alignof(RetireProbe));
  EXPECT_NE(p, nullptr);
  cache.deallocate(p, sizeof(RetireProbe), alignof(RetireProbe));
}

TEST(RetireSink, FreeAllWithoutSinkUsesOneBackendTripPerClass) {
  alloc::PoolBackend pool;
  RetireProbe::destroyed = 0;
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 10; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, nullptr);
  EXPECT_EQ(RetireProbe::destroyed, 10);
  // One size class -> exactly one push_batch trip for the whole bundle.
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 1);
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(RetireSink, UnbatchedFallbackStillFreesPerNode) {
  alloc::PoolBackend pool;
  RetireProbe::destroyed = 0;
  std::vector<reclaim::Retired> bundle;
  for (int i = 0; i < 4; ++i) {
    void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
  }
  reclaim::set_batched_free(false);  // the pre-batching A/B baseline
  const auto locks_before = pool.lock_acquisitions();
  reclaim::free_all(bundle, nullptr);
  reclaim::set_batched_free(true);
  EXPECT_EQ(RetireProbe::destroyed, 4);
  EXPECT_EQ(pool.lock_acquisitions(), locks_before + 4);  // per-node locks
  EXPECT_EQ(pool.stats().live_blocks(), 0u);
}

TEST(RetireSink, CrossThreadRetireThenAllocReuse) {
  // Thread A's nodes retire while thread B's cache is the sink (the
  // shard-executor shape: whoever's scan ripens the bundle absorbs it);
  // B's subsequent allocations reuse the bytes without backend trips.
  alloc::PoolBackend pool;
  std::vector<reclaim::Retired> bundle;
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      void* raw = pool.allocate(sizeof(RetireProbe), alignof(RetireProbe));
      bundle.push_back(reclaim::make_retired(new (raw) RetireProbe, &pool));
    }
  });
  producer.join();
  std::thread consumer([&] {
    alloc::ThreadCache cache(pool);
    const reclaim::RetireSink sink = cache.retire_sink();
    reclaim::free_all(bundle, &sink);
    EXPECT_EQ(cache.stats().recycled.load(), 6u);
    void* p = cache.allocate(sizeof(RetireProbe), alignof(RetireProbe));
    EXPECT_NE(p, nullptr);
    cache.deallocate(p, sizeof(RetireProbe), alignof(RetireProbe));
  });
  consumer.join();
}

}  // namespace
}  // namespace pathcopy
