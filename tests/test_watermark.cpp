#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/retired.hpp"
#include "reclaim/watermark.hpp"
#include "reclaim_canary.hpp"

namespace pathcopy {
namespace {

using test::Canary;
using test::make_canary;
using test::one_retired;

TEST(Watermark, UnpinnedWatermarkIsMax) {
  reclaim::WatermarkReclaimer smr;
  EXPECT_EQ(smr.watermark(), reclaim::WatermarkReclaimer::kUnpinned);
}

TEST(Watermark, GuardPinsCurrentVersion) {
  reclaim::WatermarkReclaimer smr;
  auto h = smr.register_thread();
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{7};
  auto g = smr.pin(h, root, ver);
  EXPECT_EQ(g.root(), &dummy);
  EXPECT_EQ(smr.watermark(), 7u);
}

TEST(Watermark, GuardReleaseUnpins) {
  reclaim::WatermarkReclaimer smr;
  auto h = smr.register_thread();
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{7};
  { auto g = smr.pin(h, root, ver); }
  EXPECT_EQ(smr.watermark(), reclaim::WatermarkReclaimer::kUnpinned);
}

TEST(Watermark, BundleFreedOnlyPastDeathVersion) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::WatermarkReclaimer smr;
  auto reader = smr.register_thread();
  auto writer = smr.register_thread();
  const Canary* c = make_canary(a, &destroyed);
  std::atomic<const void*> root{c};
  std::atomic<std::uint64_t> ver{3};

  auto g = smr.pin(reader, root, ver);  // pins version 3
  // Bundle dies at version 4: the version-3 reader may still use it.
  smr.retire_bundle(writer, 4, c, nullptr, one_retired(a, c));
  smr.drain_all();  // forces a collect
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(static_cast<const Canary*>(g.root())->payload, test::kCanaryPayload);

  // Bundle dying at version 3 or lower is freeable even with the pin.
  const Canary* c2 = make_canary(a, &destroyed);
  smr.retire_bundle(writer, 3, nullptr, nullptr, one_retired(a, c2));
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);  // c2 went, c stayed

  { auto g2 = std::move(g); }  // release the pin
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Watermark, SnapshotBlocksOnlyOlderBundles) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::WatermarkReclaimer smr;
  auto writer = smr.register_thread();
  const Canary* c = make_canary(a, &destroyed);
  std::atomic<const void*> root{c};
  std::atomic<std::uint64_t> ver{5};

  auto snap = smr.pin_snapshot(root, ver);  // pins version 5, no guard held
  EXPECT_EQ(snap.version(), 5u);
  EXPECT_EQ(snap.root(), c);
  EXPECT_EQ(smr.watermark(), 5u);

  smr.retire_bundle(writer, 6, c, nullptr, one_retired(a, c));
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 0);  // snapshot holds version 5 < 6

  snap.release();
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Watermark, SnapshotMoveSemantics) {
  reclaim::WatermarkReclaimer smr;
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{9};
  auto s1 = smr.pin_snapshot(root, ver);
  auto s2 = std::move(s1);
  EXPECT_EQ(s2.version(), 9u);
  EXPECT_EQ(smr.watermark(), 9u);
  {
    auto s3 = std::move(s2);
  }
  EXPECT_EQ(smr.watermark(), reclaim::WatermarkReclaimer::kUnpinned);
}

TEST(Watermark, MultipleSnapshotsMinWins) {
  reclaim::WatermarkReclaimer smr;
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{3};
  auto s3 = smr.pin_snapshot(root, ver);
  ver.store(8);
  auto s8 = smr.pin_snapshot(root, ver);
  EXPECT_EQ(smr.watermark(), 3u);
  s3.release();
  EXPECT_EQ(smr.watermark(), 8u);
  s8.release();
}

TEST(Watermark, RetireTriggersPeriodicCollect) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::WatermarkReclaimer smr;
  auto h = smr.register_thread();
  const Canary* c = make_canary(a, &destroyed);
  smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, c));
  for (std::uint64_t i = 0; i <= reclaim::WatermarkReclaimer::kScanInterval; ++i) {
    smr.retire_bundle(h, 2, nullptr, nullptr, {});
  }
  EXPECT_EQ(destroyed.load(), 1);  // collected without an explicit drain
}

// Both version-keyed schemes run one body, so its two-writer race runs
// under each pin rule: writers swap the root, retire the old canary and
// collect every kScanInterval retires, while readers pin and dereference.
template <class Smr>
class VersionKeyed : public ::testing::Test {};
using VersionKeyedSchemes =
    ::testing::Types<reclaim::WatermarkReclaimer, reclaim::HazardRootReclaimer>;
TYPED_TEST_SUITE(VersionKeyed, VersionKeyedSchemes);

TYPED_TEST(VersionKeyed, ConcurrentPinRetireStress) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOps = 3000;
  {
    TypeParam smr;
    std::atomic<const void*> root{make_canary(a, &destroyed)};
    std::atomic<std::uint64_t> ver{1};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&] {
        auto h = smr.register_thread();
        for (int i = 0; i < kOps; ++i) {
          const Canary* fresh = make_canary(a, &destroyed);
          const void* old = root.exchange(fresh);
          const std::uint64_t death = ver.fetch_add(1) + 1;
          smr.retire_bundle(h, death, old, fresh, one_retired(a, old));
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        auto h = smr.register_thread();
        while (!stop.load()) {
          auto g = smr.pin(h, root, ver);
          ASSERT_EQ(static_cast<const Canary*>(g.root())->payload,
                    test::kCanaryPayload);
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) threads[w].join();
    stop.store(true);
    for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
    // Retire the final canary before teardown.
    auto h = smr.register_thread();
    smr.retire_bundle(h, ver.load() + 1, nullptr, nullptr,
                      one_retired(a, root.load()));
    smr.drain_all();
    EXPECT_EQ(smr.pending_nodes(), 0u);
  }
  EXPECT_EQ(destroyed.load(), kWriters * kOps + 1);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
