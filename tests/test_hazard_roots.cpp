#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/retired.hpp"
#include "reclaim_canary.hpp"

namespace pathcopy {
namespace {

using test::Canary;
using test::make_canary;
using test::one_retired;

TEST(HazardRoots, PinPublishesHazard) {
  reclaim::HazardRootReclaimer smr;
  auto h = smr.register_thread();
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{1};
  auto g = smr.pin(h, root, ver);
  EXPECT_EQ(g.root(), &dummy);
}

TEST(HazardRoots, ProtectedRootBlocksItsBundle) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::HazardRootReclaimer smr;
  auto reader = smr.register_thread();
  auto writer = smr.register_thread();

  const Canary* v1_root = make_canary(a, &destroyed);
  std::atomic<const void*> root{v1_root};
  std::atomic<std::uint64_t> ver{1};

  // Reader protects version 1's root (announced era 1).
  auto g = smr.pin(reader, root, ver);

  // Writer installs version 2 and retires version 1's root.
  const Canary* v2_root = make_canary(a, &destroyed);
  root.store(v2_root);
  ver.store(2);
  smr.retire_bundle(writer, 2, v1_root, v2_root, one_retired(a, v1_root));
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 0);  // hazard on v1_root blocks death=2
  EXPECT_EQ(static_cast<const Canary*>(g.root())->payload, test::kCanaryPayload);

  { auto g2 = std::move(g); }  // drop the hazard
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);

  // Cleanup: retire version 2's root.
  smr.retire_bundle(writer, 3, v2_root, nullptr, one_retired(a, v2_root));
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(HazardRoots, NewRootHazardDoesNotBlockOlderBundles) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::HazardRootReclaimer smr;
  auto reader = smr.register_thread();
  auto writer = smr.register_thread();

  const Canary* v1_root = make_canary(a, &destroyed);
  std::atomic<const void*> root{v1_root};
  std::atomic<std::uint64_t> ver{1};

  // Writer replaces the root first...
  const Canary* v2_root = make_canary(a, &destroyed);
  root.store(v2_root);
  ver.store(2);
  smr.retire_bundle(writer, 2, v1_root, v2_root, one_retired(a, v1_root));

  // ...then a reader pins the *new* root. Its announced era is 2, so
  // the version-2 bundle (death 2 <= 2) can be freed.
  auto g = smr.pin(reader, root, ver);
  EXPECT_EQ(g.root(), v2_root);
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);

  { auto g2 = std::move(g); }
  smr.retire_bundle(writer, 3, v2_root, nullptr, one_retired(a, v2_root));
  smr.drain_all();
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(HazardRoots, PinValidationLoopsOnRootChange) {
  // Pin while the root keeps changing: the returned root must always be a
  // value actually present in the register at validation time.
  reclaim::HazardRootReclaimer smr;
  auto h = smr.register_thread();
  int a_val = 0, b_val = 0;
  std::atomic<const void*> root{&a_val};
  std::atomic<std::uint64_t> ver{1};
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; i < 100000; ++i) {
      root.store(i % 2 == 0 ? static_cast<const void*>(&b_val)
                            : static_cast<const void*>(&a_val));
    }
    stop.store(true);
  });
  while (!stop.load()) {
    auto g = smr.pin(h, root, ver);
    ASSERT_TRUE(g.root() == &a_val || g.root() == &b_val);
  }
  flipper.join();
}

TEST(HazardRoots, NullRootIsSafe) {
  reclaim::HazardRootReclaimer smr;
  auto h = smr.register_thread();
  std::atomic<const void*> root{nullptr};
  std::atomic<std::uint64_t> ver{1};
  auto g = smr.pin(h, root, ver);
  EXPECT_EQ(g.root(), nullptr);
}

}  // namespace
}  // namespace pathcopy
