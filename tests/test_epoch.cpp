#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/retired.hpp"

namespace pathcopy {
namespace {

// Canary node: records destruction so premature frees are observable.
struct Canary {
  explicit Canary(std::atomic<int>* counter) : destroyed(counter) {}
  ~Canary() {
    if (destroyed != nullptr) destroyed->fetch_add(1);
  }
  std::atomic<int>* destroyed;
  std::uint64_t payload = 0xfeedfacecafebeefULL;
};

template <class Alloc>
const Canary* make_canary(Alloc& a, std::atomic<int>* counter) {
  void* p = a.allocate(sizeof(Canary), alignof(Canary));
  return ::new (p) Canary(counter);
}

std::vector<reclaim::Retired> one_retired(alloc::MallocAlloc& a, const Canary* c) {
  std::vector<reclaim::Retired> v;
  v.push_back(reclaim::make_retired(c, a.retire_backend()));
  return v;
}

TEST(Epoch, PinReturnsRootValue) {
  reclaim::EpochReclaimer smr;
  auto h = smr.register_thread();
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{1};
  auto g = smr.pin(h, root, ver);
  EXPECT_EQ(g.root(), &dummy);
}

TEST(Epoch, RetireAndDrainFrees) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  {
    reclaim::EpochReclaimer smr;
    auto h = smr.register_thread();
    const Canary* c = make_canary(a, &destroyed);
    smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, c));
    EXPECT_EQ(smr.pending_nodes(), 1u);
    smr.drain_all();
    EXPECT_EQ(smr.freed_nodes(), 1u);
  }
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Epoch, GuardBlocksReclamation) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::EpochReclaimer smr;
  auto reader = smr.register_thread();
  auto writer = smr.register_thread();
  const Canary* c = make_canary(a, &destroyed);
  std::atomic<const void*> root{c};
  std::atomic<std::uint64_t> ver{1};

  {
    auto g = smr.pin(reader, root, ver);  // reader active in current epoch
    const auto before = smr.global_epoch();
    smr.retire_bundle(writer, 2, nullptr, nullptr, one_retired(a, c));
    // Hammer the retire path so try_advance runs many times; the active
    // guard lets the epoch advance at most once, so the canary must
    // survive.
    for (std::uint64_t i = 0; i < 10 * reclaim::EpochReclaimer::kScanInterval; ++i) {
      smr.retire_bundle(writer, 2, nullptr, nullptr, {});
    }
    EXPECT_LE(smr.global_epoch(), before + 1);
    EXPECT_EQ(destroyed.load(), 0);
    // The canary is still dereferenceable under the guard.
    EXPECT_EQ(static_cast<const Canary*>(g.root())->payload,
              0xfeedfacecafebeefULL);
  }
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Epoch, EpochAdvancesWhenQuiescent) {
  reclaim::EpochReclaimer smr;
  auto h = smr.register_thread();
  const auto before = smr.global_epoch();
  // No guards held: retire traffic advances the epoch.
  for (std::uint64_t i = 0; i < 3 * reclaim::EpochReclaimer::kScanInterval; ++i) {
    smr.retire_bundle(h, 2, nullptr, nullptr, {});
  }
  EXPECT_GT(smr.global_epoch(), before);
  EXPECT_GT(smr.epoch_advances(), 0u);
}

TEST(Epoch, NaturalReclamationWithoutDrain) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::EpochReclaimer smr;
  auto h = smr.register_thread();
  const Canary* c = make_canary(a, &destroyed);
  smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, c));
  // Enough idle retires for the epoch to advance twice and ripen the bucket.
  for (std::uint64_t i = 0; i < 10 * reclaim::EpochReclaimer::kScanInterval; ++i) {
    smr.retire_bundle(h, 2, nullptr, nullptr, {});
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Epoch, HandleReleaseFlushesToOrphans) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::EpochReclaimer smr;
  {
    auto h = smr.register_thread();
    const Canary* c = make_canary(a, &destroyed);
    smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, c));
  }  // handle dies with pending garbage -> orphaned
  EXPECT_EQ(destroyed.load(), 0);
  smr.drain_all();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Epoch, SlotReuseAfterRelease) {
  reclaim::EpochReclaimer smr;
  std::optional<reclaim::EpochReclaimer::ThreadHandle> h1(smr.register_thread());
  h1.reset();
  auto h2 = smr.register_thread();  // reuses the released slot
  auto h3 = smr.register_thread();  // fresh slot
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{1};
  { auto g2 = smr.pin(h2, root, ver); }
  { auto g3 = smr.pin(h3, root, ver); }
}

TEST(Epoch, GuardsDoNotNestButSequentialPinsWork) {
  reclaim::EpochReclaimer smr;
  auto h = smr.register_thread();
  int dummy = 0;
  std::atomic<const void*> root{&dummy};
  std::atomic<std::uint64_t> ver{1};
  for (int i = 0; i < 100; ++i) {
    auto g = smr.pin(h, root, ver);
    EXPECT_EQ(g.root(), &dummy);
  }
}

TEST(Epoch, ConcurrentRetireStress) {
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  {
    reclaim::EpochReclaimer smr;
    std::atomic<const void*> root{nullptr};
    std::atomic<std::uint64_t> ver{1};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        auto h = smr.register_thread();
        for (int i = 0; i < kOps; ++i) {
          const Canary* c = make_canary(a, &destroyed);
          {
            auto g = smr.pin(h, root, ver);
            smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, c));
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    smr.drain_all();
  }
  EXPECT_EQ(destroyed.load(), kThreads * kOps);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// Writers continuously replace a shared canary and retire the old one;
// readers dereference under guards. ASan/valgrind would flag violations;
// structurally we assert payload integrity. Each bundle carries the old
// canary plus `bundle_nodes - 1` fresh, never-published ones, so the
// bundle size sets how often the writer scans and advances the epoch.
void reader_never_sees_freed_memory(std::size_t bundle_nodes) {
  constexpr int kWrites = 5000;
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  reclaim::EpochReclaimer smr;
  std::atomic<const void*> root{make_canary(a, &destroyed)};
  std::atomic<std::uint64_t> ver{1};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    auto h = smr.register_thread();
    for (int i = 0; i < kWrites; ++i) {
      const Canary* fresh = make_canary(a, &destroyed);
      const void* old = root.exchange(fresh);
      auto bundle = one_retired(a, static_cast<const Canary*>(old));
      for (std::size_t j = 1; j < bundle_nodes; ++j) {
        bundle.push_back(
            reclaim::make_retired(make_canary(a, &destroyed), a.retire_backend()));
      }
      smr.retire_bundle(h, 2, nullptr, nullptr, std::move(bundle));
    }
    stop.store(true);
  });
  std::thread reader([&] {
    auto h = smr.register_thread();
    while (!stop.load()) {
      auto g = smr.pin(h, root, ver);
      const auto* c = static_cast<const Canary*>(g.root());
      ASSERT_EQ(c->payload, 0xfeedfacecafebeefULL);
    }
  });
  writer.join();
  reader.join();
  // Free the final canary and drain.
  const auto* last = static_cast<const Canary*>(root.load());
  auto h = smr.register_thread();
  smr.retire_bundle(h, 2, nullptr, nullptr, one_retired(a, last));
  smr.drain_all();
  EXPECT_EQ(a.stats().live_blocks(), 0u);
  EXPECT_EQ(destroyed.load(), static_cast<int>(kWrites * bundle_nodes + 1));
}

TEST(Epoch, ReaderNeverSeesFreedMemory) {
  // At 256 nodes a bundle carries 257 units of retire volume, so the
  // writer scans on every second bundle and its epoch advances race the
  // reader's pins.
  for (const std::size_t bundle_nodes : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE(bundle_nodes);
    reader_never_sees_freed_memory(bundle_nodes);
  }
}

TEST(Epoch, LargeBundlesKeepLimboBounded) {
  // Scans are paced by retire volume, so a thread retiring large bundles
  // with no guard held keeps only a few scan intervals' worth of nodes in
  // limbo, however many nodes each bundle carries.
  constexpr std::uint64_t kBundles = 400;
  constexpr std::uint64_t kNodes = 64;
  constexpr std::uint64_t kScan = reclaim::EpochReclaimer::kScanInterval;
  alloc::MallocAlloc a;
  std::atomic<int> destroyed{0};
  {
    reclaim::EpochReclaimer smr;
    auto h = smr.register_thread();
    const auto before = smr.global_epoch();
    for (std::uint64_t i = 0; i < kBundles; ++i) {
      std::vector<reclaim::Retired> bundle;
      for (std::uint64_t j = 0; j < kNodes; ++j) {
        bundle.push_back(
            reclaim::make_retired(make_canary(a, &destroyed), a.retire_backend()));
      }
      smr.retire_bundle(h, 2, nullptr, nullptr, std::move(bundle));
      ASSERT_LE(smr.pending_nodes(), 3 * kScan + kNodes) << "bundle " << i;
      if ((i + 1) * (1 + kNodes) >= kScan) {
        ASSERT_GT(smr.global_epoch(), before) << "bundle " << i;
      }
    }
    smr.drain_all();
  }
  EXPECT_EQ(destroyed.load(), static_cast<int>(kBundles * kNodes));
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Leaky, NeverFrees) {
  // Arena-backed: leaked nodes are reclaimed wholesale by the arena.
  reclaim::LeakyReclaimer smr;
  auto h = smr.register_thread();
  std::atomic<const void*> root{nullptr};
  std::atomic<std::uint64_t> ver{1};
  auto g = smr.pin(h, root, ver);
  EXPECT_EQ(g.root(), nullptr);
  std::vector<reclaim::Retired> batch(3);
  smr.retire_bundle(h, 2, nullptr, nullptr, std::move(batch));
  EXPECT_EQ(smr.leaked_nodes(), 3u);
  EXPECT_EQ(smr.freed_nodes(), 0u);
  smr.drain_all();
  EXPECT_EQ(smr.freed_nodes(), 0u);
}

}  // namespace
}  // namespace pathcopy
