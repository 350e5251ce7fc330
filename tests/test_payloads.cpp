// Payload and robustness coverage: non-trivial value types whose
// destructors must run exactly once through the reclamation pipeline,
// custom comparators, and allocation-failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "persist/avl.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "test_support.hpp"

namespace pathcopy {
namespace {

// ---------------------------------------------------------------------
// Non-trivial payloads: destructor accounting.
// ---------------------------------------------------------------------

struct Counted {
  static std::atomic<int> live;
  std::int64_t v = 0;

  Counted() { live.fetch_add(1); }
  explicit Counted(std::int64_t x) : v(x) { live.fetch_add(1); }
  Counted(const Counted& o) : v(o.v) { live.fetch_add(1); }
  Counted& operator=(const Counted&) = default;
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST(Payloads, DestructorsRunThroughRetirePipeline) {
  using T = persist::Treap<std::int64_t, Counted>;
  alloc::MallocAlloc a;
  {
    reclaim::EpochReclaimer smr;
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, *a.retire_backend());
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, a);
    for (std::int64_t i = 0; i < 500; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, Counted{i}); });
    }
    for (std::int64_t i = 0; i < 250; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.erase(b, i); });
    }
    smr.drain_all();
    // Exactly the surviving 250 nodes hold payloads.
    EXPECT_EQ(Counted::live.load(), 250);
  }
  EXPECT_EQ(Counted::live.load(), 0);  // teardown destroyed the rest
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Payloads, StringValuesSurviveVersionChurn) {
  using T = persist::Treap<std::int64_t, std::string>;
  alloc::MallocAlloc a;
  {
    reclaim::EpochReclaimer smr;
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, *a.retire_backend());
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, a);
    for (std::int64_t i = 0; i < 200; ++i) {
      const std::string v = "value-" + std::to_string(i) +
                            std::string(64, 'x');  // beyond SSO
      atom.update(ctx, [&](T t, auto& b) { return t.insert(b, i, v); });
    }
    for (std::int64_t i = 0; i < 200; i += 2) {
      atom.update(ctx, [&](T t, auto& b) {
        return t.insert_or_assign(b, i, "rewritten-" + std::to_string(i));
      });
    }
    EXPECT_EQ(atom.read(ctx, [](T t) { return *t.find(4); }), "rewritten-4");
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.find(5)->substr(0, 7); }),
              "value-5");
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Payloads, StringKeysOrderCorrectly) {
  using T = persist::Treap<std::string, int>;
  alloc::MallocAlloc a;
  T t;
  for (const char* k : {"pear", "apple", "fig", "banana", "date"}) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, std::string(k), 1); });
  }
  std::vector<std::string> keys;
  t.for_each([&](const std::string& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "date", "fig",
                                            "pear"}));
  EXPECT_TRUE(t.check_invariants());
  T::destroy(t.root_node(), a);
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

// ---------------------------------------------------------------------
// Custom comparators.
// ---------------------------------------------------------------------

TEST(Comparators, ReverseOrderTreap) {
  using T = persist::Treap<std::int64_t, std::int64_t, std::greater<std::int64_t>>;
  alloc::MallocAlloc a;
  T t;
  for (const std::int64_t k : {3, 1, 4, 1, 5}) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.min_node()->key, 5);  // "min" under greater<> is the largest
  EXPECT_EQ(t.max_node()->key, 1);
  std::vector<std::int64_t> keys;
  t.for_each([&](const std::int64_t& k, const std::int64_t&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::int64_t>{5, 4, 3, 1}));
  EXPECT_TRUE(t.check_invariants());
  T::destroy(t.root_node(), a);
}

TEST(Comparators, ReverseOrderAvl) {
  using A = persist::AvlTree<std::int64_t, std::int64_t, std::greater<std::int64_t>>;
  alloc::MallocAlloc a;
  A t;
  for (std::int64_t k = 0; k < 64; ++k) {
    t = test::apply(a, [&](auto& b) { return t.insert(b, k, k); });
  }
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.kth(0)->key, 63);
  EXPECT_EQ(t.kth(63)->key, 0);
  A::destroy(t.root_node(), a);
}

// ---------------------------------------------------------------------
// Allocation-failure injection: an attempt that throws mid-build must
// roll back completely (builder destructor) and leak nothing.
// ---------------------------------------------------------------------

class FlakyAlloc {
 public:
  using RetireBackend = alloc::MallocAlloc;

  explicit FlakyAlloc(alloc::MallocAlloc& base, int fail_after)
      : base_(&base), remaining_(fail_after) {}

  void* allocate(std::size_t bytes, std::size_t align) {
    if (remaining_ == 0) throw std::bad_alloc{};
    --remaining_;
    return base_->allocate(bytes, align);
  }
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    base_->deallocate(p, bytes, align);
  }
  RetireBackend* retire_backend() noexcept { return base_; }
  void refill(int n) noexcept { remaining_ = n; }

 private:
  alloc::MallocAlloc* base_;
  int remaining_;
};

TEST(FailureInjection, MidBuildThrowRollsBackCleanly) {
  using T = persist::Treap<std::int64_t, std::int64_t>;
  alloc::MallocAlloc base;
  FlakyAlloc flaky(base, 1 << 20);

  T t;
  for (std::int64_t i = 0; i < 300; ++i) {
    t = test::apply(flaky, [&](auto& b) { return t.insert(b, i, i); });
  }
  const auto live_before = base.stats().live_blocks();

  // Now make every insert attempt die partway through its path copy.
  for (int budget = 0; budget < 12; ++budget) {
    flaky.refill(budget);
    bool threw = false;
    try {
      core::Builder<FlakyAlloc> b(flaky);
      T next = t.insert(b, 100000 + budget, 0);
      b.seal();
      auto retired = b.commit();
      reclaim::run_all(retired);
      t = next;  // the attempt landed: adopt the new version
    } catch (const std::bad_alloc&) {
      threw = true;  // builder destructor rolled the attempt back
    }
    if (budget < 2) {
      EXPECT_TRUE(threw);  // a path copy needs several nodes
    }
    flaky.refill(1 << 20);
    ASSERT_EQ(base.stats().live_blocks(), live_before + (threw ? 0 : 1));
    if (!threw) {
      // The insert landed; remove it to restore the baseline.
      t = test::apply(flaky, [&](auto& b2) { return t.erase(b2, 100000 + budget); });
    }
    ASSERT_TRUE(t.check_invariants());
    ASSERT_EQ(t.size(), 300u);
  }
  T::destroy(t.root_node(), base);
  EXPECT_EQ(base.stats().live_blocks(), 0u);
}

TEST(FailureInjection, ThrowInsideAtomUpdatePropagatesWithoutLeak) {
  using T = persist::Treap<std::int64_t, std::int64_t>;
  alloc::MallocAlloc base;
  {
    reclaim::EpochReclaimer smr;
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
        smr, *base.retire_backend());
    core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc>::Ctx ctx(smr, base);
    for (std::int64_t i = 0; i < 100; ++i) {
      atom.update(ctx, [i](T t, auto& b) { return t.insert(b, i, i); });
    }
    EXPECT_THROW(atom.update(ctx,
                             [](T, auto&) -> T {
                               throw std::runtime_error("user code failed");
                             }),
                 std::runtime_error);
    // The atom is untouched and fully operational.
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 100u);
    atom.update(ctx, [](T t, auto& b) { return t.insert(b, 12345, 1); });
    EXPECT_EQ(atom.read(ctx, [](T t) { return t.size(); }), 101u);
  }
  EXPECT_EQ(base.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
