// Traced stand-ins for the store's building blocks.
//
// Each type derives from the real one and shadows only public entry
// points, opening a span around the call and forwarding to the base. The
// base's own internal calls are unqualified member calls, which resolve
// to the base, so a wrapper adds spans at layer boundaries without
// changing which code runs inside them. The static_asserts at the end
// check the two compile-time choices that would change the code path:
// the executor's detection of execute_sorted / ingest_sorted and the
// combiner's detection of the sorted batch sweep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "alloc/thread_cache_alloc.hpp"
#include "core/atom.hpp"
#include "core/builder.hpp"
#include "core/combining.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "trace.hpp"

namespace bench {

class TimedCache : public pathcopy::alloc::ThreadCache {
 public:
  using ThreadCache::ThreadCache;

  void* allocate(std::size_t bytes, std::size_t align) {
    const Span span(SpanName::kAllocAllocate);
    return ThreadCache::allocate(bytes, align);
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    const Span span(SpanName::kAllocDeallocate);
    ThreadCache::deallocate(p, bytes, align);
  }
};

/// Spans pin and retire_bundle; retire_bundle is also where expired
/// bundles are freed, so those frees are inside its span.
class TimedEpoch : public pathcopy::reclaim::EpochReclaimer {
 public:
  Guard pin(ThreadHandle& h, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>& version) {
    const Span span(SpanName::kReclaimPin);
    return EpochReclaimer::pin(h, root, version);
  }

  void retire_bundle(ThreadHandle& h, std::uint64_t death_version,
                     const void* old_root, const void* new_root,
                     std::vector<pathcopy::reclaim::Retired>&& nodes) {
    const Span span(SpanName::kReclaimRetireBundle);
    EpochReclaimer::retire_bundle(h, death_version, old_root, new_root,
                                  std::move(nodes));
  }
};

template <class Uc>
concept HasExecuteSorted =
    requires(Uc& uc, typename Uc::Ctx& ctx,
             std::span<const typename Uc::BatchRequest> reqs,
             std::span<bool> out) { uc.execute_sorted(ctx, reqs, out); };

template <class Uc>
concept HasIngestSorted =
    requires(Uc& uc, typename Uc::Ctx& ctx,
             std::span<const typename Uc::BatchRequest> reqs,
             std::span<bool> out) { uc.ingest_sorted(ctx, reqs, out); };

/// Core spans around a universal construction's entry points.
template <class Uc>
class Timed : public Uc {
 public:
  using typename Uc::BatchRequest;
  using typename Uc::Ctx;
  using typename Uc::Key;
  using typename Uc::ReadOutcome;
  using typename Uc::Value;
  using typename Uc::VersionedView;

  using Uc::Uc;

  bool insert(Ctx& ctx, unsigned slot, const Key& key, const Value& value) {
    const Span span(SpanName::kCoreInsert);
    return Uc::insert(ctx, slot, key, value);
  }

  bool erase(Ctx& ctx, unsigned slot, const Key& key) {
    const Span span(SpanName::kCoreErase);
    return Uc::erase(ctx, slot, key);
  }

  template <class F>
  decltype(auto) read(Ctx& ctx, F&& f) const {
    const Span span(SpanName::kCoreRead);
    return Uc::read(ctx, std::forward<F>(f));
  }

  pathcopy::persist::ReadProbeStats multi_get(Ctx& ctx,
                                              std::span<const Key> keys,
                                              std::span<ReadOutcome> out) const {
    const Span span(SpanName::kCoreMultiGet);
    return Uc::multi_get(ctx, keys, out);
  }

  VersionedView pin_versioned(Ctx& ctx) const {
    const Span span(SpanName::kCorePinVersioned);
    return Uc::pin_versioned(ctx);
  }

  void execute_batch(Ctx& ctx, std::span<const BatchRequest> reqs,
                     std::span<bool> results_out) {
    const Span span(SpanName::kCoreExecuteBatch);
    Uc::execute_batch(ctx, reqs, results_out);
  }

  void execute_sorted(Ctx& ctx, std::span<const BatchRequest> reqs,
                      std::span<bool> results_out)
    requires HasExecuteSorted<Uc>
  {
    const Span span(SpanName::kCoreExecuteSorted);
    Uc::execute_sorted(ctx, reqs, results_out);
  }

  void ingest_sorted(Ctx& ctx, std::span<const BatchRequest> reqs,
                     std::span<bool> results_out)
    requires HasIngestSorted<Uc>
  {
    const Span span(SpanName::kCoreIngestSorted);
    Uc::ingest_sorted(ctx, reqs, results_out);
  }
};

// ----- the store types the workloads run -----

using Treap = pathcopy::persist::Treap<std::int64_t, std::int64_t>;
using Cache = pathcopy::alloc::ThreadCache;
using Epoch = pathcopy::reclaim::EpochReclaimer;

using AtomUc = pathcopy::core::Atom<Treap, Epoch, Cache>;
using CombUc = pathcopy::core::CombiningAtom<Treap, Epoch, Cache>;
using TracedAtomUc =
    Timed<pathcopy::core::Atom<Treap, TimedEpoch, TimedCache>>;
using TracedCombUc =
    Timed<pathcopy::core::CombiningAtom<Treap, TimedEpoch, TimedCache>>;

template <class Traced, class Plain>
constexpr bool kSameCodePaths =
    HasExecuteSorted<Traced> == HasExecuteSorted<Plain> &&
    HasIngestSorted<Traced> == HasIngestSorted<Plain> &&
    pathcopy::core::SupportsSortedBatch<
        Treap, pathcopy::core::Builder<typename Traced::AllocType>> ==
        pathcopy::core::SupportsSortedBatch<
            Treap, pathcopy::core::Builder<typename Plain::AllocType>> &&
    pathcopy::core::UniversalConstruction<Traced>;

static_assert(kSameCodePaths<TracedAtomUc, AtomUc>,
              "traced Atom must take the plain Atom's code paths");
static_assert(kSameCodePaths<TracedCombUc, CombUc>,
              "traced CombiningAtom must take the plain one's code paths");
static_assert(HasExecuteSorted<CombUc> && HasIngestSorted<CombUc> &&
                  pathcopy::core::SupportsSortedBatch<
                      Treap, pathcopy::core::Builder<Cache>>,
              "the async workload is meant to exercise the sorted paths");

}  // namespace bench
