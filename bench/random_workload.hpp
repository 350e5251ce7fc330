// The Random workload on real threads, shared by the ablation benches
// (E8, E10, E12): each worker draws uniform keys from [0, kRandomKeyRange]
// and inserts or erases with probability 1/2, from a per-thread seed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/runner.hpp"
#include "core/atom.hpp"
#include "reclaim/epoch.hpp"
#include "seq/locked.hpp"
#include "seq/seq_treap.hpp"
#include "util/rng.hpp"

namespace pathcopy::bench {

inline constexpr std::int64_t kRandomKeyRange = 1 << 16;

/// Ops/s of `procs` threads updating one Atom over the persistent map DS
/// (EBR, thread-cached pool).
template <class DS>
double run_random_atom(std::size_t procs, int duration_ms) {
  alloc::PoolBackend pool;
  reclaim::EpochReclaimer smr;
  core::Atom<DS, reclaim::EpochReclaimer, alloc::ThreadCache> atom(smr, pool);
  const auto run = run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        typename core::Atom<DS, reclaim::EpochReclaimer,
                            alloc::ThreadCache>::Ctx ctx(smr, cache);
        util::Xoshiro256 rng(tid * 104729 + 3);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, kRandomKeyRange);
          if (rng.chance(1, 2)) {
            atom.update(ctx, [k](DS t, auto& b) { return t.insert(b, k, k); });
          } else {
            atom.update(ctx, [k](DS t, auto& b) { return t.erase(b, k); });
          }
          ++ops;
        }
        return ops;
      });
  return run.ops_per_sec();
}

/// Ops/s of `procs` threads sharing one mutex-guarded sequential treap,
/// the blocking baseline.
inline double run_random_locked(std::size_t procs, int duration_ms) {
  seq::Locked<seq::SeqTreap<std::int64_t, std::int64_t>> locked;
  const auto run = run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        util::Xoshiro256 rng(tid * 104729 + 3);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, kRandomKeyRange);
          if (rng.chance(1, 2)) {
            locked.with([k](auto& t) { t.insert(k, k); });
          } else {
            locked.with([k](auto& t) { t.erase(k); });
          }
          ++ops;
        }
        return ops;
      });
  return run.ops_per_sec();
}

}  // namespace pathcopy::bench
