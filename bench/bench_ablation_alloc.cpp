// Experiment E6 — the Appendix B allocator-bottleneck claim.
//
// The paper conjectures that its high-core-count collapse comes from the
// (shared) Java allocator. This ablation swaps the allocator policy under
// an otherwise identical UC treap write-only workload:
//
//   malloc        — process-global operator new (the Java-allocator analogue)
//   global-pool   — one mutex-protected size-class pool (worst case)
//   thread-cache  — per-thread magazines over the shared pool (the fix)
//   arena+leaky   — per-thread bump arenas, no reclamation (GC-free upper
//                   bound on allocation speed)
//
// Run twice: with real threads on this host, and in the simulator where
// the allocator term can be dialed to show the collapse at paper scale.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/json_rows.hpp"
#include "bench_util/runner.hpp"
#include "core/atom.hpp"
#include "model/sim.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/retired.hpp"
#include "store/shard_stats.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using T = persist::Treap<std::int64_t, std::int64_t>;

constexpr std::int64_t kKeyRange = 1 << 17;

// One write-only trial: each worker does insert/erase of random keys.
// make_alloc() returns anything dereferenceable to the per-thread
// allocator view (raw pointer for shared views, unique_ptr for owned).
template <class AtomT, class Smr, class MakeAlloc>
double run_trial(Smr& smr, AtomT& atom, MakeAlloc make_alloc,
                 std::size_t procs, int duration_ms) {
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        auto alloc = make_alloc();
        typename AtomT::Ctx ctx(smr, *alloc);
        util::Xoshiro256 rng(tid * 7919 + 13);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, kKeyRange);
          if (rng.chance(1, 2)) {
            atom.update(ctx, [k](T t, auto& b) { return t.insert(b, k, k); });
          } else {
            atom.update(ctx, [k](T t, auto& b) { return t.erase(b, k); });
          }
          ++ops;
        }
        return ops;
      });
  return run.ops_per_sec();
}

void real_threads(int duration_ms, const std::vector<std::size_t>& procs) {
  std::printf("== E6 real threads: allocator policy vs throughput (ops/s) ==\n");
  std::printf("%-14s", "allocator");
  for (const auto p : procs) std::printf("  %8zup", p);
  std::printf("\n");

  // malloc
  {
    std::printf("%-14s", "malloc");
    for (const auto p : procs) {
      alloc::MallocAlloc shared;
      reclaim::EpochReclaimer smr;
      core::Atom<T, reclaim::EpochReclaimer, alloc::MallocAlloc> atom(
          smr, *shared.retire_backend());
      const double ops =
          run_trial(smr, atom, [&] { return &shared; }, p, duration_ms);
      std::printf("  %9.0f", ops);
    }
    std::printf("\n");
  }
  // global pool (one lock per alloc/free)
  {
    std::printf("%-14s", "global-pool");
    for (const auto p : procs) {
      alloc::PoolBackend pool;
      reclaim::EpochReclaimer smr;
      core::Atom<T, reclaim::EpochReclaimer, alloc::PoolView> atom(smr, pool);
      const double ops = run_trial(
          smr, atom,
          [&] {
            return std::make_unique<alloc::PoolView>(pool);
          },
          p, duration_ms);
      std::printf("  %9.0f", ops);
    }
    std::printf("\n");
  }
  // thread-cached pool
  {
    std::printf("%-14s", "thread-cache");
    for (const auto p : procs) {
      alloc::PoolBackend pool;
      reclaim::EpochReclaimer smr;
      core::Atom<T, reclaim::EpochReclaimer, alloc::ThreadCache> atom(smr, pool);
      const double ops = run_trial(
          smr, atom, [&] { return std::make_unique<alloc::ThreadCache>(pool); },
          p, duration_ms);
      std::printf("  %9.0f", ops);
    }
    std::printf("\n");
  }
  // arena + leaky (no reclamation at all)
  {
    std::printf("%-14s", "arena+leaky");
    for (const auto p : procs) {
      static alloc::ArenaRetire noop_backend;
      reclaim::LeakyReclaimer smr;
      // Arenas must outlive the Atom: its final version lives in them.
      std::vector<std::unique_ptr<alloc::Arena>> arenas;
      for (std::size_t i = 0; i < p; ++i) {
        arenas.push_back(std::make_unique<alloc::Arena>());
      }
      std::atomic<std::size_t> next{0};
      core::Atom<T, reclaim::LeakyReclaimer, alloc::Arena> atom(smr, noop_backend);
      const double ops = run_trial(
          smr, atom, [&] { return arenas[next.fetch_add(1)].get(); }, p,
          duration_ms);
      std::printf("  %9.0f", ops);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

// -- E6b: the memory loop (failed-install recycling + batched retire) --
//
// A/B on the thread-cached-pool configuration only. "baseline" is the
// pre-PR free path: losing CAS attempts deallocate their fresh path
// per-node, and expired retire bundles free through one locked backend
// trip per node (reclaim::set_batched_free(false), ctx.recycle_fresh =
// false). "recycled" is the defaults: losers park their nodes in the
// builder bin for the retry, and expired bundles land in thread-cache
// magazines in one trip per size class. The contended cell (every update
// CASes the one atom root) is where both mechanisms fire; the 1-thread
// cell checks they cost nothing when they never trigger.
struct RecycleArm {
  const char* cell;
  const char* arm;
  std::size_t threads = 0;
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  core::OpStats stats;  // the workers' counters, folded
  std::uint64_t pool_lock_trips = 0;
  double trips_per_op = 0.0;
};

RecycleArm run_recycle_arm(const char* cell, const char* arm, bool recycle_on,
                           std::size_t threads, int duration_ms) {
  reclaim::set_batched_free(recycle_on);
  RecycleArm r;
  r.cell = cell;
  r.arm = arm;
  r.threads = threads;
  {
    alloc::PoolBackend pool;
    reclaim::EpochReclaimer smr;
    core::Atom<T, reclaim::EpochReclaimer, alloc::ThreadCache> atom(smr, pool);
    store::ShardStatsBoard board(1);
    const auto run = bench::run_timed(
        threads, std::chrono::milliseconds(duration_ms),
        [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
          alloc::ThreadCache cache(pool);  // per-thread magazine view
          core::Atom<T, reclaim::EpochReclaimer, alloc::ThreadCache>::Ctx ctx(
              smr, cache);
          ctx.recycle_fresh = recycle_on;
          util::Xoshiro256 rng(tid * 7919 + 13);
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::int64_t k = rng.range(0, kKeyRange);
            if (rng.chance(1, 2)) {
              atom.update(ctx, [k](T t, auto& b) { return t.insert(b, k, k); });
            } else {
              atom.update(ctx, [k](T t, auto& b) { return t.erase(b, k); });
            }
            ++ops;
          }
          board.add(0, ctx.stats);
          return ops;
        });
    // Snapshot after the workers' caches flushed (their teardown trips are
    // part of the free path) but before the reclaimer's final drain_all,
    // which frees whatever survived the run identically in both arms.
    r.pool_lock_trips = pool.lock_acquisitions();
    r.stats = board.total();
    r.ops = run.total_ops;
    r.ops_per_sec = run.ops_per_sec();
    r.trips_per_op = core::OpStats::ratio(r.pool_lock_trips, r.ops);
  }
  reclaim::set_batched_free(true);  // restore the process default
  return r;
}

void print_recycle_row(const RecycleArm& r) {
  std::printf("%-12s  %-9s  %3zut  %9.0f  %9llu  %11llu  %9llu  %7.1f%%  "
              "%9llu  %8.3f\n",
              r.cell, r.arm, r.threads, r.ops_per_sec,
              static_cast<unsigned long long>(r.stats.cas_failures),
              static_cast<unsigned long long>(r.stats.failed_attempt_nodes),
              static_cast<unsigned long long>(r.stats.recycled_nodes),
              100.0 * r.stats.recycle_ratio(),
              static_cast<unsigned long long>(r.pool_lock_trips),
              r.trips_per_op);
}

std::vector<RecycleArm> recycle_section(int duration_ms, std::size_t threads) {
  std::printf("== E6b memory loop: failed-install recycling + batched retire "
              "(thread-cache pool) ==\n");
  std::printf("%-12s  %-9s  %4s  %9s  %9s  %11s  %9s  %8s  %9s  %8s\n", "cell",
              "arm", "thr", "ops/s", "cas-fail", "failed-node", "recycled",
              "ratio", "pool-lock", "trips/op");
  std::vector<RecycleArm> arms;
  // The contended cell needs CAS failures to mean anything. On a
  // single-core host a short run can get lucky and never lose a CAS —
  // retry with doubled duration until contention shows up.
  int ms = duration_ms;
  for (int attempt = 0; attempt < 4; ++attempt) {
    RecycleArm base =
        run_recycle_arm("contended", "baseline", false, threads, ms);
    RecycleArm rec = run_recycle_arm("contended", "recycled", true, threads, ms);
    if ((base.stats.cas_failures == 0 || rec.stats.cas_failures == 0) &&
        attempt < 3) {
      ms *= 2;
      continue;
    }
    arms.push_back(base);
    arms.push_back(rec);
    break;
  }
  arms.push_back(run_recycle_arm("uncontended", "baseline", false, 1, ms));
  arms.push_back(run_recycle_arm("uncontended", "recycled", true, 1, ms));
  for (const RecycleArm& r : arms) print_recycle_row(r);
  std::printf("\n");
  return arms;
}

// False unless the contended cell shows the loop closed: some
// failed-attempt nodes were recycled and the batched retire path costs
// measurably fewer backend lock trips per op than the per-node baseline.
bool assert_recycle(const std::vector<RecycleArm>& arms) {
  const RecycleArm* base = nullptr;
  const RecycleArm* rec = nullptr;
  for (const RecycleArm& r : arms) {
    if (std::strcmp(r.cell, "contended") != 0) continue;
    if (std::strcmp(r.arm, "baseline") == 0) base = &r;
    if (std::strcmp(r.arm, "recycled") == 0) rec = &r;
  }
  if (base == nullptr || rec == nullptr) {
    std::fprintf(stderr, "assert-recycle: contended cell missing\n");
    return false;
  }
  const core::OpStats& s = rec->stats;
  if (s.cas_failures > 0 && s.recycled_nodes == 0) {
    std::fprintf(stderr,
                 "assert-recycle: CAS failures occurred but no nodes were "
                 "recycled\n");
    return false;
  }
  if (s.recycle_ratio() <= 0.0 && s.failed_attempt_nodes > 0) {
    std::fprintf(stderr, "assert-recycle: recycle ratio is zero\n");
    return false;
  }
  if (rec->trips_per_op >= base->trips_per_op) {
    std::fprintf(stderr,
                 "assert-recycle: batched free path took %.4f lock trips/op, "
                 "baseline %.4f — no reduction\n",
                 rec->trips_per_op, base->trips_per_op);
    return false;
  }
  std::printf("assert-recycle: ok (ratio %.1f%%, trips/op %.4f -> %.4f, "
              "%.1fx fewer)\n",
              100.0 * s.recycle_ratio(), base->trips_per_op,
              rec->trips_per_op,
              rec->trips_per_op == 0.0
                  ? 0.0
                  : base->trips_per_op / rec->trips_per_op);
  return true;
}

void simulated(const std::vector<std::size_t>& procs) {
  std::printf("== E6 simulated: shared-allocator contention vs speedup ==\n");
  std::printf("(N=2^20, M=2^14, R=100; TLAB refills of 32 nodes cost "
              "10 + c*P ticks through one serialized allocator)\n");
  std::printf("%-12s", "contention c");
  for (const auto p : procs) std::printf("  %7zup", p);
  std::printf("\n");
  for (const std::uint64_t c : {0, 2, 4, 8, 16}) {
    std::printf("%-12llu", static_cast<unsigned long long>(c));
    for (const auto p : procs) {
      model::SimConfig cfg;
      cfg.num_leaves = 1 << 20;
      cfg.cache_lines = 1 << 14;
      cfg.miss_cost = 100;
      cfg.processes = p;
      cfg.ops = 8000;
      cfg.alloc_ticks_per_node = 10;
      cfg.alloc_refill_batch = 32;
      cfg.alloc_contention_ticks = c;
      std::printf("  %7.2fx", model::simulated_speedup(cfg));
    }
    std::printf("\n");
  }
  std::printf("shape: with c=0 speedup saturates; growing contention turns "
              "saturation into the high-P collapse (Appendix B).\n");
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 250;
  bool quick = false;
  bool do_assert = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--assert-recycle") == 0) {
      do_assert = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablation_alloc [--quick] [--json PATH]"
                   " [--assert-recycle]\n");
      return 2;
    }
  }
  if (quick) duration_ms = 100;
  const std::vector<std::size_t> procs = quick
                                             ? std::vector<std::size_t>{1, 4}
                                             : std::vector<std::size_t>{1, 2, 4, 8};
  bench::JsonRows json(json_path, "bench_ablation_alloc",
                       {{"section", "recycle"}, {"duration_ms", duration_ms}});
  real_threads(duration_ms, procs);
  const std::vector<RecycleArm> arms = recycle_section(duration_ms, 4);
  for (const RecycleArm& r : arms) {
    json.row("recycle",
             {{"cell", r.cell},
              {"arm", r.arm},
              {"threads", r.threads},
              {"ops", r.ops},
              {"ops_per_sec", r.ops_per_sec},
              {"recycle_ratio", r.stats.recycle_ratio()},
              {"pool_lock_trips", r.pool_lock_trips},
              {"trips_per_op", r.trips_per_op}},
             r.stats);
  }
  if (do_assert && !assert_recycle(arms)) return 1;
  simulated({1, 8, 16, 32, 63});
  return 0;
}
