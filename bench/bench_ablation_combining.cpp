// Experiment E10 — combining ablation: what happens to the paper's
// construction when the serialized-CAS bottleneck is attacked directly.
//
// Four implementations of the same concurrent set, Random workload:
//   * uc-atom        — the paper's construction (1 CAS per update);
//   * uc-combining   — PSim-style lock-free combining (1 CAS per batch);
//   * flat-combining — lock-based combining over the mutable treap;
//   * coarse-lock    — one mutex around the mutable treap.
// Also reported: the combining batch size (announced ops absorbed per
// installed version), the quantity that grows with contention and is the
// mechanism by which combining wins at high P.
//
// On this 1-vCPU host the absolute ordering compresses (no true
// parallelism); the batch-size column still demonstrates the combining
// machinery working, and the bench is parameterized to be meaningful on
// a real multicore.
#include <cstdio>
#include <cstring>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/runner.hpp"
#include "core/combining.hpp"
#include "persist/treap.hpp"
#include "random_workload.hpp"
#include "reclaim/epoch.hpp"
#include "seq/flat_combining.hpp"
#include "seq/seq_treap.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using Treap = persist::Treap<std::int64_t, std::int64_t>;

struct CombiningResult {
  double ops_per_sec = 0.0;
  double batch = 1.0;  // announced ops absorbed per installed version
};

CombiningResult run_combining(std::size_t procs, int duration_ms) {
  alloc::PoolBackend pool;
  reclaim::EpochReclaimer smr;
  using CA = core::CombiningAtom<Treap, reclaim::EpochReclaimer,
                                 alloc::ThreadCache, 64>;
  alloc::ThreadCache root_cache(pool);
  CA atom(smr, root_cache);
  std::atomic<std::uint64_t> installs{0}, combined{0};
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        CA::Ctx ctx(smr, cache);
        const unsigned slot = atom.register_slot();
        util::Xoshiro256 rng(tid * 104729 + 3);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, bench::kRandomKeyRange);
          if (rng.chance(1, 2)) {
            atom.insert(ctx, slot, k, k);
          } else {
            atom.erase(ctx, slot, k);
          }
          ++ops;
        }
        installs += ctx.stats.updates;
        combined += ctx.stats.combined_ops;
        return ops;
      });
  CombiningResult res;
  res.ops_per_sec = run.ops_per_sec();
  res.batch = installs.load() == 0
                  ? 1.0
                  : double(combined.load()) / double(installs.load());
  return res;
}

double run_flat_combining(std::size_t procs, int duration_ms) {
  seq::FlatCombining<seq::SeqTreap<std::int64_t, std::int64_t>, 64> fc;
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        const unsigned slot = fc.register_slot();
        util::Xoshiro256 rng(tid * 104729 + 3);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, bench::kRandomKeyRange);
          if (rng.chance(1, 2)) {
            fc.insert(slot, k, k);
          } else {
            fc.erase(slot, k);
          }
          ++ops;
        }
        return ops;
      });
  return run.ops_per_sec();
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 200;
  std::vector<std::size_t> procs{1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      duration_ms = 80;
      procs = {1, 4};
    } else {
      std::fprintf(stderr, "usage: bench_ablation_combining [--quick]\n");
      return 2;
    }
  }

  std::printf("### E10: combining ablation, Random workload (ops/s; %zu hw "
              "thread(s))\n\n",
              bench::hardware_threads());
  std::printf("%-16s", "construction");
  for (const auto p : procs) std::printf("  %9zup", p);
  std::printf("\n");

  std::printf("%-16s", "uc-atom");
  for (const auto p : procs) {
    std::printf("  %10.0f", bench::run_random_atom<Treap>(p, duration_ms));
  }
  std::printf("\n");

  std::vector<CombiningResult> comb;
  std::printf("%-16s", "uc-combining");
  for (const auto p : procs) {
    comb.push_back(run_combining(p, duration_ms));
    std::printf("  %10.0f", comb.back().ops_per_sec);
  }
  std::printf("\n");

  std::printf("%-16s", "flat-combining");
  for (const auto p : procs) {
    std::printf("  %10.0f", run_flat_combining(p, duration_ms));
  }
  std::printf("\n");

  std::printf("%-16s", "coarse-lock");
  for (const auto p : procs) {
    std::printf("  %10.0f", bench::run_random_locked(p, duration_ms));
  }
  std::printf("\n");

  std::printf("\n%-16s", "combining batch");
  for (const auto& c : comb) std::printf("  %10.2f", c.batch);
  std::printf("\nbatch = announced ops absorbed per installed version; 1.0 "
              "uncontended, grows toward P under contention — each CAS "
              "completes that many operations.\n");
  return 0;
}
