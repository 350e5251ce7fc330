// Experiment E7 — reclamation-scheme ablation.
//
// The paper's Java artifact gets memory reclamation for free from the GC;
// the C++ port must pick an SMR scheme, and this bench quantifies what
// each costs under the write-only UC treap workload:
//
//   leaky+arena  — no reclamation: nodes are never freed, each thread
//                  bump-allocates from its own arena
//   epoch        — default: thread-local retire buckets; a registry scan
//                  tries to advance the epoch once per 512 units of
//                  retire volume (1 per bundle plus 1 per node)
//   watermark    — the version-keyed body (reclaim/version_reclaimer.hpp)
//                  with the watermark pin rule: announce the version,
//                  then load the root. Every retire takes the one global
//                  bundle lock; every 64th retire per thread collects,
//                  reading every slot and every pending bundle under it.
//                  Also backs long-lived snapshots (unused here).
//   hazard-root  — the same body with the hazard-era pin rule: load the
//                  version and the root, announce the era, re-load the
//                  root and retry if it moved.
//
// Also reports reclamation health: the largest backlog of nodes retired
// but not yet freed at the end of any cell of the row (it must stay
// bounded). Every scheme runs the same client loop through one row
// function; only the reclaimer and each client's allocator differ.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/runner.hpp"
#include "core/atom.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/watermark.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using T = persist::Treap<std::int64_t, std::int64_t>;

constexpr std::int64_t kKeyRange = 1 << 16;

struct Cell {
  double ops_per_sec = 0.0;
  std::uint64_t pending = 0;  // retired, not yet freed, when clients stop
};

// One cell: `procs` clients run the 50/50 insert/erase mix over uniform
// keys on one Atom for `duration_ms`, each through its own Alloc — a
// ThreadCache over one shared pool, or a private bump Arena.
template <class Smr, class Alloc>
Cell run_cell(std::size_t procs, int duration_ms) {
  using AtomT = core::Atom<T, Smr, Alloc>;
  typename Alloc::RetireBackend backend;
  Smr smr;
  // The allocators outlive the Atom: under the arena the final version's
  // nodes live in them, and the Atom destructor walks that tree.
  std::vector<std::unique_ptr<Alloc>> allocs;
  for (std::size_t i = 0; i < procs; ++i) {
    if constexpr (std::is_constructible_v<Alloc, decltype(backend)&>) {
      allocs.push_back(std::make_unique<Alloc>(backend));
    } else {
      allocs.push_back(std::make_unique<Alloc>());
    }
  }
  AtomT atom(smr, backend);
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        typename AtomT::Ctx ctx(smr, *allocs[tid]);
        util::Xoshiro256 rng(tid * 31337 + 7);
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
  return {run.ops_per_sec(), smr.pending_nodes()};
}

// One table row: a cell per process count, then the row's largest
// end-of-cell backlog (the leaky scheme frees nothing, so it has none).
template <class Smr, class Alloc>
void print_row(const char* scheme, const std::vector<std::size_t>& procs,
               int duration_ms) {
  std::printf("%-14s", scheme);
  std::uint64_t max_pending = 0;
  for (const auto p : procs) {
    const Cell c = run_cell<Smr, Alloc>(p, duration_ms);
    std::printf("  %10.0f", c.ops_per_sec);
    max_pending = std::max(max_pending, c.pending);
  }
  if constexpr (std::is_same_v<Smr, reclaim::LeakyReclaimer>) {
    std::printf("   n/a (never frees)\n");
  } else {
    std::printf("   %llu\n", static_cast<unsigned long long>(max_pending));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 250;
  std::vector<std::size_t> procs{1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      duration_ms = 100;
      procs = {1, 4};
    } else {
      std::fprintf(stderr, "usage: bench_ablation_reclaim [--quick]\n");
      return 2;
    }
  }

  std::printf("== E7: reclamation scheme vs throughput (ops/s) ==\n");
  std::printf("%-14s", "scheme");
  for (const auto p : procs) std::printf("  %9zup", p);
  std::printf("   max pending@end\n");

  print_row<reclaim::LeakyReclaimer, alloc::Arena>("leaky+arena", procs,
                                                   duration_ms);
  print_row<reclaim::EpochReclaimer, alloc::ThreadCache>("epoch", procs,
                                                         duration_ms);
  print_row<reclaim::WatermarkReclaimer, alloc::ThreadCache>(
      "watermark", procs, duration_ms);
  print_row<reclaim::HazardRootReclaimer, alloc::ThreadCache>(
      "hazard-root", procs, duration_ms);

  std::printf("\nexpected shape: leaky+arena frees nothing but writes every "
              "copy into a fresh, never-reused block, so it need not lead: "
              "epoch's thread-local retires recycle cache-hot blocks and "
              "can beat it. watermark and hazard-root pay the one bundle "
              "lock per retire plus a slot and bundle scan under it every "
              "64th, and hazard-root re-loads the root per pin. The largest "
              "pending backlog stays bounded (at most about 1e5 nodes, not "
              "millions) for every scheme that frees.\n");
  return 0;
}
