// Experiment E11 — sorted batch-apply vs per-op application inside the
// combining UC.
//
// Both modes run the identical announce/gather/install machinery; the
// only difference is what a winning combiner does with its gathered
// batch of B operations:
//   * per-op   — B independent root-to-leaf path copies (legacy loop),
//                O(B·log n) fresh nodes per install;
//   * batched  — one sorted split/merge sweep over a shared spine
//                (Treap::apply_sorted_batch), with same-key chains
//                collapsed to one effective op each.
//
// Section 1 (the tentpole measurement) drives the real install path at a
// controlled batch size through CombiningAtom::execute_batch: one driver
// thread offers batches of B ops — the gathered load of B announcing
// threads — against a 1M-key treap, 100% updates, and sweeps B × key
// locality. Key locality decides how much spine the batch shares:
// uniform keys share only ~lg B levels, while a contended hot range (the
// regime combining exists for) shares most of the path, which is where
// the O(B + shared-spine) bound beats O(B·log n) clearly.
//
// Section 2 runs the end-to-end real-thread sweep (threads × update
// ratio, both modes). The combiner runs with the gather window enabled
// in both modes: on hosts with fewer cores than threads a scheduling
// quantum dwarfs an op, batches never form naturally, and both modes
// degenerate to B=1 (see bench_ablation_combining); the one-yield window
// restores batch pressure, applied equally to both sides. On such hosts
// this section is scheduler-bound — per-op wall time is dominated by the
// two context switches each op costs — so Section 1 carries the
// apples-to-apples install-path comparison.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/batch_stats.hpp"
#include "bench_util/runner.hpp"
#include "core/combining.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "store/shard_stats.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using Treap = persist::Treap<std::int64_t, std::int64_t>;
template <class DS>
using CAFor = core::CombiningAtom<DS, reclaim::EpochReclaimer,
                                  alloc::ThreadCache, 64>;
using CA = CAFor<Treap>;

struct Config {
  std::size_t initial_keys = 1 << 20;  // pre-fill; key space is 2x this
  int duration_ms = 300;
  int trials = 3;  // install-path cells report the median trial
  std::vector<std::size_t> threads{1, 2, 4, 8};
  std::vector<int> update_pcts{100, 50};
  std::vector<unsigned> offered_batches{2, 8, 16, 32, 64};
  std::vector<unsigned> matrix_batches{8, 64};  // structure-matrix sweep
};

template <class DS>
struct HarnessT {
  alloc::PoolBackend pool;
  reclaim::EpochReclaimer smr;
  alloc::ThreadCache root_cache{pool};
  CAFor<DS> atom{smr, root_cache};

  explicit HarnessT(const Config& cfg, bool batched) {
    atom.set_batch_apply(batched);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    items.reserve(cfg.initial_keys);
    for (std::size_t i = 0; i < cfg.initial_keys; ++i) {
      items.emplace_back(static_cast<std::int64_t>(2 * i),
                         static_cast<std::int64_t>(i));
    }
    typename CAFor<DS>::Ctx ctx(smr, root_cache);
    atom.seed_sorted(ctx, items.begin(), items.end());
  }
};
using Harness = HarnessT<Treap>;

struct ModeResult {
  double ops_per_sec = 0.0;
  core::OpStats stats;
};

// ----- Section 1: install path at a controlled batch size -----

template <class DS>
ModeResult run_install_path(const Config& cfg, unsigned batch, bool batched,
                            std::int64_t hot_range) {
  using CAx = CAFor<DS>;
  HarnessT<DS> h(cfg, batched);
  const std::int64_t key_space =
      hot_range > 0 ? hot_range
                    : static_cast<std::int64_t>(2 * cfg.initial_keys);
  store::ShardStatsBoard board(1);
  const auto run = bench::run_timed(
      1, std::chrono::milliseconds(cfg.duration_ms),
      [&](std::size_t, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(h.pool);
        typename CAx::Ctx ctx(h.smr, cache);
        util::Xoshiro256 rng(17);
        std::vector<typename CAx::BatchRequest> reqs(
            batch, typename CAx::BatchRequest{CAx::OpKind::kInsert, 0, 0});
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (unsigned i = 0; i < batch; ++i) {
            const std::int64_t k = rng.range(0, key_space - 1);
            if (rng.chance(1, 2)) {
              reqs[i] = typename CAx::BatchRequest{CAx::OpKind::kInsert, k, k};
            } else {
              reqs[i] = typename CAx::BatchRequest{CAx::OpKind::kErase, k,
                                                   std::nullopt};
            }
          }
          // std::vector<bool> has no contiguous bool storage; a small
          // stack array keeps the span interface honest.
          bool results[64];
          h.atom.execute_batch(
              ctx,
              std::span<const typename CAx::BatchRequest>(reqs.data(), batch),
              std::span<bool>(results, batch));
          ops += batch;
        }
        board.add(0, ctx.stats);
        return ops;
      });
  ModeResult res;
  res.ops_per_sec = run.ops_per_sec();
  res.stats = board.total();
  return res;
}

void section_install_path(const Config& cfg) {
  std::printf("--- install path: B ops per install (B announcing threads' "
              "gathered load), 100%% updates, %zu initial keys ---\n\n",
              cfg.initial_keys);
  struct Locality {
    const char* name;
    std::int64_t hot_range;  // 0 = uniform over the full key space
  };
  const Locality locs[] = {
      {"uniform", 0}, {"hot-4096", 4096}, {"hot-256", 256}};
  std::printf("%-9s  %3s  %12s  %12s  %8s  %12s\n", "locality", "B",
              "per-op ops/s", "batch ops/s", "speedup", "saved/install");
  const auto median_of = [&cfg](auto&& one_trial) {
    std::vector<ModeResult> runs;
    for (int t = 0; t < cfg.trials; ++t) runs.push_back(one_trial());
    std::sort(runs.begin(), runs.end(),
              [](const ModeResult& x, const ModeResult& y) {
                return x.ops_per_sec < y.ops_per_sec;
              });
    return runs[runs.size() / 2];
  };
  for (const Locality& loc : locs) {
    for (const unsigned b : cfg.offered_batches) {
      const ModeResult per_op = median_of([&] {
        return run_install_path<Treap>(cfg, b, /*batched=*/false,
                                       loc.hot_range);
      });
      const ModeResult batched = median_of([&] {
        return run_install_path<Treap>(cfg, b, /*batched=*/true,
                                       loc.hot_range);
      });
      const double speedup = per_op.ops_per_sec == 0.0
                                 ? 0.0
                                 : batched.ops_per_sec / per_op.ops_per_sec;
      std::printf("%-9s  %3u  %12.0f  %12.0f  %7.2fx  %12.1f\n", loc.name, b,
                  per_op.ops_per_sec, batched.ops_per_sec, speedup,
                  bench::spine_savings_per_install(batched.stats));
    }
  }
  std::printf("\n");
}

// ----- Section 1b: the full E8 structure matrix through the install path -----

void section_structure_matrix(const Config& cfg) {
  std::printf("--- structure matrix: every SupportsSortedBatch structure "
              "through the same install path (B ops/install, 100%% updates, "
              "hot-256 + uniform) ---\n\n");
  std::printf("%-8s  %-9s  %3s  %12s  %12s  %8s  %12s\n", "struct",
              "locality", "B", "per-op ops/s", "batch ops/s", "speedup",
              "saved/install");
  const auto sweep = [&](const char* name, auto tag) {
    using DS = typename decltype(tag)::type;
    struct Cell {
      const char* loc;
      std::int64_t hot;
    };
    const Cell cells[] = {{"hot-256", 256}, {"uniform", 0}};
    for (const Cell& cell : cells) {
      for (const unsigned b : cfg.matrix_batches) {
        const ModeResult per_op =
            run_install_path<DS>(cfg, b, /*batched=*/false, cell.hot);
        const ModeResult batched =
            run_install_path<DS>(cfg, b, /*batched=*/true, cell.hot);
        const double speedup = per_op.ops_per_sec == 0.0
                                   ? 0.0
                                   : batched.ops_per_sec / per_op.ops_per_sec;
        std::printf("%-8s  %-9s  %3u  %12.0f  %12.0f  %7.2fx  %12.1f\n", name,
                    cell.loc, b, per_op.ops_per_sec, batched.ops_per_sec,
                    speedup,
                    bench::spine_savings_per_install(batched.stats));
      }
    }
  };
  sweep("treap", std::type_identity<Treap>{});
  sweep("avl", std::type_identity<persist::AvlTree<std::int64_t, std::int64_t>>{});
  sweep("btree8",
        std::type_identity<persist::BTree<std::int64_t, std::int64_t, 8>>{});
  sweep("rbt", std::type_identity<persist::RbTree<std::int64_t, std::int64_t>>{});
  sweep("wbt", std::type_identity<persist::WbTree<std::int64_t, std::int64_t>>{});
  sweep("extbst",
        std::type_identity<persist::ExternalBst<std::int64_t, std::int64_t>>{});
  std::printf("\n");
}

// ----- Section 2: end-to-end real threads -----

ModeResult run_threads(const Config& cfg, std::size_t procs, int update_pct,
                       bool batched) {
  Harness h(cfg, batched);
  h.atom.set_gather_window(true);
  const auto key_space = static_cast<std::int64_t>(2 * cfg.initial_keys);
  store::ShardStatsBoard board(1);
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(cfg.duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(h.pool);
        CA::Ctx ctx(h.smr, cache);
        const unsigned slot = h.atom.register_slot();
        util::Xoshiro256 rng(tid * 104729 + 13);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, key_space - 1);
          if (static_cast<int>(rng.range(0, 99)) < update_pct) {
            if (rng.chance(1, 2)) {
              h.atom.insert(ctx, slot, k, k);
            } else {
              h.atom.erase(ctx, slot, k);
            }
          } else {
            h.atom.read(ctx, [k](Treap t) { return t.contains(k); });
          }
          ++ops;
        }
        board.add(0, ctx.stats);
        return ops;
      });
  ModeResult res;
  res.ops_per_sec = run.ops_per_sec();
  res.stats = board.total();
  return res;
}

void section_threads(const Config& cfg) {
  std::printf("--- end-to-end: real threads x update ratio (gather window "
              "on; scheduler-bound when threads > cores) ---\n\n");
  std::printf("%7s  %6s  %12s  %12s  %8s  %10s  %12s\n", "threads", "upd%",
              "per-op ops/s", "batch ops/s", "speedup", "mean batch",
              "saved/install");
  core::OpStats contended_stats;
  for (const int pct : cfg.update_pcts) {
    for (const std::size_t p : cfg.threads) {
      const ModeResult per_op = run_threads(cfg, p, pct, /*batched=*/false);
      const ModeResult batched = run_threads(cfg, p, pct, /*batched=*/true);
      const double speedup = per_op.ops_per_sec == 0.0
                                 ? 0.0
                                 : batched.ops_per_sec / per_op.ops_per_sec;
      std::printf("%7zu  %5d%%  %12.0f  %12.0f  %7.2fx  %10.2f  %12.1f\n", p,
                  pct, per_op.ops_per_sec, batched.ops_per_sec, speedup,
                  batched.stats.mean_batch_size(),
                  bench::spine_savings_per_install(batched.stats));
      if (pct == cfg.update_pcts.front() && p == cfg.threads.back()) {
        contended_stats = batched.stats;
      }
    }
  }
  std::printf("\nhighest-contention cell (last threads row, first upd%% "
              "column):\n");
  bench::print_histogram(stdout, "batch", contended_stats.batch_hist,
                         contended_stats.batched_installs);
  bench::print_recycle_stats(stdout, contended_stats);
  std::printf("batched installs: %llu of %llu installs; spine-copy savings "
              "are vs a ~lg(n) copies per landing op estimate.\n",
              static_cast<unsigned long long>(contended_stats.batched_installs),
              static_cast<unsigned long long>(contended_stats.updates));
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool install_only = false, threads_only = false, matrix_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.initial_keys = 1 << 16;
      cfg.duration_ms = 80;
      cfg.trials = 1;
      cfg.threads = {1, 8};
      cfg.update_pcts = {100};
      cfg.offered_batches = {8, 64};
      cfg.matrix_batches = {64};
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      cfg.duration_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--initial") == 0 && i + 1 < argc) {
      cfg.initial_keys = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--install-only") == 0) {
      install_only = true;
    } else if (std::strcmp(argv[i], "--threads-only") == 0) {
      threads_only = true;
    } else if (std::strcmp(argv[i], "--matrix-only") == 0) {
      matrix_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_batch_combining [--quick] [--duration-ms N]"
                   " [--initial N] [--install-only | --threads-only |"
                   " --matrix-only]\n");
      return 2;
    }
  }

  std::printf("### E11: sorted batch-apply vs per-op combining "
              "(%zu initial keys, %d ms/cell, %zu hw thread(s))\n\n",
              cfg.initial_keys, cfg.duration_ms, bench::hardware_threads());
  if (matrix_only) {
    section_structure_matrix(cfg);
    return 0;
  }
  if (!threads_only) {
    section_install_path(cfg);
    section_structure_matrix(cfg);
  }
  if (!install_only) section_threads(cfg);
  return 0;
}
