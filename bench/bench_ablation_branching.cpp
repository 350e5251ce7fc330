// Experiment E12 — branching-factor ablation.
//
// The paper's analysis is for binary trees. The cache-prefetch effect
// generalizes, but both of its ingredients shrink as nodes widen:
//   * the path gets shorter (log_B N levels) — less for a retry to reuse;
//   * the retry's uncached reload is B/(B−1) nodes -> 1 node, but each
//     node spans more cache lines.
// Two probes:
//   1. Simulator arity sweep: speedup and misses-per-retry for
//      B ∈ {2..32}, with node width scaled to the fanout, against the
//      arity-generalized closed form.
//   2. Real structures through the real UC: treap (binary), B+trees at
//      fanout 8/32, and the HAMT (64-way) on the Random workload.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util/runner.hpp"
#include "model/formulas.hpp"
#include "model/sim.hpp"
#include "persist/btree.hpp"
#include "persist/hamt.hpp"
#include "persist/treap.hpp"
#include "random_workload.hpp"

namespace {

using namespace pathcopy;

struct MixHash {
  std::uint64_t operator()(std::int64_t k) const noexcept {
    std::uint64_t x = static_cast<std::uint64_t>(k) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 200;
  std::vector<std::size_t> procs{1, 4, 8};
  bool sim_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      duration_ms = 80;
      procs = {1, 4};
    } else if (std::strcmp(argv[i], "--sim-only") == 0) {
      sim_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablation_branching [--quick] [--sim-only]\n");
      return 2;
    }
  }

  std::printf("### E12: branching-factor ablation\n\n");

  std::printf("== simulated arity sweep (N=2^18, M=2^13, R=100, P=16; node "
              "width scales with fanout) ==\n");
  std::printf("%-6s %-8s %-12s %-14s %-12s %-12s\n", "B", "lines", "path len",
              "miss/retry", "sim speedup", "formula");
  for (const std::size_t b : {2u, 4u, 8u, 16u, 32u}) {
    model::SimConfig cfg;
    cfg.num_leaves = 1 << 18;
    cfg.cache_lines = 1 << 13;
    cfg.miss_cost = 100;
    cfg.processes = 16;
    cfg.ops = 12000;
    cfg.branching = b;
    cfg.lines_per_node = std::max<std::size_t>(1, b / 4);  // ~16B per entry
    cfg.seed = 7;
    const auto res = model::run_protocol_sim(cfg);
    const double speedup = model::simulated_speedup(cfg);
    const double path = model::logb(double(cfg.num_leaves), double(b)) + 1;
    const double formula = model::predicted_speedup_bary(
        double(cfg.num_leaves), double(cfg.cache_lines),
        double(cfg.miss_cost), double(cfg.processes), double(b),
        double(cfg.lines_per_node));
    std::printf("%-6zu %-8zu %-12.1f %-14.2f %-12.2f %-12.2f\n", b,
                cfg.lines_per_node, path, res.misses_per_retry(), speedup,
                formula);
  }
  std::printf("law: miss/retry counts cache-line misses -> B/(B-1) modified "
              "nodes x lines-per-node; speedup declines as arity grows "
              "(shorter paths leave less for retries to reuse).\n");

  if (!sim_only) {
    using Treap = persist::Treap<std::int64_t, std::int64_t>;
    using B8 = persist::BTree<std::int64_t, std::int64_t, 8>;
    using B32 = persist::BTree<std::int64_t, std::int64_t, 32>;
    using H64 = persist::Hamt<std::int64_t, std::int64_t, 6, MixHash>;
    std::printf("\n== measured (real threads, Random workload, ops/s; %zu hw "
                "thread(s)) ==\n",
                bench::hardware_threads());
    std::printf("%-14s", "structure");
    for (const auto p : procs) std::printf("  %9zup", p);
    std::printf("\n");
    std::printf("%-14s", "treap (B=2)");
    for (const auto p : procs) {
      std::printf("  %10.0f", bench::run_random_atom<Treap>(p, duration_ms));
    }
    std::printf("\n%-14s", "b+tree F=8");
    for (const auto p : procs) {
      std::printf("  %10.0f", bench::run_random_atom<B8>(p, duration_ms));
    }
    std::printf("\n%-14s", "b+tree F=32");
    for (const auto p : procs) {
      std::printf("  %10.0f", bench::run_random_atom<B32>(p, duration_ms));
    }
    std::printf("\n%-14s", "hamt 64-way");
    for (const auto p : procs) {
      std::printf("  %10.0f", bench::run_random_atom<H64>(p, duration_ms));
    }
    std::printf("\nnote: single-thread absolute throughput favors wide nodes "
                "(fewer indirections); the *scaling ratio* favors deep "
                "binary paths, per the simulated sweep above.\n");
  }
  return 0;
}
