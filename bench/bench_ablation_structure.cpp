// Experiment E8 — structure generality ablation.
//
// The UC is agnostic to the underlying path-copying structure. This bench
// runs the Random workload over the persistent treap (the paper's choice),
// the external BST (the analysis model's choice) and the AVL tree, plus
// the coarse-locked mutable treap as the blocking baseline. It reports
// throughput and the per-update copy cost (nodes created per installed
// update) for each — the treap's split/merge copies roughly twice the
// plain search path, AVL adds rotation copies, and the external BST copies
// exactly the internal path.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "core/builder.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "random_workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;

// Sorted-batch apply cost over the full E8 matrix: nodes created per op
// when a key-sorted batch of B ops is applied in one sweep, vs the
// per-op loop on the same structure. The batch bound is
// O(B + shared-spine), so fat B-tree nodes amortize differently than
// slim BSTs — which is what this table exposes per balancing discipline.
template <class DS>
double batch_apply_cost(std::size_t initial, unsigned batch,
                        std::int64_t hot_range, bool batched) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  util::Xoshiro256 rng(11);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(initial);
  for (std::size_t i = 0; i < initial; ++i) {
    items.emplace_back(static_cast<std::int64_t>(2 * i),
                       static_cast<std::int64_t>(i));
  }
  core::Builder<alloc::ThreadCache> seed(cache);
  DS t = DS::from_sorted(seed, items.begin(), items.end());
  seed.seal();
  (void)seed.commit();
  const std::int64_t key_space =
      hot_range > 0 ? hot_range : static_cast<std::int64_t>(2 * initial);

  std::uint64_t created = 0, ops_done = 0;
  std::vector<typename DS::BatchOp> ops;
  std::vector<typename DS::BatchOutcome> out;
  for (int round = 0; round < 300; ++round) {
    ops.clear();
    std::set<std::int64_t> used;
    while (ops.size() < batch) {
      const std::int64_t k = rng.range(0, key_space - 1);
      if (!used.insert(k).second) continue;
      if (rng.chance(1, 2)) {
        ops.push_back(typename DS::BatchOp{DS::BatchOpKind::kInsert, k, k});
      } else {
        ops.push_back(
            typename DS::BatchOp{DS::BatchOpKind::kErase, k, std::nullopt});
      }
    }
    std::sort(ops.begin(), ops.end(),
              [](const auto& x, const auto& y) { return x.key < y.key; });
    out.resize(ops.size());
    core::Builder<alloc::ThreadCache> b(cache);
    DS next = t;
    if (batched) {
      next = t.apply_sorted_batch(b, ops, out);
    } else {
      for (const auto& op : ops) {
        next = op.kind == DS::BatchOpKind::kInsert
                   ? next.insert(b, op.key, *op.value)
                   : next.erase(b, op.key);
      }
    }
    created += b.stats().created;
    ops_done += ops.size();
    b.seal();
    auto retired = b.commit();
    reclaim::run_all(retired);
    t = next;
  }
  return ops_done == 0
             ? 0.0
             : static_cast<double>(created) / static_cast<double>(ops_done);
}

// Copy cost: nodes created per successful update, measured standalone.
template <class DS>
double copy_cost(std::size_t n) {
  alloc::PoolBackend pool;
  alloc::ThreadCache cache(pool);
  util::Xoshiro256 rng(5);
  DS t;
  std::uint64_t created = 0, installs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    core::Builder<alloc::ThreadCache> b(cache);
    const std::int64_t k = rng.range(0, bench::kRandomKeyRange);
    DS next = rng.chance(1, 2) ? t.insert(b, k, k) : t.erase(b, k);
    if (next.root_ptr() != t.root_ptr()) {
      created += b.stats().created;
      ++installs;
      b.seal();
      auto retired = b.commit();
      reclaim::run_all(retired);
      t = next;
    } else {
      b.rollback();
    }
  }
  return installs == 0 ? 0.0
                       : static_cast<double>(created) /
                             static_cast<double>(installs);
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
      std::fprintf(stderr, "usage: bench_ablation_structure [--quick]\n");
      return 2;
    }
  }
  using Treap = persist::Treap<std::int64_t, std::int64_t>;
  using Avl = persist::AvlTree<std::int64_t, std::int64_t>;
  using Ebst = persist::ExternalBst<std::int64_t, std::int64_t>;
  using Wbt = persist::WbTree<std::int64_t, std::int64_t>;
  using Rbt = persist::RbTree<std::int64_t, std::int64_t>;
  using B8 = persist::BTree<std::int64_t, std::int64_t, 8>;

  std::printf("== E8: structure ablation, Random workload (ops/s) ==\n");
  std::printf("%-14s", "structure");
  for (const auto p : procs) std::printf("  %9zup", p);
  std::printf("\n");

  const auto random_row = [&](const char* name, auto run) {
    std::printf("%-14s", name);
    for (const auto p : procs) std::printf("  %10.0f", run(p, duration_ms));
    std::printf("\n");
  };
  random_row("uc-treap", bench::run_random_atom<Treap>);
  random_row("uc-extbst", bench::run_random_atom<Ebst>);
  random_row("uc-avl", bench::run_random_atom<Avl>);
  random_row("uc-wbt", bench::run_random_atom<Wbt>);
  random_row("uc-rbt", bench::run_random_atom<Rbt>);
  random_row("uc-btree8", bench::run_random_atom<B8>);
  random_row("locked-treap", bench::run_random_locked);

  std::printf("\n== E8: path-copy cost (nodes created per installed update, "
              "steady state at ~%d keys) ==\n", 1 << 15);
  std::printf("treap (split/merge): %6.1f\n", copy_cost<Treap>(60000));
  std::printf("external bst:        %6.1f\n", copy_cost<Ebst>(60000));
  std::printf("avl (rotations):     %6.1f\n", copy_cost<Avl>(60000));
  std::printf("weight-balanced:     %6.1f\n", copy_cost<Wbt>(60000));
  std::printf("red-black:           %6.1f\n", copy_cost<Rbt>(60000));
  std::printf("b+tree fanout 8:     %6.1f\n", copy_cost<B8>(60000));
  std::printf("\nexpected: extbst ~= path length; treap ~= 2x path (split + "
              "merge); avl ~= path + rotation copies; rbt ~= path + recolor "
              "cascade; b+tree ~= its short log_F path (but fat nodes).\n");

  // E8b: the sorted-batch matrix — every structure through the one-sweep
  // batch apply, uniform vs hot-range keys, vs its own per-op loop.
  const std::size_t binit = 1 << 15;
  const unsigned B = duration_ms <= 100 ? 32u : 64u;
  std::printf("\n== E8b: sorted batch-apply, nodes created per op "
              "(B = %u, %zu initial keys) ==\n", B, binit);
  std::printf("%-14s  %10s  %12s  %12s  %12s\n", "structure", "per-op",
              "batch-unif", "batch-hot256", "hot speedup");
  const auto row = [&](const char* name, auto tag) {
    using DS = typename decltype(tag)::type;
    const double per_op = batch_apply_cost<DS>(binit, B, 0, false);
    const double bu = batch_apply_cost<DS>(binit, B, 0, true);
    const double bh = batch_apply_cost<DS>(binit, B, 256, true);
    const double ph = batch_apply_cost<DS>(binit, B, 256, false);
    std::printf("%-14s  %10.1f  %12.1f  %12.1f  %11.2fx\n", name, per_op, bu,
                bh, bh == 0.0 ? 0.0 : ph / bh);
  };
  row("treap", std::type_identity<Treap>{});
  row("avl", std::type_identity<Avl>{});
  row("btree8", std::type_identity<B8>{});
  row("rbt", std::type_identity<Rbt>{});
  row("wbt", std::type_identity<Wbt>{});
  row("extbst", std::type_identity<Ebst>{});
  std::printf("\nhot speedup = per-op copies / batch copies on a hot-256 "
              "range: the shared spine pays most where the batch clusters.\n");
  return 0;
}
