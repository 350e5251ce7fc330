// Store-layer bench: throughput vs shard count × UC backend × ingest
// pipeline on an update-heavy workload (acceptance experiment for the
// sharding and async-pipeline PRs).
//
// The single-atom UC is capped by one CAS stream per structure; S shards
// give S independent install streams. Every cell runs the same workload
// through ShardedMap over a uniform tablet table (equal-width keyspace
// split, one tablet per shard, so per-shard streams stay local) in three
// ingest modes:
//
//   * per-op      — each thread routes point inserts/erases to the owning
//     shard (the classic workload, one root CAS per landing op on the
//     plain backend);
//   * batch-sync  — each thread offers client batches of B ops through the
//     cross-shard splitter and walks the shards itself, one sub-batch
//     install after another;
//   * batch-async — a ShardExecutor is attached: the same client batches
//     scatter into per-shard lock-free submission lanes and join on a
//     ticket, so the S installs of one client batch run concurrently,
//     every client's sub-batches funnel through the shard's one
//     combiner-affine thread, and a worker wakeup that finds several
//     tickets queued hands them to execute_batch as one span, which the
//     combining backend installs with one CAS (the executor-lanes
//     section below reports and asserts exactly that).
//
// Backends are swept through the UniversalConstruction concept: the same
// harness instantiates the plain Atom and the CombiningAtom, which is the
// point of the concept refactor. Per-shard install/batch/queue accounting
// comes from the ShardStatsBoard (sessions + executor workers folded) and
// is printed for the widest configuration.
//
// The cut-read section exercises the other tentpole: concurrent readers
// composing cross-shard size()/items() as vector-clock-consistent cuts
// while writers churn, reporting cut throughput and the re-pin (retry)
// pressure the validation loop absorbed.
//
// On hosts with fewer cores than threads the absolute numbers are
// scheduler-bound (see bench_batch_combining's header) — the async mode
// in particular pays S extra worker threads' context switches; the
// shard-count *trend* within one backend and mode remains the comparison
// of record.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/json_rows.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/avl.hpp"
#include "persist/btree.hpp"
#include "persist/external_bst.hpp"
#include "persist/rbt.hpp"
#include "persist/treap.hpp"
#include "persist/wbt.hpp"
#include "reclaim/epoch.hpp"
#include "store/executor.hpp"
#include "store/rebalancer.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using Treap = persist::Treap<std::int64_t, std::int64_t>;
using Smr = reclaim::EpochReclaimer;
using TC = alloc::ThreadCache;
using PlainUc = core::Atom<Treap, Smr, TC>;
using CombUc = core::CombiningAtom<Treap, Smr, TC>;
using Router = store::TabletRouter<std::int64_t>;

enum class Skew { kZipf, kHot, kMoving };

struct Config {
  std::size_t initial_keys = 1 << 20;  // pre-fill; key space is 2x this
  int duration_ms = 300;
  std::size_t threads = 4;
  std::vector<std::size_t> shards{1, 2, 4, 8};
  unsigned batch = 64;
  bool run_sync = true;
  bool run_async = true;
  // Skew sweep (rebalancing acceptance experiment):
  std::vector<Skew> skews;       // --skew (repeatable); defaults to zipf
  bool skew_only = false;        // --skew given: run just the skew sweep
  bool assert_migrated = false;  // exit 1 unless the adaptive cells balanced
  const char* json_path = nullptr;  // --json: machine-readable skew rows
  // Executor-lanes acceptance (the lock-free lane + coalescing PR):
  bool assert_coalesce = false;  // exit 1 unless a contended cell coalesced
  bool lanes_only = false;       // run just the lanes section (CI smoke)
  const char* lanes_json = nullptr;  // --lanes-json: lanes artifact
};

enum class Mode { kPerOp, kBatchSync, kBatchAsync };

struct Cell {
  double ops_per_sec = 0.0;
  core::OpStats total;
};

std::int64_t key_space_of(const Config& cfg) {
  return static_cast<std::int64_t>(2 * cfg.initial_keys);
}

/// Every cell's store has the same shape: equal-width tablets over the
/// doubled key space, pre-filled with the even keys in one bulk load.
/// One seeding scheme, one place (cells and the cut section must agree
/// or they benchmark differently-shaped stores).
template <class Map, class Alloc>
void seed_even_keys(const Config& cfg, Map& map, Alloc& alloc) {
  typename Map::Session seeder(map, alloc);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(cfg.initial_keys);
  for (std::size_t i = 0; i < cfg.initial_keys; ++i) {
    items.emplace_back(static_cast<std::int64_t>(2 * i),
                       static_cast<std::int64_t>(i));
  }
  seeder.seed_sorted(items.begin(), items.end());
}

template <class Uc>
Cell run_cell(const Config& cfg, std::size_t shards, Mode mode,
              store::ShardStatsBoard& board) {
  using Map = store::ShardedMap<Uc, Router>;
  alloc::PoolBackend pool;
  alloc::ThreadCache root_cache(pool);
  const std::int64_t key_space = key_space_of(cfg);
  Map map(shards, root_cache, Router::uniform(0, key_space, shards));
  // The executor (if any) is attached before seeding, so the bulk load
  // itself also goes through the per-shard workers.
  std::optional<store::ShardExecutor<Uc>> exec;
  if (mode == Mode::kBatchAsync) {
    exec.emplace(map, [&pool] { return alloc::ThreadCache(pool); });
  }
  seed_even_keys(cfg, map, root_cache);
  for (std::size_t s = 0; s < shards; ++s) {
    // One-yield announce window so combining batches form on hosts with
    // fewer cores than threads (no-op for the plain backend).
    if constexpr (requires(Uc& u) { u.set_gather_window(true); }) {
      map.shard(s).set_gather_window(true);
    }
  }
  const bool batch_mode = mode != Mode::kPerOp;
  const auto run = bench::run_timed(
      cfg.threads, std::chrono::milliseconds(cfg.duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        typename Map::Session sess(map, cache);
        util::Xoshiro256 rng(tid * 104729 + 31);
        std::uint64_t ops = 0;
        if (batch_mode) {
          using Req = typename Map::BatchRequest;
          using K = typename Map::OpKind;
          std::vector<Req> reqs(cfg.batch, Req{K::kInsert, 0, 0});
          const auto out = std::make_unique<bool[]>(cfg.batch);
          while (!stop.load(std::memory_order_relaxed)) {
            for (unsigned i = 0; i < cfg.batch; ++i) {
              const std::int64_t k = rng.range(0, key_space - 1);
              reqs[i] = rng.chance(1, 2) ? Req{K::kInsert, k, k}
                                         : Req{K::kErase, k, std::nullopt};
            }
            sess.execute_batch(reqs, std::span<bool>(out.get(), cfg.batch));
            ops += cfg.batch;
          }
        } else {
          while (!stop.load(std::memory_order_relaxed)) {
            const std::int64_t k = rng.range(0, key_space - 1);
            if (rng.chance(1, 2)) {
              sess.insert(k, k);
            } else {
              sess.erase(k);
            }
            ++ops;
          }
        }
        sess.fold_into(board);
        return ops;
      });
  if (exec.has_value()) {
    exec->stop();
    exec->fold_into(board);  // queue depth / task latency / install stats
    exec.reset();
  }
  Cell cell;
  cell.ops_per_sec = run.ops_per_sec();
  cell.total = board.total();
  return cell;
}

/// Runs one backend's shard sweep and returns the widest configuration's
/// batch-ingest board — async when the async mode ran, else sync — for
/// the per-shard stats printout.
template <class Uc>
std::unique_ptr<store::ShardStatsBoard> sweep_backend(const Config& cfg,
                                                      const char* name) {
  std::unique_ptr<store::ShardStatsBoard> widest;
  for (const std::size_t s : cfg.shards) {
    store::ShardStatsBoard per_op_board(s);
    const Cell per_op =
        run_cell<Uc>(cfg, s, Mode::kPerOp, per_op_board);
    Cell sync_cell;
    auto sync_board = std::make_unique<store::ShardStatsBoard>(s);
    if (cfg.run_sync) {
      sync_cell = run_cell<Uc>(cfg, s, Mode::kBatchSync, *sync_board);
    }
    Cell async_cell;
    auto async_board = std::make_unique<store::ShardStatsBoard>(s);
    if (cfg.run_async) {
      async_cell = run_cell<Uc>(cfg, s, Mode::kBatchAsync, *async_board);
    }
    const core::OpStats& bt =
        cfg.run_async ? async_cell.total : sync_cell.total;
    std::printf("%-9s  %6zu  %13.0f  %13.0f  %13.0f  %10.2f  %8.1f%%\n",
                name, s, per_op.ops_per_sec, sync_cell.ops_per_sec,
                async_cell.ops_per_sec, bt.mean_batch_size(),
                100.0 * bt.batched_share());
    if (s == cfg.shards.back()) {
      widest = cfg.run_async ? std::move(async_board) : std::move(sync_board);
    }
  }
  return widest;
}

/// The cut section's thread topology, computed once: the banner in
/// main() and the workload in cut_read_bench must describe the same
/// split.
struct CutTopology {
  std::size_t writers;
  std::size_t readers;
};

CutTopology cut_topology(const Config& cfg) {
  const std::size_t writers = cfg.threads >= 2 ? cfg.threads / 2 : 1;
  const std::size_t readers =
      cfg.threads > writers ? cfg.threads - writers : 1;
  return {writers, readers};
}

/// Cut-read section: writers churn point updates while readers compose
/// cross-shard size() (and every 64th round, full items()) as consistent
/// cuts. Reports the cut rate and the retry pressure — how often a
/// shard's version moved inside the pin/validate window.
template <class Uc>
void cut_read_bench(const Config& cfg, std::size_t shards,
                    const char* name) {
  using Map = store::ShardedMap<Uc, Router>;
  alloc::PoolBackend pool;
  alloc::ThreadCache root_cache(pool);
  const std::int64_t key_space = key_space_of(cfg);
  Map map(shards, root_cache, Router::uniform(0, key_space, shards));
  seed_even_keys(cfg, map, root_cache);
  const auto [writers, readers] = cut_topology(cfg);
  store::ShardStatsBoard board(shards);
  std::atomic<std::uint64_t> cuts{0};
  const auto run = bench::run_timed(
      writers + readers, std::chrono::milliseconds(cfg.duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        typename Map::Session sess(map, cache);
        util::Xoshiro256 rng(tid * 7919 + 3);
        std::uint64_t ops = 0;
        if (tid < writers) {
          while (!stop.load(std::memory_order_relaxed)) {
            const std::int64_t k = rng.range(0, key_space - 1);
            if (rng.chance(1, 2)) {
              sess.insert(k, k);
            } else {
              sess.erase(k);
            }
            ++ops;
          }
        } else {
          std::uint64_t round = 0;
          std::size_t sink = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (++round % 64 == 0) {
              sink += sess.items().size();
            } else {
              sink += sess.size();
            }
            ++ops;
          }
          cuts.fetch_add(ops, std::memory_order_relaxed);
          if (sink == ~std::size_t{0}) std::printf("?");  // keep sink live
        }
        sess.fold_into(board);
        return ops;
      });
  (void)run;
  const core::OpStats total = board.total();
  const double n_cuts = static_cast<double>(cuts.load());
  const double retries_per_cut =
      n_cuts == 0.0 ? 0.0 : static_cast<double>(total.cut_retries) / n_cuts;
  std::printf("%-9s  %6zu  %11.0f  %14.3f  %12llu\n", name, shards,
              n_cuts * 1000.0 / cfg.duration_ms, retries_per_cut,
              static_cast<unsigned long long>(total.cut_retries));
}

/// Structure sweep: the combining backend's batch-ingest path over every
/// SupportsSortedBatch structure at one shard count — the store-layer
/// view of the E8 batch matrix (each shard's sub-batch is applied in one
/// sorted sweep whatever the balancing discipline underneath; wide-fanout
/// structures may decline unclustered batches through the fanout gate,
/// visible as a lower batched% with no throughput penalty).
void sweep_structures(const Config& cfg, std::size_t shards) {
  std::printf("\n== structure matrix: combining backend, %zu shards, "
              "batch-%u sync ingest ==\n", shards, cfg.batch);
  std::printf("%-8s  %13s  %13s  %10s  %9s  %9s\n", "struct", "per-op ops/s",
              "batch ops/s", "mean batch", "batched%", "declined");
  const auto row = [&](const char* name, auto tag) {
    using DS = typename decltype(tag)::type;
    using Uc = core::CombiningAtom<DS, Smr, TC>;
    store::ShardStatsBoard per_op_board(shards);
    const Cell per_op =
        run_cell<Uc>(cfg, shards, Mode::kPerOp, per_op_board);
    store::ShardStatsBoard batch_board(shards);
    const Cell batch =
        run_cell<Uc>(cfg, shards, Mode::kBatchSync, batch_board);
    const core::OpStats& bt = batch.total;
    std::printf("%-8s  %13.0f  %13.0f  %10.2f  %8.1f%%  %9llu\n", name,
                per_op.ops_per_sec, batch.ops_per_sec, bt.mean_batch_size(),
                100.0 * bt.batched_share(),
                static_cast<unsigned long long>(bt.batch_declines));
  };
  row("treap", std::type_identity<Treap>{});
  row("avl", std::type_identity<persist::AvlTree<std::int64_t, std::int64_t>>{});
  row("btree8",
      std::type_identity<persist::BTree<std::int64_t, std::int64_t, 8>>{});
  row("rbt", std::type_identity<persist::RbTree<std::int64_t, std::int64_t>>{});
  row("wbt", std::type_identity<persist::WbTree<std::int64_t, std::int64_t>>{});
  row("extbst",
      std::type_identity<persist::ExternalBst<std::int64_t, std::int64_t>>{});
}

// ----- executor lanes: the lock-free-lane + coalescing acceptance -----
//
// Multi-client batch ingest into FEW shards is where the async pipeline
// earns (or loses) its keep: every client's sub-batches land on the same
// one or two lanes, a worker wakeup finds several tickets queued, and
// the coalescer concatenates them into one execute_batch span, which the
// combining backend sorts and installs with one CAS. The section
// reports sync vs async ops/s side by side plus the pipeline counters
// the lane rewrite promises end to end: mean tickets absorbed per
// worker wakeup (> 1 means cross-ticket coalescing actually fired —
// --assert-coalesce gates on it), coalesced installs and the tickets
// they absorbed, the spin-caught/parked wakeup split, and sampled
// submit-to-completion latency. The submit path acquires no mutex by
// construction — one gate fetch_add, one ring CAS, one stamp release
// store (shard_lane.hpp) — which the JSON records as
// submit_mutex_locks_per_op: 0.

struct LaneCell {
  double sync_ops = 0.0;
  double async_ops = 0.0;
  core::OpStats total;  // async cell's board total (workers folded in)
};

LaneCell run_lane_cell(const Config& cfg, std::size_t shards) {
  LaneCell cell;
  {
    store::ShardStatsBoard sync_board(shards);
    cell.sync_ops =
        run_cell<CombUc>(cfg, shards, Mode::kBatchSync, sync_board)
            .ops_per_sec;
  }
  store::ShardStatsBoard board(shards);
  cell.async_ops =
      run_cell<CombUc>(cfg, shards, Mode::kBatchAsync, board).ops_per_sec;
  cell.total = board.total();
  return cell;
}

int lanes_section(const Config& cfg) {
  std::printf("\n== executor lanes: combining backend, %zu clients, "
              "batch-%u ingest, lock-free lanes ==\n",
              cfg.threads, cfg.batch);
  std::printf("%6s  %13s  %13s  %8s  %11s  %11s  %16s  %8s\n", "shards",
              "sync ops/s", "async ops/s", "tkt/wake", "co-installs",
              "co-tickets", "wakes(spin/park)", "task-us");
  bench::JsonRows json(
      cfg.lanes_json, "bench_sharded",
      {{"section", "executor-lanes"},
       {"threads", cfg.threads},
       {"batch", cfg.batch},
       {"cell_ms", cfg.duration_ms},
       {"sample_every", store::ShardExecutor<CombUc>::kSampleEvery},
       {"submit_mutex_locks_per_op", 0}});
  std::vector<std::size_t> sweep{1};
  if (cfg.shards.back() > 1) sweep.push_back(cfg.shards.back());
  double best_tpw = 0.0;
  for (const std::size_t s : sweep) {
    const LaneCell c = run_lane_cell(cfg, s);
    const core::OpStats& t = c.total;
    std::printf("%6zu  %13.0f  %13.0f  %8.2f  %11llu  %11llu  %6llu(%llu/%llu)"
                "  %8.1f\n",
                s, c.sync_ops, c.async_ops, t.tickets_per_wake(),
                static_cast<unsigned long long>(t.exec_coalesced_installs),
                static_cast<unsigned long long>(t.exec_coalesced_tasks),
                static_cast<unsigned long long>(t.exec_wakes),
                static_cast<unsigned long long>(t.exec_spin_wakes),
                static_cast<unsigned long long>(t.exec_parks),
                t.mean_task_us());
    json.row("lanes",
             {{"shards", s},
              {"sync_ops", c.sync_ops},
              {"async_ops", c.async_ops},
              {"tickets_per_wake", t.tickets_per_wake()},
              {"mean_task_us", t.mean_task_us()}},
             t);
    best_tpw = std::max(best_tpw, t.tickets_per_wake());
  }
  if (cfg.assert_coalesce) {
    if (best_tpw <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: no contended cell coalesced (best mean "
                   "tickets/wake %.2f, want > 1)\n",
                   best_tpw);
      return 1;
    }
    std::printf("coalesce assert: ok (best mean tickets/wake %.2f)\n",
                best_tpw);
  }
  return 0;
}

// ----- skew sweep: the adaptive-rebalancing acceptance experiment -----
//
// Skewed offered load is where the static uniform() split collapses: a
// Zipf(0.99) or hot-range keyspace concentrates most ops on one shard
// and the S-install-stream scaling story reverts to the single-atom
// baseline. The router policies run the same skewed workload:
//
//   static-uniform  — the pre-rebalancing status quo (the victim);
//   static-fitted   — TabletRouter::from_samples over an offline sample of
//                     the workload (the oracle fit: one tablet per shard
//                     at the sample quantiles, without paying for a live
//                     migration);
//   adaptive-tablet — starts as a uniform tablet table; a control thread
//                     runs the continuous tick loop: split the hot head
//                     (zero keys), reassign one right-sized tablet at a
//                     time under the migration throttle's keys-per-
//                     interval budget. Cold tablets never change owner, so
//                     balance costs a fraction of the resident mass — the
//                     keys-moved and max/ideal columns are the acceptance
//                     numbers.
//
// Skew cells run 3x the base duration, so the adaptive cell spends most
// of its time on the balanced table it converges to, the way a
// long-running store would.

enum class RouterPolicy {
  kStaticUniform,
  kStaticFitted,
  kAdaptiveTablet,
};

const char* skew_name(Skew s) {
  switch (s) {
    case Skew::kZipf: return "zipf(0.99)";
    case Skew::kHot: return "hot-range";
    default: return "moving-hotspot";
  }
}

/// Per-thread key draw for one skew. The ZipfGen is shared (its draws
/// are stateless); the hotspot generators carry a per-thread op clock.
std::function<std::int64_t(util::Xoshiro256&)> make_draw(
    const Config& cfg, Skew skew, const bench::ZipfGen* zipf) {
  const std::int64_t key_space = key_space_of(cfg);
  switch (skew) {
    case Skew::kZipf:
      return [zipf](util::Xoshiro256& rng) {
        return static_cast<std::int64_t>((*zipf)(rng));
      };
    case Skew::kHot:
      return [h = bench::MovingHotspot(key_space, 1 << 12, 0, 0)](
                 util::Xoshiro256& rng) mutable { return h(rng); };
    case Skew::kMoving:
    default:
      return [h = bench::MovingHotspot(key_space, 1 << 12, 30000,
                                       key_space / 5)](
                 util::Xoshiro256& rng) mutable { return h(rng); };
  }
}

/// Offline workload sample for the static-fitted policy.
std::vector<std::int64_t> skew_sample(const Config& cfg, Skew skew,
                                      const bench::ZipfGen* zipf,
                                      std::size_t n) {
  util::Xoshiro256 rng(0xfeedc0de);
  auto draw = make_draw(cfg, skew, zipf);
  std::vector<std::int64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(draw(rng));
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct SkewCell {
  double ops_per_sec = 0.0;
  store::RebalanceStats rebalance;  // zero for the static policies
  /// Hottest shard's share of a fresh offered-load sample under the
  /// cell's FINAL topology, as a multiple of the ideal 1/S share —
  /// 1.0 = perfectly balanced; ~S = everything on one shard. This is
  /// the structural quantity rebalancing exists to fix (and on hosts
  /// with fewer cores than threads, where the scheduler masks the
  /// throughput cost of skew, the more telling column).
  double max_load_share = 0.0;
};

/// Continuous-mode migration budget: enough that the steady stream of
/// single-tablet moves is never starved, small enough that one interval
/// can only touch a modest slice of the store (asserted by the smoke).
std::uint64_t continuous_budget(const Config& cfg) {
  return std::max<std::uint64_t>(8192, cfg.initial_keys / 8);
}

template <class Uc>
SkewCell run_skew_cell(const Config& cfg, Skew skew, std::size_t shards,
                       Mode mode, RouterPolicy policy,
                       const bench::ZipfGen* zipf,
                       store::ShardStatsBoard& board) {
  using Map = store::ShardedMap<Uc, Router>;
  alloc::PoolBackend pool;
  alloc::ThreadCache root_cache(pool);
  const std::int64_t key_space = key_space_of(cfg);
  Router router = Router::uniform(0, key_space, shards);
  if (policy == RouterPolicy::kStaticFitted) {
    const auto sample = skew_sample(cfg, skew, zipf, 1 << 16);
    router =
        Router::from_samples(std::span<const std::int64_t>(sample), shards);
  }
  Map map(shards, root_cache, std::move(router));
  std::optional<store::ShardExecutor<Uc>> exec;
  if (mode == Mode::kBatchAsync) {
    exec.emplace(map, [&pool] { return alloc::ThreadCache(pool); });
  }
  seed_even_keys(cfg, map, root_cache);
  for (std::size_t s = 0; s < shards; ++s) {
    if constexpr (requires(Uc& u) { u.set_gather_window(true); }) {
      map.shard(s).set_gather_window(true);
    }
  }
  const int duration_ms = cfg.duration_ms * 3;
  // The adaptive policy's control thread: drive the continuous tick loop
  // until the workload stops. Owns its own allocator view and the
  // Rebalancer (its per-shard reclaimer registrations live on this
  // thread), folding migration counters into the board on exit. Ticks
  // run often; each is one cheap step (or a deferral), so the cadence
  // sets reaction latency, not migration volume — the throttle meters
  // that.
  SkewCell cell;
  std::atomic<bool> reb_stop{false};
  std::thread ticker;
  if (policy == RouterPolicy::kAdaptiveTablet) {
    ticker = std::thread([&] {
      alloc::ThreadCache cache(pool);
      store::RebalanceConfig rcfg;
      rcfg.budget_keys = continuous_budget(cfg);
      store::Rebalancer<Map> reb(map, cache, rcfg);
      while (!reb_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        reb.tick();
      }
      cell.rebalance = reb.stats();
      board.set_rebalance_stats(cell.rebalance);
      reb.fold_into(board);
    });
  }
  const bool batch_mode = mode != Mode::kPerOp;
  const auto run = bench::run_timed(
      cfg.threads, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        typename Map::Session sess(map, cache);
        util::Xoshiro256 rng(tid * 104729 + 31);
        auto draw = make_draw(cfg, skew, zipf);
        std::uint64_t ops = 0;
        if (batch_mode) {
          using Req = typename Map::BatchRequest;
          using K = typename Map::OpKind;
          std::vector<Req> reqs(cfg.batch, Req{K::kInsert, 0, 0});
          const auto out = std::make_unique<bool[]>(cfg.batch);
          while (!stop.load(std::memory_order_relaxed)) {
            for (unsigned i = 0; i < cfg.batch; ++i) {
              const std::int64_t k = draw(rng);
              reqs[i] = rng.chance(1, 2) ? Req{K::kInsert, k, k}
                                         : Req{K::kErase, k, std::nullopt};
            }
            sess.execute_batch(reqs, std::span<bool>(out.get(), cfg.batch));
            ops += cfg.batch;
          }
        } else {
          while (!stop.load(std::memory_order_relaxed)) {
            const std::int64_t k = draw(rng);
            if (rng.chance(1, 2)) {
              sess.insert(k, k);
            } else {
              sess.erase(k);
            }
            ++ops;
          }
        }
        sess.fold_into(board);
        return ops;
      });
  reb_stop.store(true);
  if (ticker.joinable()) ticker.join();
  if (exec.has_value()) {
    exec->stop();
    exec->fold_into(board);
    exec.reset();
  }
  cell.ops_per_sec = run.ops_per_sec();
  {
    // Offered-load balance under the cell's final topology.
    const auto sample = skew_sample(cfg, skew, zipf, 1 << 14);
    const auto& router = map.router();
    std::vector<std::size_t> load(shards, 0);
    for (const std::int64_t k : sample) ++load[router(k, shards)];
    std::size_t max_load = 0;
    for (const std::size_t l : load) max_load = std::max(max_load, l);
    cell.max_load_share = static_cast<double>(max_load) *
                          static_cast<double>(shards) /
                          static_cast<double>(sample.size());
  }
  return cell;
}

/// One cell of a skew row, named by its ingest mode.
struct ModeCell {
  const char* mode;
  SkewCell cell;
};

/// Runs the router policies over one skew, printing the table and
/// writing one "skew" row per cell (each cell is one fresh store, so its
/// rebalancing counters and max/ideal are per-cell statements). Returns
/// every adaptive-tablet cell that ran (for --assert-migrated).
std::vector<ModeCell> skew_sweep(const Config& cfg, Skew skew,
                                 bench::JsonRows& json) {
  const std::size_t shards = cfg.shards.back();
  const std::int64_t key_space = key_space_of(cfg);
  std::optional<bench::ZipfGen> zipf;
  if (skew == Skew::kZipf) {
    zipf.emplace(static_cast<std::uint64_t>(key_space), 0.99);
  }
  const bench::ZipfGen* z = zipf.has_value() ? &*zipf : nullptr;
  std::printf("\n== skew sweep: %s offered load, combining backend, "
              "%zu shards, %zu threads, %d ms/cell ==\n",
              skew_name(skew), shards, cfg.threads, cfg.duration_ms * 3);
  std::printf("%-15s  %13s  %13s  %13s  %10s  %10s  %9s\n", "router",
              "per-op ops/s", "sync-64 ops/s", "async-64 ops/s", "migrations",
              "keys-moved", "max/ideal");
  std::vector<ModeCell> adaptive;
  std::unique_ptr<store::ShardStatsBoard> detail_board;
  // The adaptive row goes last so its board (with the rebalance footer)
  // is the one printed below the table.
  for (const RouterPolicy policy :
       {RouterPolicy::kStaticUniform, RouterPolicy::kStaticFitted,
        RouterPolicy::kAdaptiveTablet}) {
    const char* name = policy == RouterPolicy::kStaticUniform
                           ? "static-uniform"
                       : policy == RouterPolicy::kStaticFitted
                           ? "static-fitted"
                           : "adaptive-tablet";
    const auto run_one = [&](Mode mode, store::ShardStatsBoard& b) {
      return run_skew_cell<CombUc>(cfg, skew, shards, mode, policy, z, b);
    };
    auto per_op_board = std::make_unique<store::ShardStatsBoard>(shards);
    const SkewCell per_op = run_one(Mode::kPerOp, *per_op_board);
    SkewCell sync_cell;
    auto sync_board = std::make_unique<store::ShardStatsBoard>(shards);
    if (cfg.run_sync) {
      sync_cell = run_one(Mode::kBatchSync, *sync_board);
    }
    SkewCell async_cell;
    auto async_board = std::make_unique<store::ShardStatsBoard>(shards);
    if (cfg.run_async) {
      async_cell = run_one(Mode::kBatchAsync, *async_board);
    }
    std::vector<ModeCell> cells = {{"per-op", per_op}};
    if (cfg.run_sync) cells.push_back({"sync", sync_cell});
    if (cfg.run_async) cells.push_back({"async", async_cell});
    for (const auto& [mode, c] : cells) {
      json.row("skew",
               {{"skew", skew_name(skew)},
                {"policy", name},
                {"mode", mode},
                {"shards", shards},
                {"resident", cfg.initial_keys},
                {"ops_per_sec", c.ops_per_sec},
                {"max_ideal", c.max_load_share}},
               c.rebalance);
    }
    const std::uint64_t migrations = per_op.rebalance.migrations +
                                     sync_cell.rebalance.migrations +
                                     async_cell.rebalance.migrations;
    const std::uint64_t keys_moved = per_op.rebalance.keys_moved +
                                     sync_cell.rebalance.keys_moved +
                                     async_cell.rebalance.keys_moved;
    // The final topology's offered-load balance (hottest shard's share
    // vs the ideal 1/S) — the structural quantity rebalancing fixes,
    // and on core-starved hosts, where the scheduler masks most of the
    // throughput cost of skew, the more telling column. The same cell
    // is the "representative" one for the per-policy detail counters:
    // the last mode that ran (async, else sync, else per-op).
    const SkewCell& rep = cells.back().cell;
    std::printf("%-15s  %13.0f  %13.0f  %13.0f  %10llu  %10llu  %8.2fx\n",
                name, per_op.ops_per_sec, sync_cell.ops_per_sec,
                async_cell.ops_per_sec,
                static_cast<unsigned long long>(migrations),
                static_cast<unsigned long long>(keys_moved),
                rep.max_load_share);
    if (policy == RouterPolicy::kAdaptiveTablet) {
      adaptive = std::move(cells);
      detail_board = cfg.run_async  ? std::move(async_board)
                     : cfg.run_sync ? std::move(sync_board)
                                    : std::move(per_op_board);
    }
  }
  if (detail_board != nullptr) {
    std::printf("\nper-shard stats, adaptive-tablet %s cell (installs "
                "rebalanced across shards; mig-in/mig-out = migrated "
                "keys):\n",
                cfg.run_async  ? "async batch-ingest"
                : cfg.run_sync ? "sync batch-ingest"
                               : "per-op");
    detail_board->print(stdout);
  }
  return adaptive;
}

/// The --assert-migrated gate on one adaptive-tablet cell: it actually
/// reached balance (max/ideal <= 1.3), bought with at most a quarter of
/// the resident keys, and never admitted more than one throttle budget
/// of keys inside one interval. Prints a FAIL line naming the cell's
/// mode for each broken condition.
bool migrated_ok(const Config& cfg, const ModeCell& mc) {
  const store::RebalanceStats& r = mc.cell.rebalance;
  bool ok = true;
  if (r.migrations == 0) {
    std::fprintf(stderr,
                 "FAIL: adaptive-tablet %s cell completed without a flip\n",
                 mc.mode);
    ok = false;
  }
  if (mc.cell.max_load_share > 1.3) {
    std::fprintf(stderr,
                 "FAIL: adaptive-tablet %s cell: continuous rebalancing left "
                 "the load unbalanced (max/ideal %.2f, want <= 1.3)\n",
                 mc.mode, mc.cell.max_load_share);
    ok = false;
  }
  if (r.keys_moved * 4 > cfg.initial_keys) {
    std::fprintf(stderr,
                 "FAIL: adaptive-tablet %s cell: continuous rebalancing "
                 "migrated %llu keys (> 25%% of %zu resident)\n",
                 mc.mode, static_cast<unsigned long long>(r.keys_moved),
                 cfg.initial_keys);
    ok = false;
  }
  // The policy bound is on *admitted estimates*: actual keys moved
  // (peak_interval_keys, printed in the stats line) may drift past the
  // estimate by whatever the tablet gained between planning and the
  // pinned extraction — honest reporting, not an over-admission.
  // Estimates exceed the budget only via the documented full-bucket
  // oversize escape.
  if (r.peak_interval_est > r.budget_keys && r.oversize_escapes == 0) {
    std::fprintf(stderr,
                 "FAIL: adaptive-tablet %s cell: throttle admitted estimates "
                 "of %llu keys in one interval (budget %llu, no oversize "
                 "escape)\n",
                 mc.mode, static_cast<unsigned long long>(r.peak_interval_est),
                 static_cast<unsigned long long>(r.budget_keys));
    ok = false;
  }
  return ok;
}

/// The skew sweep over every requested distribution; --assert-migrated
/// gates every adaptive-tablet cell that ran (per-op, sync and async).
int skew_section(const Config& cfg) {
  bench::JsonRows json(cfg.json_path, "bench_sharded",
                       {{"section", "skew"},
                        {"threads", cfg.threads},
                        {"shards", cfg.shards.back()},
                        {"initial_keys", cfg.initial_keys},
                        {"batch", cfg.batch},
                        {"cell_ms", cfg.duration_ms * 3}});
  bool ok = true;
  for (const Skew skew : cfg.skews) {
    const std::vector<ModeCell> cells = skew_sweep(cfg, skew, json);
    if (!cfg.assert_migrated) continue;
    for (const ModeCell& mc : cells) ok = migrated_ok(cfg, mc) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.initial_keys = 1 << 16;
      cfg.duration_ms = 80;
      cfg.shards = {1, 4};
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      cfg.duration_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--initial") == 0 && i + 1 < argc) {
      cfg.initial_keys = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--ingest") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      cfg.run_sync = std::strcmp(m, "async") != 0;
      cfg.run_async = std::strcmp(m, "sync") != 0;
      if (std::strcmp(m, "sync") != 0 && std::strcmp(m, "async") != 0 &&
          std::strcmp(m, "both") != 0) {
        std::fprintf(stderr, "--ingest takes sync|async|both\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--skew") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      cfg.skew_only = true;
      if (std::strcmp(m, "zipf") == 0) {
        cfg.skews.push_back(Skew::kZipf);
      } else if (std::strcmp(m, "hot") == 0) {
        cfg.skews.push_back(Skew::kHot);
      } else if (std::strcmp(m, "moving") == 0) {
        cfg.skews.push_back(Skew::kMoving);
      } else {
        std::fprintf(stderr, "--skew takes zipf|hot|moving (repeatable)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--assert-migrated") == 0) {
      cfg.assert_migrated = true;
    } else if (std::strcmp(argv[i], "--assert-coalesce") == 0) {
      // The lane-coalescing CI smoke: run just the executor-lanes
      // section and gate on mean tickets/wake > 1 in a contended cell.
      cfg.assert_coalesce = true;
      cfg.lanes_only = true;
    } else if (std::strcmp(argv[i], "--lanes-json") == 0 && i + 1 < argc) {
      cfg.lanes_json = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--threads N] [--duration-ms N]"
                   " [--initial N] [--ingest sync|async|both]"
                   " [--skew zipf|hot|moving]..."
                   " [--json PATH] [--assert-migrated]"
                   " [--assert-coalesce] [--lanes-json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.skews.empty()) cfg.skews.push_back(Skew::kZipf);

  if (cfg.lanes_only) {
    // Lanes-only mode (the CI coalescing smoke): the executor-lanes
    // section plus its assert and JSON artifact, nothing else.
    return lanes_section(cfg);
  }

  if (cfg.skew_only) {
    // Skew-sweep-only mode (the CI rebalancing smoke): the router
    // policies over the requested distribution(s), nothing else.
    return skew_section(cfg);
  }

  std::printf("### store: sharded treap, %zu threads, 100%% updates, "
              "%zu initial keys, uniform tablets, %d ms/cell "
              "(%zu hw thread(s))\n\n",
              cfg.threads, cfg.initial_keys, cfg.duration_ms,
              bench::hardware_threads());
  std::printf("%-9s  %6s  %13s  %13s  %13s  %10s  %9s\n", "backend", "shards",
              "per-op ops/s", "sync-64 ops/s", "async-64 ops/s", "mean batch",
              "batched%");

  sweep_backend<PlainUc>(cfg, "atom");
  const auto widest = sweep_backend<CombUc>(cfg, "combining");

  if (widest != nullptr) {
    std::printf("\nper-shard stats, widest combining %s batch-ingest cell "
                "(%zu shards):\n",
                cfg.run_async ? "async" : "sync", widest->shards());
    widest->print(stdout);
  }

  if (const int rc = lanes_section(cfg); rc != 0) return rc;

  const auto [cut_writers, cut_readers] = cut_topology(cfg);
  std::printf("\n== consistent cut reads: %zu writer(s) + %zu reader(s), "
              "size() every round, items() every 64th ==\n",
              cut_writers, cut_readers);
  std::printf("%-9s  %6s  %11s  %14s  %12s\n", "backend", "shards", "cuts/s",
              "retries/cut", "cut-retries");
  for (const std::size_t s : cfg.shards) {
    cut_read_bench<PlainUc>(cfg, s, "atom");
    cut_read_bench<CombUc>(cfg, s, "combining");
  }

  sweep_structures(cfg, cfg.shards.back());

  return skew_section(cfg);
}
