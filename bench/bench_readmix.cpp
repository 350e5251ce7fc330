// Experiment E11 — read-fraction sweep — plus the PR 10 batched read
// path (--multiget).
//
// The paper's §2 predicts perfect read-side scaling (readers share an
// immutable version, no coordination). The default mode keeps the E11
// sweep: read fraction from pure-write to pure-read, real threads and
// the private-cache simulator (reads are the model's no-CAS path).
//
// --multiget benchmarks the read-side mirror of the write batch:
//   * Probe path (part A): a 1M-key Atom treap probed per-key
//     (find-per-read, one pin each) vs get_sorted_batch sweeps at
//     B ∈ {8, 64} × locality ∈ {uniform, hot-256 contiguous window}.
//     The sweep shares descent prefixes and pins once per batch, so the
//     hot window is the regime where it pays hardest.
//   * Read coalescing (part B): a 4-shard store with an executor and
//     oversubscribed clients issuing multi_get probes; backed-up lanes
//     make one worker wake absorb several read tickets into one merged
//     sweep (mean read tickets/wake > 1 is the contract CI gates).
//
// --json PATH writes the machine-readable rows (the checked-in
// BENCH_readmix_multiget.json artifact, per-key baseline included);
// --assert-read-coalesce exits 1 unless read tickets/wake > 1 in the
// async cell AND the hot-256 B=64 sweep beats per-key reads >= 1.3x (the
// median ratio of five interleaved per-key/sweep pairs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "bench_util/batch_stats.hpp"
#include "bench_util/json_rows.hpp"
#include "bench_util/runner.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "model/sim.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "store/executor.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace {

using namespace pathcopy;
using Treap = persist::Treap<std::int64_t, std::int64_t>;
using Epoch = reclaim::EpochReclaimer;
using ProbeAtom = core::Atom<Treap, Epoch, alloc::ThreadCache>;

constexpr std::int64_t kKeyRange = 1 << 16;

// ---------------------------------------------------------------------
// E11: the read-fraction sweep (default mode, unchanged shape).
// ---------------------------------------------------------------------

double run_real(std::size_t procs, unsigned read_pct, int duration_ms) {
  alloc::PoolBackend pool;
  reclaim::EpochReclaimer smr;
  core::Atom<Treap, reclaim::EpochReclaimer, alloc::ThreadCache> atom(smr,
                                                                      pool);
  {
    // Pre-fill to ~half the key range so reads hit roughly half the time.
    // seed_sorted: one path-copying install for the whole set instead of
    // one root-to-leaf copy per initial key.
    alloc::ThreadCache cache(pool);
    core::Atom<Treap, reclaim::EpochReclaimer, alloc::ThreadCache>::Ctx ctx(
        smr, cache);
    util::Xoshiro256 rng(99);
    std::vector<std::int64_t> keys;
    keys.reserve(kKeyRange / 2);
    for (std::int64_t i = 0; i < kKeyRange / 2; ++i) {
      keys.push_back(rng.range(0, kKeyRange));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    items.reserve(keys.size());
    for (const auto k : keys) items.emplace_back(k, k);
    atom.seed_sorted(ctx, items.begin(), items.end());
  }
  const auto run = bench::run_timed(
      procs, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        core::Atom<Treap, reclaim::EpochReclaimer, alloc::ThreadCache>::Ctx
            ctx(smr, cache);
        util::Xoshiro256 rng(tid * 7919 + 13);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::int64_t k = rng.range(0, kKeyRange);
          if (rng.below(100) < read_pct) {
            atom.read(ctx, [k](Treap t) { return t.contains(k); });
          } else if (rng.chance(1, 2)) {
            atom.update(ctx,
                        [k](Treap t, auto& b) { return t.insert(b, k, k); });
          } else {
            atom.update(ctx, [k](Treap t, auto& b) { return t.erase(b, k); });
          }
          ++ops;
        }
        return ops;
      });
  return run.ops_per_sec();
}

double run_sim(std::size_t procs, unsigned read_pct) {
  model::SimConfig cfg;
  cfg.num_leaves = 1 << 18;
  cfg.cache_lines = 1 << 13;
  cfg.miss_cost = 100;
  cfg.processes = procs;
  cfg.ops = 12000;
  cfg.noop_fraction = read_pct / 100.0;
  cfg.seed = 42;
  return model::run_protocol_sim(cfg).throughput() * 1e6;  // ops/Mtick
}

// ---------------------------------------------------------------------
// Part A: the probe path. One pinned 1M-key treap, probed per-key vs by
// sorted sweep. Key space is the even keys in [0, 2*kProbeKeys) so odd
// probes exercise the absent-key path too.
// ---------------------------------------------------------------------

constexpr std::size_t kProbeKeys = std::size_t{1} << 20;  // 1M resident keys
constexpr std::size_t kBatchPool = 256;  // pre-generated probe sets
constexpr std::int64_t kHotWindow = 256;  // resident keys per hot window

/// Interleaved per-key/sweep pairs behind one probe cell: the cell's
/// figures are medians over the pairs, so one scheduling blip moves one
/// pair's ratio, not the gated one.
constexpr int kProbePairs = 5;

struct ProbeCell {
  double perkey_keys_per_sec = 0;  // median over the pairs
  double multiget_keys_per_sec = 0;
  double ratio = 0;  // median of the pairs' sweep/per-key ratios
  double ratio_min = 0;
  double ratio_max = 0;
  double perkey_ns = 0;    // per-op baseline, ns per key
  double multiget_ns = 0;  // ns per key through the sweep
  double saved_share = 0;  // nodes saved / per-key counterfactual
  core::OpStats stats;     // the sweep run's counters
};

/// Pre-generates kBatchPool sorted-unique probe key sets of size `batch`.
/// hot: each set lives inside one random 256-resident-key contiguous
/// window (the hot-256 locality); uniform: anywhere in the key space.
std::vector<std::vector<std::int64_t>> make_probe_sets(unsigned batch,
                                                       bool hot,
                                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::int64_t space = static_cast<std::int64_t>(2 * kProbeKeys);
  std::vector<std::vector<std::int64_t>> sets;
  sets.reserve(kBatchPool);
  for (std::size_t s = 0; s < kBatchPool; ++s) {
    std::set<std::int64_t> keys;
    if (hot) {
      const std::int64_t base =
          2 * rng.range(0, static_cast<std::int64_t>(kProbeKeys) - kHotWindow);
      while (keys.size() < batch) {
        keys.insert(base + rng.range(0, 2 * kHotWindow - 1));
      }
    } else {
      while (keys.size() < batch) {
        keys.insert(rng.range(0, space - 1));
      }
    }
    sets.emplace_back(keys.begin(), keys.end());
  }
  return sets;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

ProbeCell run_probe_cell(ProbeAtom& atom, reclaim::EpochReclaimer& smr,
                         alloc::PoolBackend& pool, unsigned batch, bool hot,
                         int duration_ms) {
  const auto sets = make_probe_sets(batch, hot, batch * 31 + (hot ? 7 : 1));
  ProbeCell cell;

  // Per-key baseline: the same key sets, one pinned read per key.
  const auto run_perkey = [&] {
    return bench::run_timed(
        1, std::chrono::milliseconds(duration_ms),
        [&](std::size_t, const std::atomic<bool>& stop) -> std::uint64_t {
          alloc::ThreadCache cache(pool);
          ProbeAtom::Ctx ctx(smr, cache);
          std::uint64_t keys = 0;
          std::size_t s = 0;
          std::uint64_t hits = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            for (const std::int64_t k : sets[s]) {
              hits += atom.read(
                  ctx, [k](Treap t) { return t.find(k) != nullptr; });
            }
            keys += sets[s].size();
            s = (s + 1) % sets.size();
          }
          return keys + (hits & 1);  // keep the reads observable
        });
  };

  // The sweep: same key sets, one pin + one descent-sharing probe each.
  store::ShardStatsBoard board(1);
  const auto run_mget = [&] {
    return bench::run_timed(
        1, std::chrono::milliseconds(duration_ms),
        [&](std::size_t, const std::atomic<bool>& stop) -> std::uint64_t {
          alloc::ThreadCache cache(pool);
          ProbeAtom::Ctx ctx(smr, cache);
          std::vector<ProbeAtom::ReadOutcome> out(batch);
          std::uint64_t keys = 0;
          std::size_t s = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            out.clear();
            out.resize(sets[s].size());
            atom.multi_get(ctx, std::span<const std::int64_t>(sets[s]),
                           std::span<ProbeAtom::ReadOutcome>(out));
            keys += sets[s].size();
            s = (s + 1) % sets.size();
          }
          board.add(0, ctx.stats);
          return keys;
        });
  };

  std::vector<double> perkey, mget, ratios;
  for (int p = 0; p < kProbePairs; ++p) {
    perkey.push_back(run_perkey().ops_per_sec());
    mget.push_back(run_mget().ops_per_sec());
    ratios.push_back(perkey.back() == 0 ? 0 : mget.back() / perkey.back());
  }
  cell.perkey_keys_per_sec = median(perkey);
  cell.multiget_keys_per_sec = median(mget);
  cell.ratio = median(ratios);
  cell.ratio_min = *std::min_element(ratios.begin(), ratios.end());
  cell.ratio_max = *std::max_element(ratios.begin(), ratios.end());
  cell.perkey_ns = cell.perkey_keys_per_sec == 0
                       ? 0
                       : 1e9 / cell.perkey_keys_per_sec;
  cell.multiget_ns = cell.multiget_keys_per_sec == 0
                         ? 0
                         : 1e9 / cell.multiget_keys_per_sec;
  cell.stats = board.total();
  cell.saved_share = core::OpStats::ratio(
      cell.stats.probe_nodes_saved,
      cell.stats.probe_nodes_visited + cell.stats.probe_nodes_saved);
  return cell;
}

// ---------------------------------------------------------------------
// Part B: cross-ticket read coalescing. Oversubscribed clients push
// multi_get tickets (plus a write trickle) through a 4-shard executor;
// backed-up lanes let one wake k-way-merge several tickets' key sets
// into one mega-probe against one pinned root.
// ---------------------------------------------------------------------

struct CoalesceCell {
  double keys_per_sec = 0;
  double tickets_per_wake = 0;
  core::OpStats total;
};

CoalesceCell run_coalesce_cell(int duration_ms, std::size_t clients,
                               bool print_board) {
  using Uc = core::CombiningAtom<Treap, Epoch, alloc::ThreadCache>;
  using Router = store::TabletRouter<std::int64_t>;
  using Map = store::ShardedMap<Uc, Router>;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kResident = std::size_t{1} << 15;
  constexpr unsigned kProbeBatch = 16;

  alloc::PoolBackend pool;
  alloc::ThreadCache root_cache(pool);
  const std::int64_t space = static_cast<std::int64_t>(2 * kResident);
  Map map(kShards, root_cache, Router::uniform(0, space, kShards));
  store::ShardExecutor<Uc> exec(map,
                                [&pool] { return alloc::ThreadCache(pool); });
  {
    typename Map::Session seeder(map, root_cache);
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    items.reserve(kResident);
    for (std::size_t i = 0; i < kResident; ++i) {
      items.emplace_back(static_cast<std::int64_t>(2 * i),
                         static_cast<std::int64_t>(i));
    }
    seeder.seed_sorted(items.begin(), items.end());
  }

  store::ShardStatsBoard board(kShards);
  const auto run = bench::run_timed(
      clients, std::chrono::milliseconds(duration_ms),
      [&](std::size_t tid, const std::atomic<bool>& stop) -> std::uint64_t {
        alloc::ThreadCache cache(pool);
        typename Map::Session sess(map, cache);
        util::Xoshiro256 rng(tid * 104729 + 17);
        using Req = typename Map::BatchRequest;
        using K = typename Map::OpKind;
        std::vector<std::int64_t> keys(kProbeBatch);
        std::vector<typename Map::ReadOutcome> out(kProbeBatch);
        std::vector<Req> reqs(8, Req{K::kInsert, 0, 0});
        const auto wout = std::make_unique<bool[]>(reqs.size());
        std::uint64_t probed = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (rng.below(10) < 9) {  // 90% probe tickets
            for (auto& k : keys) k = rng.range(0, space - 1);
            out.clear();
            out.resize(keys.size());
            sess.multi_get(std::span<const std::int64_t>(keys),
                           std::span<typename Map::ReadOutcome>(out));
            probed += keys.size();
          } else {  // 10% write churn keeps installs interleaving
            for (auto& r : reqs) {
              const std::int64_t k = rng.range(0, space - 1);
              r = rng.chance(1, 2) ? Req{K::kInsert, k, k}
                                   : Req{K::kErase, k, std::nullopt};
            }
            sess.execute_batch(reqs,
                               std::span<bool>(wout.get(), reqs.size()));
          }
        }
        sess.fold_into(board);
        return probed;
      });
  exec.stop();
  exec.fold_into(board);
  board.set_elapsed_seconds(run.seconds);

  CoalesceCell cell;
  cell.keys_per_sec = run.ops_per_sec();
  cell.total = board.total();
  cell.tickets_per_wake = cell.total.read_tickets_per_wake();
  if (print_board) {
    std::printf("\nper-shard board (%zu clients, %zu shards):\n", clients,
                kShards);
    board.print(stdout);
    bench::print_read_stats(stdout, cell.total);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 200;
  int probe_ms = 400;
  std::vector<std::size_t> procs{1, 2, 4, 8, 16};
  std::size_t clients = 6;
  bool sim_only = false;
  bool multiget = false;
  bool assert_coalesce = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      duration_ms = 80;
      probe_ms = 150;
      procs = {1, 4};
    } else if (std::strcmp(argv[i], "--sim-only") == 0) {
      sim_only = true;
    } else if (std::strcmp(argv[i], "--multiget") == 0) {
      multiget = true;
    } else if (std::strcmp(argv[i], "--assert-read-coalesce") == 0) {
      assert_coalesce = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_readmix [--quick] [--sim-only] [--multiget]"
                   " [--json PATH] [--assert-read-coalesce]\n");
      return 2;
    }
  }

  if (multiget) {
    bench::JsonRows json(json_path, "bench_readmix",
                         {{"mode", "multiget"},
                          {"resident_keys", kProbeKeys},
                          {"probe_ms", probe_ms},
                          {"cell_ms", duration_ms},
                          {"clients", clients}});
    std::printf("### batched read path: sorted multi-get sweeps & read "
                "coalescing\n\n");
    std::printf("== probe path: %zu resident keys (even), per-key reads vs "
                "one-pin sorted sweeps ==\n",
                kProbeKeys);

    alloc::PoolBackend pool;
    reclaim::EpochReclaimer smr;
    ProbeAtom atom(smr, pool);
    {
      alloc::ThreadCache cache(pool);
      ProbeAtom::Ctx ctx(smr, cache);
      std::vector<std::pair<std::int64_t, std::int64_t>> items;
      items.reserve(kProbeKeys);
      for (std::size_t i = 0; i < kProbeKeys; ++i) {
        items.emplace_back(static_cast<std::int64_t>(2 * i),
                           static_cast<std::int64_t>(i));
      }
      atom.seed_sorted(ctx, items.begin(), items.end());
    }

    struct Row {
      const char* locality;
      bool hot;
      unsigned batch;
      ProbeCell cell;
    };
    std::vector<Row> rows{{"uniform", false, 8, {}},
                          {"uniform", false, 64, {}},
                          {"hot256", true, 8, {}},
                          {"hot256", true, 64, {}}};
    std::printf("(medians of %d interleaved per-key/sweep pairs of %d ms "
                "runs; ratio spread = min-max over the pairs)\n",
                kProbePairs, probe_ms);
    std::printf("%-9s  %5s  %12s  %12s  %7s  %11s  %9s  %9s  %7s\n",
                "locality", "B", "perkey k/s", "mget k/s", "ratio", "spread",
                "perkey-ns", "mget-ns", "saved%");
    for (auto& r : rows) {
      r.cell = run_probe_cell(atom, smr, pool, r.batch, r.hot, probe_ms);
      std::printf("%-9s  %5u  %12.0f  %12.0f  %6.2fx  %4.2f-%4.2fx  %9.1f  "
                  "%9.1f  %6.1f%%\n",
                  r.locality, r.batch, r.cell.perkey_keys_per_sec,
                  r.cell.multiget_keys_per_sec, r.cell.ratio,
                  r.cell.ratio_min, r.cell.ratio_max, r.cell.perkey_ns,
                  r.cell.multiget_ns, 100.0 * r.cell.saved_share);
      json.row("probe",
               {{"locality", r.locality},
                {"batch", r.batch},
                {"perkey_keys_per_sec", r.cell.perkey_keys_per_sec},
                {"multiget_keys_per_sec", r.cell.multiget_keys_per_sec},
                {"ratio", r.cell.ratio},
                {"perkey_ns_per_key", r.cell.perkey_ns},
                {"multiget_ns_per_key", r.cell.multiget_ns},
                {"nodes_saved_share", r.cell.saved_share}},
               r.cell.stats);
    }

    std::printf("\n== read coalescing: %zu clients over 4 executor-backed "
                "shards, 90%% probe tickets ==\n",
                clients);
    const CoalesceCell co = run_coalesce_cell(duration_ms, clients, true);
    std::printf("\ncoalescing: %.2f read tickets per merged sweep "
                "(%.0f probe keys/s)\n",
                co.tickets_per_wake, co.keys_per_sec);

    json.row("coalesce",
             {{"read_tickets_per_wake", co.tickets_per_wake},
              {"probe_keys_per_sec", co.keys_per_sec},
              {"mean_probe_batch", co.total.mean_read_batch()}},
             co.total);

    if (assert_coalesce) {
      const ProbeCell& hot64 = rows[3].cell;
      bool ok = true;
      if (co.tickets_per_wake <= 1.0) {
        std::fprintf(stderr,
                     "read-coalesce assert FAILED: %.2f read tickets/wake "
                     "(need > 1)\n",
                     co.tickets_per_wake);
        ok = false;
      }
      if (hot64.ratio < 1.3) {
        std::fprintf(stderr,
                     "read-coalesce assert FAILED: hot-256 B=64 sweep only "
                     "%.2fx per-key reads, median of %d pairs spanning "
                     "%.2f-%.2fx (need >= 1.3)\n",
                     hot64.ratio, kProbePairs, hot64.ratio_min,
                     hot64.ratio_max);
        ok = false;
      }
      if (!ok) return 1;
      std::printf("read-coalesce assert: ok (%.2f tickets/wake, hot-64 "
                  "%.2fx)\n",
                  co.tickets_per_wake, hot64.ratio);
    }
    return 0;
  }

  const std::vector<unsigned> mixes{0, 50, 90, 100};

  std::printf("### E11: read-fraction sweep (S2 read-scaling claim)\n\n");

  std::printf("== simulated (ops/Mtick; private-cache model, reads = no-CAS "
              "traversals) ==\n");
  std::printf("%-10s", "read%");
  for (const auto p : procs) std::printf("  %8zup", p);
  std::printf("   scaling 1p->%zup\n", procs.back());
  for (const unsigned mix : mixes) {
    std::printf("%-10u", mix);
    double first = 0, last = 0;
    for (const auto p : procs) {
      const double t = run_sim(p, mix);
      if (p == procs.front()) first = t;
      last = t;
      std::printf("  %9.0f", t);
    }
    std::printf("   %5.2fx\n", first == 0 ? 0.0 : last / first);
  }

  if (!sim_only) {
    std::printf("\n== measured (real threads, ops/s; %zu hw thread(s) — "
                "oversubscribed columns time-share) ==\n",
                bench::hardware_threads());
    std::printf("%-10s", "read%");
    for (const auto p : procs) std::printf("  %8zup", p);
    std::printf("\n");
    for (const unsigned mix : mixes) {
      std::printf("%-10u", mix);
      for (const auto p : procs) {
        std::printf("  %9.0f", run_real(p, mix, duration_ms));
      }
      std::printf("\n");
    }
  }

  std::printf("\nexpected shape: throughput rises with read%% at every P; "
              "pure reads scale near-linearly in P (no serialization), "
              "pure writes saturate at the paper's bound.\n");
  return 0;
}
