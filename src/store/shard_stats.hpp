// Per-shard OpStats roll-up for the store layer.
//
// Each Session owns plain per-shard counters (one OpStats per shard, no
// atomics on the hot path). At the end of a run every worker folds its
// counters into a ShardStatsBoard — a mutex-guarded, per-shard
// accumulator that Session::fold_into, ShardExecutor::fold_into and
// Rebalancer::fold_into all add() to — and the bench/report side reads
// per-shard and whole-store totals from one place. A one-shard board is
// the fold target of the single-atom benches too. The counters are
// listed once: OpStats's in PC_OPSTATS_COUNTERS (core/stats.hpp), the
// Rebalancer's in PC_REBALANCE_COUNTERS below.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "util/assert.hpp"

/// X(name, description) for every RebalanceStats counter, in field order.
#define PC_REBALANCE_COUNTERS(X)                                             \
  X(plans, "tick() calls that had enough samples")                           \
  X(migrations, "executed topology flips (all kinds)")                       \
  X(splits, "boundary-only flips (zero keys moved)")                         \
  X(assignment_moves, "single-tablet continuous moves")                      \
  X(keys_moved, "keys extracted and re-installed")                           \
  X(budget_deferrals, "tick()s the throttle held back")                      \
  X(pressure_deferrals, "tick()s client pressure held back")                 \
  X(peak_interval_keys, "most keys moved in one throttle interval")          \
  X(peak_interval_est, "most admitted-estimate keys in one interval")        \
  X(oversize_escapes, "full-bucket admits of an over-budget move")           \
  X(budget_keys, "the configured per-interval key budget")

namespace pathcopy::store {

/// One Rebalancer run: Rebalancer::stats() fills it in, the board prints
/// it as a footer under the per-shard table, and bench rows carry it.
/// The counters separate cheap flips (splits: boundary refinements that
/// move zero keys; assignment moves: single-tablet reassignments) from
/// the keys they carried, and show how often the migration throttle held
/// a planned move back (budget exhausted vs client backpressure).
/// peak_interval_est is the admitted-estimate window the budget actually
/// bounds (and what CI asserts); actual keys (peak_interval_keys) may
/// drift past it while writers run between plan and extraction.
struct RebalanceStats {
  PC_REBALANCE_COUNTERS(PC_STATS_FIELD)
  double last_imbalance = 0.0;  // hottest-shard share multiple at last plan
  std::vector<std::size_t> tablets_per_shard;  // the final tablet table

  /// Calls f(name, value) for every counter, in field order.
  template <class F>
  void for_each_counter(F&& f) const {
    PC_REBALANCE_COUNTERS(PC_STATS_VISIT)
  }
};

class ShardStatsBoard {
 public:
  explicit ShardStatsBoard(std::size_t shards) : per_shard_(shards) {}

  /// Folds one thread's per-shard counters in. Called once per worker at
  /// the end of its run (not per-op), so the lock is cold.
  void add(std::size_t shard, const core::OpStats& s) {
    PC_ASSERT(shard < per_shard_.size(), "shard index out of range");
    const std::lock_guard<std::mutex> lock(mu_);
    per_shard_[shard] += s;
  }

  std::size_t shards() const noexcept { return per_shard_.size(); }

  core::OpStats shard(std::size_t i) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return per_shard_[i];
  }

  core::OpStats total() const {
    const std::lock_guard<std::mutex> lock(mu_);
    core::OpStats t;
    for (const core::OpStats& s : per_shard_) t += s;
    return t;
  }

  /// Attaches a Rebalancer run; print() renders it as a footer.
  void set_rebalance_stats(RebalanceStats s) {
    const std::lock_guard<std::mutex> lock(mu_);
    rebalance_ = std::move(s);
  }

  /// Wall-clock length of the measured run; lets print() turn the read
  /// counter into reads/s. Optional — unset, the rate column shows 0.
  void set_elapsed_seconds(double s) {
    const std::lock_guard<std::mutex> lock(mu_);
    elapsed_s_ = s;
  }

  /// Two per-shard tables, each kept under 120 columns, each printed
  /// from its column list (kWriteColumns, kReadColumns) with a total row.
  ///
  /// WRITE section: installs, retry pressure, batch formation, the
  /// executor pipeline ("tkt/wake": mean tickets a worker wakeup
  /// absorbed — above 1 means backed-up lanes coalesce tickets into
  /// shared installs; "task-us": mean submit-to-completion latency over
  /// the *sampled* tasks — zero on executor-less runs). "batched%" is
  /// the share of installs that went through the sorted-sweep path.
  /// "mig-in"/"mig-out" are the keys a Rebalancer moved into/out of the
  /// shard; "recycled" is the failed-install recycling loop.
  ///
  /// READ section (printed only when the run read at all): "reads" counts
  /// every probe key and per-key read; "reads/s" needs
  /// set_elapsed_seconds. "rd-batch%" is the share of reads resolved by a
  /// batched multi_get probe, "mean-probe" the mean keys per probe sweep,
  /// "rd-tkt/wake" the mean read TICKETS absorbed per merged executor
  /// read sweep (above 1 = cross-ticket read coalescing), "saved-nodes"
  /// the per-key-descent node visits the shared sweeps avoided.
  /// "cut-retry" is consistent-cut pressure (re-pins because the shard's
  /// version moved mid-validation); "epo-wait" counts ops/cuts that
  /// parked on a migrating topology.
  void print(std::FILE* out) const {
    std::vector<core::OpStats> rows;
    std::optional<RebalanceStats> reb;
    double elapsed_s = 0.0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      rows = per_shard_;
      reb = rebalance_;
      elapsed_s = elapsed_s_;
    }
    core::OpStats t;
    for (const core::OpStats& s : rows) t += s;
    print_table(out, kWriteColumns, rows, t, elapsed_s);
    if (t.reads > 0) print_table(out, kReadColumns, rows, t, elapsed_s);
    if (t.exec_wakes > 0) {
      std::fprintf(
          out,
          "executor: %llu wakes (%llu spin-caught, %llu parked), "
          "%llu coalesced installs absorbed %llu tickets; "
          "%llu read sweeps absorbed %llu read tickets; "
          "task-us over %llu sampled tasks\n",
          static_cast<unsigned long long>(t.exec_wakes),
          static_cast<unsigned long long>(t.exec_spin_wakes),
          static_cast<unsigned long long>(t.exec_parks),
          static_cast<unsigned long long>(t.exec_coalesced_installs),
          static_cast<unsigned long long>(t.exec_coalesced_tasks),
          static_cast<unsigned long long>(t.exec_read_sweeps),
          static_cast<unsigned long long>(t.exec_read_tasks),
          static_cast<unsigned long long>(t.exec_task_samples));
    }
    if (!reb.has_value()) return;
    std::fprintf(out, "rebalance:");
    reb->for_each_counter([out](const char* name, std::uint64_t v) {
      std::fprintf(out, " %s=%llu", name, static_cast<unsigned long long>(v));
    });
    std::fprintf(out, "\n");
    if (!reb->tablets_per_shard.empty()) {
      std::fprintf(out, "tablets/shard:");
      for (const std::size_t c : reb->tablets_per_shard) {
        std::fprintf(out, " %zu", c);
      }
      std::fprintf(out, "\n");
    }
  }

 private:
  /// One table column: header, printf width and precision, and its value
  /// for one row's counters over a run of elapsed_s seconds.
  struct Column {
    const char* header;
    int width;
    int precision;
    double (*value)(const core::OpStats& s, double elapsed_s);
  };

  template <std::uint64_t core::OpStats::*Counter>
  static double count(const core::OpStats& s, double) {
    return static_cast<double>(s.*Counter);
  }

  template <double (core::OpStats::*Figure)() const noexcept>
  static double figure(const core::OpStats& s, double) {
    return (s.*Figure)();
  }

  static constexpr Column kWriteColumns[] = {
      {"installs", 10, 0, count<&core::OpStats::updates>},
      {"noops", 9, 0, count<&core::OpStats::noop_updates>},
      {"cas-fail/op", 11, 3, figure<&core::OpStats::failure_ratio>},
      {"batched%", 9, 1,
       [](const core::OpStats& s, double) { return 100.0 * s.batched_share(); }},
      {"mean batch", 10, 2, figure<&core::OpStats::mean_batch_size>},
      {"tkt/wake", 8, 2, figure<&core::OpStats::tickets_per_wake>},
      {"task-us", 8, 1, figure<&core::OpStats::mean_task_us>},
      {"mig-in", 7, 0, count<&core::OpStats::mig_keys_in>},
      {"mig-out", 7, 0, count<&core::OpStats::mig_keys_out>},
      {"recycled", 8, 0, count<&core::OpStats::recycled_nodes>},
  };

  static constexpr Column kReadColumns[] = {
      {"reads", 11, 0, count<&core::OpStats::reads>},
      {"reads/s", 10, 0,
       [](const core::OpStats& s, double elapsed_s) {
         return elapsed_s > 0.0 ? static_cast<double>(s.reads) / elapsed_s
                                : 0.0;
       }},
      {"rd-batch%", 9, 1,
       [](const core::OpStats& s, double) {
         return 100.0 * s.read_batched_share();
       }},
      {"mean-probe", 10, 2, figure<&core::OpStats::mean_read_batch>},
      {"rd-tkt/wake", 11, 2, figure<&core::OpStats::read_tickets_per_wake>},
      {"saved-nodes", 11, 0, count<&core::OpStats::probe_nodes_saved>},
      {"cut-retry", 9, 0, count<&core::OpStats::cut_retries>},
      {"epo-wait", 8, 0, count<&core::OpStats::epoch_retries>},
  };

  /// The header, one row per shard, and the total row, all from `cols`.
  static void print_table(std::FILE* out, std::span<const Column> cols,
                          const std::vector<core::OpStats>& rows,
                          const core::OpStats& total, double elapsed_s) {
    std::fprintf(out, "%6s", "shard");
    for (const Column& c : cols) std::fprintf(out, "  %*s", c.width, c.header);
    for (std::size_t i = 0; i <= rows.size(); ++i) {
      const bool is_total = i == rows.size();
      if (is_total) {
        std::fprintf(out, "\n%6s", "total");
      } else {
        std::fprintf(out, "\n%6zu", i);
      }
      for (const Column& c : cols) {
        std::fprintf(out, "  %*.*f", c.width, c.precision,
                     c.value(is_total ? total : rows[i], elapsed_s));
      }
    }
    std::fprintf(out, "\n");
  }

  mutable std::mutex mu_;
  std::vector<core::OpStats> per_shard_;
  std::optional<RebalanceStats> rebalance_;
  double elapsed_s_ = 0.0;
};

}  // namespace pathcopy::store
