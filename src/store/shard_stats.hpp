// Per-shard OpStats roll-up for the store layer.
//
// Each Session owns plain per-shard counters (one OpStats per shard, no
// atomics on the hot path). At the end of a run every worker folds its
// session into a ShardStatsBoard — a mutex-guarded, per-shard accumulator
// — and the bench/report side reads per-shard and whole-store totals from
// one place. This is the sharded analogue of bench_util's
// OpStatsAccumulator, kept in src/store because the per-shard breakdown
// (which shard absorbed the installs, where the CAS failures concentrate,
// who formed batches) is store-layer vocabulary, not bench plumbing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "util/assert.hpp"

namespace pathcopy::store {

/// One-shot roll-up of a Rebalancer run, printed as a footer under the
/// per-shard table. tablets_per_shard counts the final table's tablets
/// per shard; the counters separate cheap flips (splits: boundary
/// refinements that move zero keys; assignment moves: single-tablet
/// reassignments) from the keys they carried, and surface how often the
/// migration throttle held a planned move back (budget exhausted vs
/// client backpressure).
/// peak_interval_keys is the most keys moved inside one throttle
/// interval; peak_interval_est is the admitted-estimate window the
/// budget actually bounds (and what CI asserts — actuals may drift
/// past the estimate while writers run between plan and extraction).
struct RebalanceSummary {
  std::vector<std::size_t> tablets_per_shard;
  std::uint64_t migrations = 0;
  std::uint64_t splits = 0;
  std::uint64_t assignment_moves = 0;
  std::uint64_t keys_moved = 0;
  std::uint64_t budget_deferrals = 0;
  std::uint64_t pressure_deferrals = 0;
  std::uint64_t peak_interval_keys = 0;
  std::uint64_t peak_interval_est = 0;
  std::uint64_t oversize_escapes = 0;
  std::uint64_t budget_keys = 0;  // the configured per-interval cap
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

  /// Folds a whole Session (anything exposing shard_stats(i)).
  template <class Session>
  void add_session(const Session& session) {
    for (std::size_t i = 0; i < per_shard_.size(); ++i) {
      add(i, session.shard_stats(i));
    }
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

  /// Attaches a Rebalancer roll-up; print() renders it as a footer.
  void set_rebalance_summary(RebalanceSummary s) {
    const std::lock_guard<std::mutex> lock(mu_);
    rebalance_ = std::move(s);
    have_rebalance_ = true;
  }

  /// Wall-clock length of the measured run; lets print() turn the read
  /// counter into reads/s. Optional — unset, the rate column shows 0.
  void set_elapsed_seconds(double s) {
    const std::lock_guard<std::mutex> lock(mu_);
    elapsed_s_ = s;
  }

  /// Two per-shard tables, each kept under 120 columns.
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
    std::fprintf(out,
                 "%6s  %10s  %9s  %11s  %9s  %10s  %8s  %8s  %7s  %7s  %8s\n",
                 "shard", "installs", "noops", "cas-fail/op", "batched%",
                 "mean batch", "tkt/wake", "task-us", "mig-in", "mig-out",
                 "recycled");
    core::OpStats t;
    for (std::size_t i = 0; i < per_shard_.size(); ++i) {
      const core::OpStats s = shard(i);
      t += s;
      print_row(out, i, s);
    }
    std::fprintf(out,
                 "%6s  %10llu  %9llu  %11.3f  %8.1f%%  %10.2f  %8.2f  "
                 "%8.1f  %7llu  %7llu  %8llu\n",
                 "total", static_cast<unsigned long long>(t.updates),
                 static_cast<unsigned long long>(t.noop_updates),
                 t.failure_ratio(), batched_pct(t), t.mean_batch_size(),
                 t.tickets_per_wake(), t.mean_task_us(),
                 static_cast<unsigned long long>(t.mig_keys_in),
                 static_cast<unsigned long long>(t.mig_keys_out),
                 static_cast<unsigned long long>(t.recycled_nodes));
    if (t.reads > 0) {
      double elapsed = 0.0;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        elapsed = elapsed_s_;
      }
      std::fprintf(out,
                   "%6s  %11s  %10s  %9s  %10s  %11s  %11s  %9s  %8s\n",
                   "shard", "reads", "reads/s", "rd-batch%", "mean-probe",
                   "rd-tkt/wake", "saved-nodes", "cut-retry", "epo-wait");
      for (std::size_t i = 0; i < per_shard_.size(); ++i) {
        print_read_row(out, i, shard(i), elapsed);
      }
      print_read_total(out, t, elapsed);
    }
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
    RebalanceSummary reb;
    bool have = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      reb = rebalance_;
      have = have_rebalance_;
    }
    if (!have) return;
    std::fprintf(out,
                 "rebalance: %llu flips (%llu splits, %llu moves), "
                 "%llu keys moved, deferrals budget=%llu pressure=%llu, "
                 "peak interval keys=%llu (est %llu, escapes %llu)/%llu\n",
                 static_cast<unsigned long long>(reb.migrations),
                 static_cast<unsigned long long>(reb.splits),
                 static_cast<unsigned long long>(reb.assignment_moves),
                 static_cast<unsigned long long>(reb.keys_moved),
                 static_cast<unsigned long long>(reb.budget_deferrals),
                 static_cast<unsigned long long>(reb.pressure_deferrals),
                 static_cast<unsigned long long>(reb.peak_interval_keys),
                 static_cast<unsigned long long>(reb.peak_interval_est),
                 static_cast<unsigned long long>(reb.oversize_escapes),
                 static_cast<unsigned long long>(reb.budget_keys));
    if (!reb.tablets_per_shard.empty()) {
      std::fprintf(out, "tablets/shard:");
      for (const std::size_t c : reb.tablets_per_shard) {
        std::fprintf(out, " %zu", c);
      }
      std::fprintf(out, "\n");
    }
  }

 private:
  static double batched_pct(const core::OpStats& s) {
    return s.updates == 0 ? 0.0
                          : 100.0 * static_cast<double>(s.batched_installs) /
                                static_cast<double>(s.updates);
  }

  static void print_row(std::FILE* out, std::size_t i,
                        const core::OpStats& s) {
    std::fprintf(out,
                 "%6zu  %10llu  %9llu  %11.3f  %8.1f%%  %10.2f  %8.2f  "
                 "%8.1f  %7llu  %7llu  %8llu\n",
                 i, static_cast<unsigned long long>(s.updates),
                 static_cast<unsigned long long>(s.noop_updates),
                 s.failure_ratio(), batched_pct(s), s.mean_batch_size(),
                 s.tickets_per_wake(), s.mean_task_us(),
                 static_cast<unsigned long long>(s.mig_keys_in),
                 static_cast<unsigned long long>(s.mig_keys_out),
                 static_cast<unsigned long long>(s.recycled_nodes));
  }

  static void print_read_row(std::FILE* out, std::size_t i,
                             const core::OpStats& s, double elapsed) {
    std::fprintf(out,
                 "%6zu  %11llu  %10.0f  %8.1f%%  %10.2f  %11.2f  %11llu  "
                 "%9llu  %8llu\n",
                 i, static_cast<unsigned long long>(s.reads),
                 elapsed > 0.0 ? static_cast<double>(s.reads) / elapsed : 0.0,
                 100.0 * s.read_batched_share(), s.mean_read_batch(),
                 s.read_tickets_per_wake(),
                 static_cast<unsigned long long>(s.probe_nodes_saved),
                 static_cast<unsigned long long>(s.cut_retries),
                 static_cast<unsigned long long>(s.epoch_retries));
  }

  static void print_read_total(std::FILE* out, const core::OpStats& t,
                               double elapsed) {
    std::fprintf(out,
                 "%6s  %11llu  %10.0f  %8.1f%%  %10.2f  %11.2f  %11llu  "
                 "%9llu  %8llu\n",
                 "total", static_cast<unsigned long long>(t.reads),
                 elapsed > 0.0 ? static_cast<double>(t.reads) / elapsed : 0.0,
                 100.0 * t.read_batched_share(), t.mean_read_batch(),
                 t.read_tickets_per_wake(),
                 static_cast<unsigned long long>(t.probe_nodes_saved),
                 static_cast<unsigned long long>(t.cut_retries),
                 static_cast<unsigned long long>(t.epoch_retries));
  }

  mutable std::mutex mu_;
  std::vector<core::OpStats> per_shard_;
  RebalanceSummary rebalance_;
  bool have_rebalance_ = false;
  double elapsed_s_ = 0.0;
};

}  // namespace pathcopy::store
