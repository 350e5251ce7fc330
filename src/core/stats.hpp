// Per-thread operation statistics for the universal construction.
//
// Plain (non-atomic) counters owned by one thread's context; aggregate
// after joining workers. attempts - successes - noops = CAS failures, the
// quantity the paper's analysis is built on.
//
// PC_OPSTATS_COUNTERS is the one list of the scalar counters. It declares
// the fields and generates operator+= and for_each_counter, which the
// store's ShardStatsBoard (store/shard_stats.hpp) and the bench JSON rows
// (bench_util/json_rows.hpp) read, so a new counter is one line in it; a
// field declared outside the list fails the static_assert after the
// struct.
#pragma once

#include <array>
#include <cstdint>

/// X(name, description) for every scalar OpStats counter, in field order.
#define PC_OPSTATS_COUNTERS(X)                                               \
  X(reads, "point reads plus every multi_get probe key")                     \
  X(updates, "update() calls that installed a version")                      \
  X(noop_updates, "update() calls that changed nothing")                     \
  X(attempts, "every pass through the retry loop")                           \
  X(cas_failures, "root CASes lost to a concurrent install")                 \
  /* Combining-UC extras (zero for the plain Atom): */                       \
  X(combined_ops, "announced ops absorbed by my installs")                   \
  X(helped_completions, "my ops completed by someone else")                  \
  /* Sorted-batch extras (zero when batching is off or unsupported): */      \
  X(batched_installs, "installs that used apply_sorted_batch")               \
  X(batched_ops, "announced ops absorbed by those")                          \
  X(spine_copies_saved, "estimated per-op node copies avoided")              \
  X(batch_declines, "batches the fanout gate sent per-op")                   \
  /* Batched-read (multi_get) extras; reads counts every probe key too, */   \
  /* so batched_reads / reads is the share that rode a batched probe: */     \
  X(read_batches, "multi_get probe sweeps run")                              \
  X(batched_reads, "probe keys resolved by those")                           \
  X(probe_nodes_visited, "nodes the shared sweeps touched")                  \
  X(probe_nodes_saved, "per-key-descent nodes avoided")                      \
  /* Shard-executor extras (counted by a shard's worker thread; zero */      \
  /* when the store runs executor-less): */                                  \
  X(exec_tasks, "sub-batches executed")                                      \
  X(exec_wakes, "non-empty lane drains")                                     \
  X(exec_spin_wakes, "work arrived during the spin phase")                   \
  X(exec_parks, "futex parks (idle lane slept)")                             \
  X(exec_coalesced_installs, "merged multi-ticket executes")                 \
  X(exec_coalesced_tasks, "tasks absorbed by those")                         \
  X(exec_read_sweeps, "merged read mega-probes (one per wake)")              \
  X(exec_read_tasks, "read tickets absorbed by those")                       \
  X(exec_task_samples, "tasks with a sampled latency stamp")                 \
  X(exec_task_ns, "submit to completion, sampled tasks only")                \
  /* Consistent-cut extras (counted by the reading session per shard): */    \
  X(cut_reads, "stable cut participations of this shard")                    \
  X(cut_retries, "re-pins because this shard's version moved")               \
  /* Rebalancing extras (epoch_retries counted by sessions whose op or */    \
  /* cut raced a topology flip; mig_keys_* by the Rebalancer per shard): */  \
  X(epoch_retries, "ops/cuts re-run against a flipping epoch")               \
  X(mig_keys_in, "keys migrated into this shard")                            \
  X(mig_keys_out, "keys migrated out of this shard")                         \
  /* Failed-install recycling extras (counted at each builder-owning */      \
  /* call site; zero when recycling is off or the cell is uncontended): */   \
  X(failed_attempt_nodes, "fresh nodes a losing CAS threw away")             \
  X(recycled_nodes, "create() calls served from the bin")

// Generators over a counter list such as PC_OPSTATS_COUNTERS: a zeroed
// uint64 field, the field's sum with `o.name`, a visit f(name, value),
// and +1 (so `0 LIST(PC_STATS_COUNT)` is the list's length).
#define PC_STATS_FIELD(name, what) std::uint64_t name = 0;
#define PC_STATS_ADD(name, what) name += o.name;
#define PC_STATS_VISIT(name, what) f(#name, name);
#define PC_STATS_COUNT(name, what) +1

namespace pathcopy::core {

struct OpStats {
  /// Histogram buckets for combining batch sizes:
  /// 1 / 2 / 3-4 / 5-8 / 9-16 / 17-32 / 33+.
  static constexpr unsigned kBatchHistBuckets = 7;

  PC_OPSTATS_COUNTERS(PC_STATS_FIELD)
  std::array<std::uint64_t, kBatchHistBuckets> batch_hist{};  // by install
  std::array<std::uint64_t, kBatchHistBuckets> read_batch_hist{};  // by sweep

  OpStats& operator+=(const OpStats& o) noexcept {
    PC_OPSTATS_COUNTERS(PC_STATS_ADD)
    for (unsigned i = 0; i < kBatchHistBuckets; ++i) {
      batch_hist[i] += o.batch_hist[i];
      read_batch_hist[i] += o.read_batch_hist[i];
    }
    return *this;
  }

  /// Calls f(name, value) for every scalar counter, in field order.
  template <class F>
  void for_each_counter(F&& f) const {
    PC_OPSTATS_COUNTERS(PC_STATS_VISIT)
  }

  /// num / den, or 0 when den is 0 (nothing to average over). Every
  /// derived figure below goes through this one guarded divide.
  static double ratio(std::uint64_t num, std::uint64_t den) noexcept {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }

  /// Mean tasks absorbed per worker wakeup — the coalescing quantity: a
  /// value above 1 means backed-up lanes are merging tickets into shared
  /// installs. 0 when the store ran executor-less.
  double tickets_per_wake() const noexcept {
    return ratio(exec_tasks, exec_wakes);
  }

  /// Mean submit-to-completion latency of one executor task,
  /// microseconds, over the SAMPLED tasks only (submit stamps every Nth
  /// task — see ShardExecutor — so this is an estimate, not a census).
  double mean_task_us() const noexcept {
    return ratio(exec_task_ns, exec_task_samples) / 1000.0;
  }

  /// Bucket index for a batch of b ops (b >= 1).
  static unsigned batch_bucket(std::uint64_t b) noexcept {
    if (b <= 2) return b <= 1 ? 0u : 1u;
    unsigned i = 2;
    std::uint64_t hi = 4;
    while (i + 1 < kBatchHistBuckets && b > hi) {
      ++i;
      hi <<= 1;
    }
    return i;
  }

  static const char* batch_bucket_label(unsigned i) noexcept {
    static constexpr const char* kLabels[kBatchHistBuckets] = {
        "1", "2", "3-4", "5-8", "9-16", "17-32", "33+"};
    return i < kBatchHistBuckets ? kLabels[i] : "?";
  }

  /// Mean probe keys per multi_get sweep; 0 when none ran.
  double mean_read_batch() const noexcept {
    return ratio(batched_reads, read_batches);
  }

  /// Share of reads that rode a batched probe; 0 when no reads ran.
  double read_batched_share() const noexcept {
    return ratio(batched_reads, reads);
  }

  /// Mean read tickets absorbed per merged read sweep — the read-side
  /// coalescing quantity (the --assert-read-coalesce gate): above 1 means
  /// backed-up lanes are merging read tickets into shared probes. 0 when
  /// no read task ever rode the executor.
  double read_tickets_per_wake() const noexcept {
    return ratio(exec_read_tasks, exec_read_sweeps);
  }

  /// Mean announced ops per batched install; 0 when none happened.
  double mean_batch_size() const noexcept {
    return ratio(batched_ops, batched_installs);
  }

  /// Share of installs that went through the sorted-sweep path; 0 when
  /// nothing was installed.
  double batched_share() const noexcept {
    return ratio(batched_installs, updates);
  }

  /// Share of failed-attempt nodes whose blocks a later create() reused;
  /// 0 when no attempt ever failed.
  double recycle_ratio() const noexcept {
    return ratio(recycled_nodes, failed_attempt_nodes);
  }

  /// Mean retries per successful update; 0 when uncontended.
  double failure_ratio() const noexcept {
    return ratio(cas_failures, updates);
  }
};

static_assert(sizeof(OpStats) ==
                  (0 PC_OPSTATS_COUNTERS(PC_STATS_COUNT)) *
                          sizeof(std::uint64_t) +
                      2 * sizeof(OpStats::batch_hist),
              "every OpStats scalar must be listed in PC_OPSTATS_COUNTERS");

}  // namespace pathcopy::core
