// Rendering for the combining UC's batch and multi_get counters.
//
// Worker threads own plain OpStats; benches fold them into a
// store::ShardStatsBoard (one shard for a single atom) at join time and
// render the size histograms, spine-copy savings and recycling summary
// that bench_batch_combining and bench_readmix report alongside
// throughput.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>

#include "core/stats.hpp"

namespace pathcopy::bench {

/// One-line size histogram: each non-empty bucket's share of `total`
/// (the batched installs or probe sweeps the histogram counts).
inline void print_histogram(
    std::FILE* out, const char* what,
    const std::array<std::uint64_t, core::OpStats::kBatchHistBuckets>& hist,
    std::uint64_t total) {
  std::fprintf(out, "%s size histogram (of %llu):", what,
               static_cast<unsigned long long>(total));
  if (total == 0) std::fprintf(out, " (none)");
  for (unsigned i = 0; i < hist.size(); ++i) {
    if (hist[i] == 0) continue;
    std::fprintf(out, "  %s:%.1f%%", core::OpStats::batch_bucket_label(i),
                 100.0 * core::OpStats::ratio(hist[i], total));
  }
  std::fprintf(out, "\n");
}

/// Mean spine copies saved per batched install (0 when none ran).
inline double spine_savings_per_install(const core::OpStats& s) {
  return core::OpStats::ratio(s.spine_copies_saved, s.batched_installs);
}

/// One-line failed-install recycling summary: how many fresh nodes losing
/// CAS attempts threw away, and what share of subsequent create() calls
/// the builder bin served instead of the allocator. Prints nothing when
/// the run never lost a CAS (uncontended cells).
inline void print_recycle_stats(std::FILE* out, const core::OpStats& s) {
  if (s.failed_attempt_nodes == 0 && s.recycled_nodes == 0) return;
  std::fprintf(out,
               "recycling: %llu failed-attempt nodes, %llu creates served "
               "from the bin (%.1f%% recycle ratio)\n",
               static_cast<unsigned long long>(s.failed_attempt_nodes),
               static_cast<unsigned long long>(s.recycled_nodes),
               100.0 * s.recycle_ratio());
}

/// Batched-read (multi_get) summary: probe sweeps run, keys they
/// resolved, the shared-vs-per-key node accounting, and the probe-size
/// histogram. Prints nothing when the run never issued a multi_get.
inline void print_read_stats(std::FILE* out, const core::OpStats& s) {
  if (s.read_batches == 0) return;
  std::fprintf(out,
               "multi-get: %llu probe sweeps resolved %llu keys "
               "(mean batch %.1f, %.1f%% of all reads); "
               "nodes visited %llu, saved %llu vs per-key descents\n",
               static_cast<unsigned long long>(s.read_batches),
               static_cast<unsigned long long>(s.batched_reads),
               s.mean_read_batch(), 100.0 * s.read_batched_share(),
               static_cast<unsigned long long>(s.probe_nodes_visited),
               static_cast<unsigned long long>(s.probe_nodes_saved));
  print_histogram(out, "probe", s.read_batch_hist, s.read_batches);
  if (s.exec_read_sweeps > 0) {
    std::fprintf(out,
                 "read coalescing: %llu merged sweeps absorbed %llu read "
                 "tickets (%.2f tickets/wake)\n",
                 static_cast<unsigned long long>(s.exec_read_sweeps),
                 static_cast<unsigned long long>(s.exec_read_tasks),
                 s.read_tickets_per_wake());
  }
}

}  // namespace pathcopy::bench
