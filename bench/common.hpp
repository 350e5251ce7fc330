// Shared driver for the speedup-table benches (experiments E1-E3).
//
// Each table bench runs the paper's two workloads three ways and prints
// three tables:
//   1. paper      — the published numbers (reference),
//   2. measured   — real threads on this machine (Seq treap baseline vs
//                   the UC treap with EBR + thread-cached pool),
//   3. simulated  — the synchronous private-cache model parameterized for
//                   the paper's machine (process counts, R, and an
//                   allocator-serialization term where the paper observed
//                   the high-P collapse).
//
// On a 1-vCPU host the measured table cannot show real parallelism (the
// workers time-share one core); it is still produced and recorded, while
// the simulated table carries the shape reproduction. The published
// tables come from the source paper (cited in PAPER.md); re-taking the
// measured table on real cores is ROADMAP.md item A.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pathcopy::bench {

struct TableBenchConfig {
  std::string title;
  std::vector<std::size_t> procs;  // UC process counts, paper's columns

  // Real-thread measurement.
  std::size_t initial_keys = 1000000;   // pre-fill set size
  std::size_t batch_keys_per_thread = 16384;
  int trials = 3;                       // paper uses 15; see --trials
  int duration_ms = 300;

  // Simulator parameterization for the paper machine.
  std::size_t sim_ops = 12000;
  std::size_t sim_leaves = 1 << 20;     // ~1e6 keys
  std::size_t sim_cache_lines = 1 << 14;
  std::uint64_t sim_miss_cost = 100;
  // Shared-allocator model (Appendix B): TLAB trips of sim_alloc_batch
  // nodes cost sim_alloc_ticks + sim_alloc_contention * P each. The
  // contention term is what turns saturation into the high-P decline.
  std::uint64_t sim_alloc_ticks = 10;
  std::uint64_t sim_alloc_batch = 32;
  std::uint64_t sim_alloc_contention = 4;

  // Published values for the reference table (speedup per proc count).
  double paper_batch_seq = 0.0;
  double paper_random_seq = 0.0;
  std::vector<double> paper_batch;
  std::vector<double> paper_random;
};

/// Parses --quick/--trials/--duration-ms/--sim-only/--real-only and runs
/// the three tables. Returns a process exit code.
int run_table_bench(TableBenchConfig cfg, int argc, char** argv);

}  // namespace pathcopy::bench
