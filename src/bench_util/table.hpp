// Paper-style speedup table rendering.
//
// The paper reports one row per workload: the sequential baseline's
// absolute throughput followed by "UC <P>p" speedup ratios. print_table
// renders exactly that layout, so a run compares side by side with the
// source paper's tables (cited in PAPER.md); the measured re-take on
// real cores is ROADMAP.md item A.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pathcopy::bench {

struct SpeedupRow {
  std::string workload;
  double seq_ops_per_sec = 0.0;
  std::vector<double> speedups;  // aligned with the table's process counts
};

struct SpeedupTable {
  std::string title;
  std::vector<std::size_t> process_counts;
  std::vector<SpeedupRow> rows;
};

void print_table(std::ostream& os, const SpeedupTable& table);

/// Formats like the paper: "1.47x", or "451 940" for absolute throughput.
std::string format_speedup(double ratio);
std::string format_throughput(double ops_per_sec);

}  // namespace pathcopy::bench
