// Trial execution helpers: timed multi-thread runs and summary statistics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace pathcopy::bench {

/// Per-thread body: runs operations until the stop flag is raised and
/// returns the number of completed operations. tid in [0, threads).
using ThreadBody =
    std::function<std::uint64_t(std::size_t tid, const std::atomic<bool>& stop)>;

struct TimedRun {
  std::uint64_t total_ops = 0;
  double seconds = 0.0;

  double ops_per_sec() const {
    return seconds == 0.0 ? 0.0 : static_cast<double>(total_ops) / seconds;
  }
};

/// Spawns `threads` workers running `body`, lets them run for `duration`,
/// raises the stop flag and joins. Workers start together (barrier).
TimedRun run_timed(std::size_t threads, std::chrono::milliseconds duration,
                   const ThreadBody& body);

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& samples);

/// Runs `trials` repetitions of a measurement returning ops/sec each.
Summary run_trials(std::size_t trials, const std::function<double()>& one_trial);

/// Hardware concurrency with a floor of 1.
std::size_t hardware_threads();

}  // namespace pathcopy::bench
