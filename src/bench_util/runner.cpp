#include "bench_util/runner.hpp"

#include <cmath>
#include <thread>

namespace pathcopy::bench {

TimedRun run_timed(std::size_t threads, std::chrono::milliseconds duration,
                   const ThreadBody& body) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::uint64_t> ops(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ops[t] = body(t, stop);
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();

  TimedRun run;
  for (const auto o : ops) run.total_ops += o;
  run.seconds = std::chrono::duration<double>(end - start).count();
  return run;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  s.min = samples.front();
  s.max = samples.front();
  double sum = 0.0;
  for (const double v : samples) {
    sum += v;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (const double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = samples.size() > 1
                 ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                 : 0.0;
  return s;
}

Summary run_trials(std::size_t trials, const std::function<double()>& one_trial) {
  std::vector<double> samples;
  samples.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) samples.push_back(one_trial());
  return summarize(samples);
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace pathcopy::bench
