#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>

#include "bench_util/json_rows.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "bench_util/workloads.hpp"
#include "core/stats.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

TEST(Workloads, BatchKeysAreDisjointAndUnique) {
  const auto keys = bench::make_batch_keys(1000, 4, 250, 7);
  std::unordered_set<std::int64_t> all;
  for (const auto k : keys.initial) EXPECT_TRUE(all.insert(k).second);
  for (const auto& per : keys.per_thread) {
    EXPECT_EQ(per.size(), 250u);
    for (const auto k : per) EXPECT_TRUE(all.insert(k).second);
  }
  EXPECT_EQ(all.size(), 1000u + 4u * 250u);
}

TEST(Workloads, BatchKeysDeterministicPerSeed) {
  const auto a = bench::make_batch_keys(100, 2, 50, 9);
  const auto b = bench::make_batch_keys(100, 2, 50, 9);
  EXPECT_EQ(a.initial, b.initial);
  EXPECT_EQ(a.per_thread, b.per_thread);
  const auto c = bench::make_batch_keys(100, 2, 50, 10);
  EXPECT_NE(a.initial, c.initial);
}

TEST(Workloads, RandomInitialInRangeWithDuplicates) {
  bench::RandomWorkloadConfig cfg;
  cfg.initial_inserts = 50000;
  cfg.lo = -1000;
  cfg.hi = 1000;
  const auto draws = bench::make_random_initial(cfg, 3);
  EXPECT_EQ(draws.size(), 50000u);
  for (const auto k : draws) {
    ASSERT_GE(k, cfg.lo);
    ASSERT_LE(k, cfg.hi);
  }
  const auto unique = bench::dedup_sorted(draws);
  // 50000 draws from 2001 values: nearly all values hit, many duplicates.
  EXPECT_LT(unique.size(), draws.size());
  EXPECT_GT(unique.size(), 1900u);
  EXPECT_TRUE(std::is_sorted(unique.begin(), unique.end()));
}

TEST(Runner, SummarizeBasics) {
  const auto s = bench::summarize({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  const auto empty = bench::summarize({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Runner, RunTrialsCollects) {
  int calls = 0;
  const auto s = bench::run_trials(5, [&] { return static_cast<double>(++calls); });
  EXPECT_EQ(calls, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Runner, RunTimedCountsWork) {
  using namespace std::chrono_literals;
  const auto run = bench::run_timed(2, 50ms, [](std::size_t, const std::atomic<bool>& stop) {
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) ++ops;
    return ops;
  });
  EXPECT_GT(run.total_ops, 0u);
  EXPECT_GT(run.seconds, 0.04);
  EXPECT_GT(run.ops_per_sec(), 0.0);
}

TEST(Runner, HardwareThreadsPositive) {
  EXPECT_GE(bench::hardware_threads(), 1u);
}

TEST(Table, FormatSpeedup) {
  EXPECT_EQ(bench::format_speedup(1.466), "1.47x");
  EXPECT_EQ(bench::format_speedup(0.89), "0.89x");
}

TEST(Table, FormatThroughputSpacesThousands) {
  EXPECT_EQ(bench::format_throughput(451940), "451 940");
  EXPECT_EQ(bench::format_throughput(999), "999");
  EXPECT_EQ(bench::format_throughput(1000000), "1 000 000");
}

TEST(Skew, ZipfDrawsAreInRangeSkewedAndDeterministic) {
  const bench::ZipfGen zipf(1 << 20, 0.99);
  util::Xoshiro256 rng(7);
  std::uint64_t head = 0;  // draws landing in the hottest 1% of ranks
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t r = zipf(rng);
    ASSERT_LT(r, std::uint64_t{1} << 20);
    if (r < (1u << 20) / 100) ++head;
  }
  // Zipf(0.99): the top 1% of ranks draw well over half the mass —
  // that is the skew the rebalancing bench exists for. (Uniform would
  // put ~1% here.)
  EXPECT_GT(head, kDraws / 2);
  // Deterministic per seed.
  util::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(zipf(a), zipf(b));
}

TEST(Skew, MovingHotspotConfinesAndAdvances) {
  constexpr std::int64_t kSpace = 1 << 16;
  constexpr std::int64_t kWidth = 256;
  // Pinned hotspot (period 0): 100% of draws inside [0, width).
  bench::MovingHotspot pinned(kSpace, kWidth, 0, 0, 1000);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t k = pinned(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, kWidth);
  }
  // Moving hotspot: after `period` draws the window has advanced by
  // `stride` — hot draws land in the shifted window.
  bench::MovingHotspot moving(kSpace, kWidth, 1000, 4096, 1000);
  for (int i = 0; i < 1000; ++i) (void)moving(rng);  // first window
  for (int i = 0; i < 500; ++i) {
    const std::int64_t k = moving(rng);
    ASSERT_GE(k, 4096);
    ASSERT_LT(k, 4096 + kWidth);
  }
}

TEST(Table, PrintTableShape) {
  bench::SpeedupTable t;
  t.title = "Test";
  t.process_counts = {1, 4};
  t.rows.push_back({"Batch", 451940, {0.89, 1.23}});
  std::ostringstream os;
  bench::print_table(os, t);
  const std::string out = os.str();
  EXPECT_NE(out.find("Batch"), std::string::npos);
  EXPECT_NE(out.find("451 940"), std::string::npos);
  EXPECT_NE(out.find("0.89x"), std::string::npos);
  EXPECT_NE(out.find("UC 4p"), std::string::npos);
}

TEST(JsonRows, OneArrayMetaFirstEveryCounterOnceNanAsNull) {
  const std::string path = testing::TempDir() + "json_rows_test.json";
  core::OpStats stats;
  stats.updates = 7;
  {
    bench::JsonRows json(path.c_str(), "test_workloads", {{"cell_ms", 5}});
    json.row("cell",
             {{"name", "a \"quoted\" cell"},
              {"count", 42},
              {"nan", std::nan("")}},
             stats);
  }
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // One array of two flat objects: outside strings, the bracket depth
  // first returns to zero at the last character that is not whitespace.
  int depth = 0;
  int objects = 0;
  bool in_string = false;
  std::size_t closed_at = std::string::npos;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' && depth == 1) ++objects;
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    if (depth == 0 && closed_at == std::string::npos && c == ']') closed_at = i;
  }
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(closed_at, text.find_last_not_of(" \n"));
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(objects, 2);

  EXPECT_LT(text.find("{\"row\": \"meta\", \"bench\": \"test_workloads\""),
            text.find("\"row\": \"cell\""));
  EXPECT_NE(text.find("\"count\": 42,"), std::string::npos);
  EXPECT_NE(text.find("\"nan\": null,"), std::string::npos);
  EXPECT_NE(text.find("\"updates\": 7,"), std::string::npos);
  stats.for_each_counter([&](const char* name, std::uint64_t) {
    const std::string key = "\"" + std::string(name) + "\": ";
    const std::size_t first = text.find(key);
    EXPECT_NE(first, std::string::npos) << name;
    EXPECT_EQ(text.find(key, first + 1), std::string::npos) << name;
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pathcopy
