// store_bench: runs one workload of the store benchmark in this process
// and reports its metrics.
//
//   store_bench --workload NAME [--seed N] [--seconds S] [--warmup S]
//               [--trace 0|1] [--scale N] [--out DIR] [--commit HASH]
//   store_bench --list          (workload names)
//   store_bench --selftest      (histogram accuracy and merge checks)
//
// Every metric is printed as "workload metric value unit". The full set,
// with run metadata, goes to DIR/<workload>.json. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}: the gated end-to-end metrics, or with --trace 1 the per-layer
// metrics. --trace 1 runs the workload twice, untraced and then through
// the traced store types, and also writes DIR/<workload>.trace.json
// (Chrome trace-event format). The exit code is 0 only when every
// outcome was correct.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "histogram.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double div0(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double us(double ns) { return ns / 1000.0; }

LatencyHistogram all_calls(const RunResult& r) {
  LatencyHistogram h;
  for (const LatencyHistogram& c : r.hist) h.merge(c);
  return h;
}

std::uint64_t failures(const RunResult& r) {
  return r.wrong + r.exceptions + r.final_mismatches;
}

double ops_per_s(const RunResult& r) {
  return div0(static_cast<double>(r.key_ops_window), r.window_s);
}

/// The gated end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"ops_per_s", ops_per_s(r), "key-ops/s"},
      {"call_p50_us", us(all_calls(r).quantile(0.50)), "us"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mib", r.peak_rss_mib, "MiB"},
  };
}

/// Tails of all calls together. They vary too much between runs to be
/// gated, so BENCHMARK.json lists them with the per-layer metrics.
std::vector<Metric> call_tails(const RunResult& r) {
  const LatencyHistogram calls = all_calls(r);
  return {
      {"call_p90_us", us(calls.quantile(0.90)), "us"},
      {"call_p99_us", us(calls.quantile(0.99)), "us"},
      {"call_p999_us", us(calls.quantile(0.999)), "us"},
  };
}

/// Reported and compared, but not in BENCHMARK.json: error_rate is 0 on
/// a correct run, and each per-call latency exists only on the workloads
/// that issue that call.
std::vector<Metric> end_to_end_detail(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"error_rate",
               div0(static_cast<double>(failures(r)),
                    static_cast<double>(r.key_ops_total)),
               "ratio"});
  for (std::size_t i = 0; i < kOpClasses; ++i) {
    if (r.hist[i].count() == 0) continue;
    const std::string op = op_class_name(static_cast<OpClass>(i));
    m.push_back({op + "_p50_us", us(r.hist[i].quantile(0.50)), "us"});
    m.push_back({op + "_p99_us", us(r.hist[i].quantile(0.99)), "us"});
    m.push_back({op + "_p999_us", us(r.hist[i].quantile(0.999)), "us"});
    m.push_back({op + "_n", static_cast<double>(r.hist[i].count()), "count"});
  }
  return m;
}

/// The per-layer metrics, in BENCHMARK.json order. Counts come from the
/// store's own counters over the traced run's whole client interval;
/// times from its spans.
std::vector<Metric> per_layer(const RunResult& plain, const RunResult& t) {
  const auto d = [](auto a) { return static_cast<double>(a); };
  const double k = d(t.key_ops_total);
  const double u = d(t.update_ops_total);
  const pathcopy::core::OpStats& s = t.ops;
  const TraceReport& tr = t.trace;
  const SpanTotals core = tr.layer(Layer::kCore);
  const SpanTotals alloc = tr.layer(Layer::kAlloc);
  const SpanTotals reclaim = tr.layer(Layer::kReclaim);
  const SpanTotals store = tr.layer(Layer::kStore);
  const SpanTotals& allocs = tr[SpanName::kAllocAllocate];
  const SpanTotals& pins = tr[SpanName::kReclaimPin];
  std::vector<Metric> m = {
      {"core.ns_per_op", div0(d(core.total_ns), k), "ns"},
      {"core.self_ns_per_op", div0(d(core.self_ns), k), "ns"},
      {"core.attempts_per_update", div0(d(s.attempts), u), "count"},
      {"core.cas_failures_per_update", div0(d(s.cas_failures), u), "count"},
      {"core.useful_attempt_ratio",
       div0(d(s.attempts - s.cas_failures), d(s.attempts)), "ratio"},
      {"core.batched_install_frac", div0(d(s.batched_installs), d(s.updates)),
       "ratio"},
      {"core.mean_batch", s.mean_batch_size(), "count"},
      {"core.helped_frac", div0(d(s.helped_completions), u), "ratio"},
      {"persist.nodes_per_update", div0(d(allocs.spans + s.recycled_nodes), u),
       "count"},
      {"persist.spine_copies_saved_per_install",
       div0(d(s.spine_copies_saved), d(s.updates)), "count"},
      {"persist.probe_nodes_per_key",
       div0(d(s.probe_nodes_visited), d(s.batched_reads)), "count"},
      {"alloc.ns_per_op", div0(d(alloc.total_ns), k), "ns"},
      {"alloc.calls_per_op", div0(d(alloc.spans), k), "count"},
      {"alloc.backend_trips_per_op", div0(d(t.backend_trips), k), "count"},
      {"alloc.recycle_ratio", s.recycle_ratio(), "ratio"},
      {"reclaim.ns_per_op", div0(d(reclaim.total_ns), k), "ns"},
      {"reclaim.pin_ns_per_read", div0(d(pins.total_ns), d(pins.spans)), "ns"},
      {"reclaim.freed_per_update", div0(d(t.freed_nodes), u), "count"},
      {"reclaim.pending_nodes_peak", d(t.pending_nodes_peak), "count"},
      {"store.self_ns_per_op", div0(d(store.self_ns), k), "ns"},
      {"store.cut.retries_per_scan", div0(d(s.cut_retries), d(t.scans_total)),
       "count"},
      {"store.exec.worker_busy_frac",
       div0(d(tr.outer_ns[static_cast<std::size_t>(Role::kOther)]),
            d(t.workers) * t.interval_s * 1e9),
       "ratio"},
      {"store.exec.tickets_per_wake", s.tickets_per_wake(), "count"},
      {"store.exec.park_frac",
       div0(d(s.exec_parks), d(s.exec_spin_wakes + s.exec_parks)), "ratio"},
      {"store.exec.task_us_sampled", s.mean_task_us(), "us"},
      {"store.epoch.retries_per_op", div0(d(s.epoch_retries), k), "count"},
      {"store.rebalance.migrations", d(t.rebalance.migrations), "count"},
      {"store.rebalance.keys_moved", d(t.rebalance.keys_moved), "count"},
      {"store.rebalance.max_shard_share", t.max_shard_share, "ratio"},
  };
  for (Metric& tail : call_tails(plain)) m.push_back(std::move(tail));
  m.push_back({"trace.overhead_frac",
               1.0 - div0(ops_per_s(t), ops_per_s(plain)), "ratio"});
  m.push_back({"trace.coverage",
               div0(d(tr.outer_ns[static_cast<std::size_t>(Role::kClient)]),
                    d(t.clients) * t.interval_s * 1e9),
               "ratio"});
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(ms[i].name) +
           ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(v[i]);
  }
  return out + "]";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  RunConfig run;
  bool trace = false;
  std::string out = ".";
  std::string commit = "unknown";
  bool selftest = false;
  bool list = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest" || flag == "--list") {
      (flag == "--list" ? a.list : a.selftest) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.run.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.run.seconds = std::strtod(v, &end);
    } else if (flag == "--warmup") {
      a.run.warmup = std::strtod(v, &end);
    } else if (flag == "--scale") {
      a.run.scale = static_cast<unsigned>(std::strtoul(v, &end, 10));
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a.selftest || a.list ||
         (!a.workload.empty() && a.run.seconds > 0.0 && a.run.warmup >= 0.0 &&
          a.run.scale >= 1 && a.run.seconds <= 3600.0);
}

int histogram_selftest() {
  using pathcopy::util::Xoshiro256;
  constexpr std::size_t kN = 200000;
  const auto uniform = [](Xoshiro256& rng) -> std::uint64_t {
    return 1000 + rng.below(1'000'000);
  };
  const auto bimodal = [](Xoshiro256& rng) -> std::uint64_t {
    return rng.chance(7, 10) ? 1800 + rng.below(400)
                             : 130'000 + rng.below(40'000);
  };
  const auto heavy_tail = [](Xoshiro256& rng) -> std::uint64_t {
    // Pareto(x_m = 1000, alpha = 1.2).
    const double u = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::min(1000.0 / std::pow(u, 1.0 / 1.2), 1e12));
  };
  struct Case {
    const char* name;
    std::uint64_t (*draw)(Xoshiro256&);
  };
  const Case cases[] = {{"uniform", +uniform},
                        {"bimodal", +bimodal},
                        {"heavy_tail", +heavy_tail}};
  const double qs[] = {0.0, 0.001, 0.01, 0.1, 0.25, 0.5,
                       0.75, 0.9, 0.99, 0.999, 0.9999, 1.0};
  int failed = 0;
  for (const Case& c : cases) {
    Xoshiro256 rng(42);
    std::vector<std::uint64_t> values(kN);
    LatencyHistogram whole;
    LatencyHistogram parts[4];
    for (std::size_t i = 0; i < kN; ++i) {
      values[i] = c.draw(rng);
      whole.record(values[i]);
      parts[i % 4].record(values[i]);
    }
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double worst = 0.0;
    for (const double q : qs) {
      const double want = std::ceil(q * static_cast<double>(kN));
      const std::size_t rank =
          std::clamp<std::size_t>(static_cast<std::size_t>(want), 1, kN);
      const double exact = static_cast<double>(sorted[rank - 1]);
      const double got = static_cast<double>(whole.quantile(q));
      worst = std::max(worst, std::abs(got - exact) / exact);
    }
    LatencyHistogram fwd, rev, pairs, left, right;
    for (int i = 0; i < 4; ++i) fwd.merge(parts[i]);
    for (int i = 3; i >= 0; --i) rev.merge(parts[i]);
    left.merge(parts[0]);
    left.merge(parts[2]);
    right.merge(parts[3]);
    right.merge(parts[1]);
    pairs.merge(right);
    pairs.merge(left);
    const bool merge_ok = fwd == whole && rev == whole && pairs == whole;
    const bool ok = worst <= 1.0 / 32.0 && merge_ok;
    std::printf("%-10s worst quantile error %.5f (limit %.5f), merge %s: %s\n",
                c.name, worst, 1.0 / 32.0,
                merge_ok ? "order-independent" : "ORDER-DEPENDENT",
                ok ? "ok" : "FAIL");
    failed += !ok;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--warmup S] [--trace 0|1] [--scale N] [--out DIR] "
                 "[--commit HASH] | --list | --selftest\n",
                 argv[0]);
    return 2;
  }
  if (a.selftest) return histogram_selftest();

  const std::vector<WorkloadSpec> specs = workload_specs(a.run.scale);
  if (a.list) {
    for (const WorkloadSpec& w : specs) std::printf("%s\n", w.name);
    return 0;
  }
  const auto it = std::find_if(specs.begin(), specs.end(), [&](const auto& w) {
    return a.workload == w.name;
  });
  if (it == specs.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *it;

  const RunResult plain = run_plain(w, a.run);
  std::vector<Metric> gated = end_to_end(plain);
  std::vector<Metric> all = gated;
  for (Metric& m : end_to_end_detail(plain)) all.push_back(std::move(m));
  std::uint64_t attempted = plain.key_ops_total;
  std::uint64_t failed = failures(plain);

  std::vector<Metric> layer;
  if (!a.trace) {
    for (Metric& m : call_tails(plain)) all.push_back(std::move(m));
  } else {
    const RunResult traced = run_traced(w, a.run);
    layer = per_layer(plain, traced);
    for (const Metric& m : layer) all.push_back(m);
    attempted += traced.key_ops_total;
    failed += failures(traced);
    const std::string trace_path = a.out + "/" + w.name + ".trace.json";
    if (!write_chrome_trace(traced.trace, trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("span sample: %s\n", trace_path.c_str());
  }
  const bool correct = failed == 0;

  for (const Metric& m : all) {
    std::printf("%-17s %-38s %16.6g %s\n", w.name, m.name.c_str(), m.value,
                m.unit);
  }

  const std::string result_path = a.out + "/" + w.name + ".json";
  std::FILE* f = std::fopen(result_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 2;
  }
  std::fprintf(
      f,
      "{\"workload\": %s, \"why\": %s,\n"
      " \"meta\": {\"nproc\": %u, \"cpu_model\": %s, \"commit\": %s, "
      "\"seed\": %llu, \"warmup_s\": %s, \"window_s\": %s, "
      "\"measured_window_s\": %s, \"clients\": %u, \"executor_workers\": %u, "
      "\"rebalancer_threads\": %u, \"shards\": %u, \"scale\": %u, "
      "\"setup_reps\": %u, \"traced\": %s, \"build_type\": %s, "
      "\"resident_start\": %llu, \"resident_end\": %llu, "
      "\"setup_s_samples\": %s},\n"
      " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
      " \"metrics\": %s}\n",
      json_string(w.name).c_str(), json_string(w.why).c_str(),
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(a.commit).c_str(),
      static_cast<unsigned long long>(a.run.seed),
      json_number(a.run.warmup).c_str(), json_number(a.run.seconds).c_str(),
      json_number(plain.window_s).c_str(), w.clients, plain.workers,
      w.rebalancer ? 1u : 0u, w.shards, a.run.scale,
      static_cast<unsigned>(plain.setup_s.size()),
      a.trace ? "true" : "false", json_string(BENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(plain.resident_start),
      static_cast<unsigned long long>(plain.resident_end),
      json_list(plain.setup_s).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(all).c_str());
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 2;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(a.trace ? layer : gated).c_str());
  return correct ? 0 : 1;
}
