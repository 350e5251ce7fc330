#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <mutex>
#include <utility>

namespace bench {
namespace {

struct NameInfo {
  const char* label;
  Layer layer;
};

constexpr std::array<NameInfo, kSpanNames> kNames = {{
    {"store.insert", Layer::kStore},
    {"store.erase", Layer::kStore},
    {"store.find", Layer::kStore},
    {"store.multi_get", Layer::kStore},
    {"store.scan", Layer::kStore},
    {"store.execute_batch", Layer::kStore},
    {"core.insert", Layer::kCore},
    {"core.erase", Layer::kCore},
    {"core.read", Layer::kCore},
    {"core.multi_get", Layer::kCore},
    {"core.pin_versioned", Layer::kCore},
    {"core.execute_batch", Layer::kCore},
    {"core.execute_sorted", Layer::kCore},
    {"core.ingest_sorted", Layer::kCore},
    {"alloc.allocate", Layer::kAlloc},
    {"alloc.deallocate", Layer::kAlloc},
    {"reclaim.pin", Layer::kReclaim},
    {"reclaim.retire_bundle", Layer::kReclaim},
}};

constexpr std::array<const char*, kLayers> kLayerLabels = {"store", "core",
                                                           "alloc", "reclaim"};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_next_tid{1};

struct Collector {
  std::mutex mu;
  TraceReport report;  // guarded by mu
};

Collector& collector() {
  static Collector c;
  return c;
}

}  // namespace

const char* span_label(SpanName n) noexcept {
  return kNames[static_cast<std::size_t>(n)].label;
}

Layer span_layer(SpanName n) noexcept {
  return kNames[static_cast<std::size_t>(n)].layer;
}

SpanTotals TraceReport::layer(Layer l) const {
  SpanTotals t;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    if (kNames[i].layer != l) continue;
    t.spans += by_name[i].spans;
    t.total_ns += by_name[i].total_ns;
    t.self_ns += by_name[i].self_ns;
  }
  return t;
}

void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

TraceReport take_report() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  return std::exchange(c.report, TraceReport{});
}

ThreadTrace::ThreadTrace() {
  sample_.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
}

ThreadTrace::~ThreadTrace() {
  bool any = !sample_.spans.empty() || outer_ns_ != 0;
  for (const SpanTotals& t : totals_) any = any || t.spans != 0;
  if (!any) return;
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    c.report.by_name[i].spans += totals_[i].spans;
    c.report.by_name[i].total_ns += totals_[i].total_ns;
    c.report.by_name[i].self_ns += totals_[i].self_ns;
  }
  c.report.outer_ns[static_cast<std::size_t>(sample_.role)] += outer_ns_;
  if (!sample_.spans.empty()) c.report.samples.push_back(std::move(sample_));
}

void ThreadTrace::open(SpanName name, std::int64_t t) noexcept {
  if (depth_ < kMaxDepth) {
    std::uint32_t idx = kNoParent;
    if (g_tracing.load(std::memory_order_relaxed) &&
        sample_.spans.size() < kSampleCap) {
      if (sample_.spans.capacity() == 0) sample_.spans.reserve(kSampleCap);
      idx = static_cast<std::uint32_t>(sample_.spans.size());
      const std::uint32_t parent =
          depth_ > 0 ? stack_[depth_ - 1].sample : kNoParent;
      sample_.spans.push_back(SampledSpan{t, 0, request_, parent, name});
    }
    stack_[depth_] = Open{t, 0, idx, name};
  }
  ++depth_;
}

void ThreadTrace::close(std::int64_t t) noexcept {
  if (depth_ == 0) return;
  --depth_;
  if (depth_ >= kMaxDepth) return;
  const Open& o = stack_[depth_];
  const std::int64_t dur = t - o.start;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.sample != kNoParent) sample_.spans[o.sample].dur_ns = dur;
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  SpanTotals& tot = totals_[static_cast<std::size_t>(o.name)];
  ++tot.spans;
  tot.total_ns += dur;
  tot.self_ns += dur - o.child_ns;
  if (depth_ == 0) outer_ns_ += dur;
}

ThreadTrace& thread_trace() noexcept {
  thread_local ThreadTrace t;
  return t;
}

bool write_chrome_trace(const TraceReport& report, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const ThreadSample& ts : report.samples) {
    for (const SampledSpan& s : ts.spans) t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const ThreadSample& ts : report.samples) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s-%u\"}}",
                 first ? "" : ",\n", ts.tid,
                 ts.role == Role::kClient ? "client" : "worker", ts.tid);
    first = false;
    for (std::size_t i = 0; i < ts.spans.size(); ++i) {
      const SampledSpan& s = ts.spans[i];
      std::fprintf(
          f,
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"req\":%llu,"
          "\"id\":%zu,\"parent\":%lld}}",
          span_label(s.name),
          kLayerLabels[static_cast<std::size_t>(span_layer(s.name))],
          static_cast<double>(s.start_ns - t0) / 1000.0,
          static_cast<double>(s.dur_ns) / 1000.0, ts.tid,
          static_cast<unsigned long long>(s.request), i,
          s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
