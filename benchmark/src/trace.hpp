// Span tracing for the traced run.
//
// A span is one call across a layer boundary: a client's Session call
// (store), a call into the universal construction (core), an allocator
// call (alloc) or a reclaimer call (reclaim). Spans nest on the thread
// that opens them; a span's self time is its duration minus the spans
// nested directly inside it on the same thread. Each thread keeps its
// totals in a thread_local accumulator and hands them, with the first
// kSampleCap spans it recorded, to a process-wide collector when it
// exits. Spans are accumulated only while tracing is switched on, so
// set-up and the final check stay out of the numbers.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t { kStore, kCore, kAlloc, kReclaim };
inline constexpr std::size_t kLayers = 4;

enum class SpanName : std::uint8_t {
  kStoreInsert,
  kStoreErase,
  kStoreFind,
  kStoreMultiGet,
  kStoreScan,
  kStoreExecuteBatch,
  kCoreInsert,
  kCoreErase,
  kCoreRead,
  kCoreMultiGet,
  kCorePinVersioned,
  kCoreExecuteBatch,
  kCoreExecuteSorted,
  kCoreIngestSorted,
  kAllocAllocate,
  kAllocDeallocate,
  kReclaimPin,
  kReclaimRetireBundle,
};
inline constexpr std::size_t kSpanNames = 18;

const char* span_label(SpanName n) noexcept;
Layer span_layer(SpanName n) noexcept;

/// Who a thread is: client threads' outermost spans are the store spans
/// that trace.coverage sums; every other thread that traces (executor
/// workers, the rebalancer's ticker) is kOther.
enum class Role : std::uint8_t { kOther, kClient };

struct SpanTotals {
  std::uint64_t spans = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct SampledSpan {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = 0;  // index in the same thread's sample; kNoParent
  SpanName name = SpanName::kStoreInsert;
};

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
inline constexpr std::size_t kSampleCap = 65536;

struct ThreadSample {
  std::uint32_t tid = 0;
  Role role = Role::kOther;
  std::vector<SampledSpan> spans;
};

/// Everything the threads of one traced run handed in.
struct TraceReport {
  std::array<SpanTotals, kSpanNames> by_name{};
  std::array<std::int64_t, 2> outer_ns{};  // outermost-span time, by Role
  std::vector<ThreadSample> samples;

  SpanTotals layer(Layer l) const;
  const SpanTotals& operator[](SpanName n) const {
    return by_name[static_cast<std::size_t>(n)];
  }
};

/// Starts or stops accumulation for every thread (the collector keeps
/// what earlier threads handed in until take_report()).
void set_tracing(bool on) noexcept;

/// Moves out everything collected so far. Call after every traced thread
/// has exited.
TraceReport take_report();

/// Writes `report`'s span samples as Chrome trace-event JSON.
bool write_chrome_trace(const TraceReport& report, const std::string& path);

class ThreadTrace {
 public:
  ThreadTrace();
  ~ThreadTrace();
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  void open(SpanName name, std::int64_t t) noexcept;
  void close(std::int64_t t) noexcept;
  void set_role(Role r) noexcept { sample_.role = r; }
  /// Request id stamped on the spans opened from now on.
  void set_request(std::uint64_t id) noexcept { request_ = id; }

 private:
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t sample;
    SpanName name;
  };
  static constexpr unsigned kMaxDepth = 16;

  std::array<Open, kMaxDepth> stack_{};
  unsigned depth_ = 0;
  std::array<SpanTotals, kSpanNames> totals_{};
  std::int64_t outer_ns_ = 0;
  std::uint64_t request_ = 0;
  ThreadSample sample_;
};

ThreadTrace& thread_trace() noexcept;

/// RAII span around a call into a traced layer.
class Span {
 public:
  explicit Span(SpanName name) noexcept { thread_trace().open(name, now_ns()); }
  ~Span() { thread_trace().close(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace bench
