// Workloads, their generated inputs, the outcome oracle, and what one
// measured run reports.
//
// Every workload is a closed loop: each client thread issues its next
// Session call only after the previous one returned. Client c owns the
// keys whose offset from the key space's low end is c modulo the client
// count, and no other thread writes them, so the client's own bitset of
// owned keys predicts every outcome exactly: insert/erase results, find
// presence, each multi_get slot, each batch op replayed in issue order,
// and which owned keys a scan must return. Inputs (the pre-fill and each
// client's op and key streams) are generated from the seed during
// set-up; the measured loop only reads them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "histogram.hpp"
#include "store/rebalancer.hpp"
#include "trace.hpp"

namespace bench {

inline constexpr unsigned kBatchOps = 64;
inline constexpr unsigned kMgetKeys = 16;
// YCSB workload E: a scan returns up to a length drawn uniformly from
// [1, 100] records, starting at the drawn key.
inline constexpr unsigned kMaxScanLen = 100;
inline constexpr std::size_t kSlotRing = std::size_t{1} << 18;
inline constexpr std::size_t kOpRing = 65537;  // prime: op and key rings never align

/// What one client call is, for latency accounting.
enum class OpClass : std::uint8_t { kUpdate, kGet, kMget, kScan, kBatch };
inline constexpr std::size_t kOpClasses = 5;
const char* op_class_name(OpClass c) noexcept;

enum class Op : std::uint8_t { kInsert, kErase, kFind, kMultiGet, kScan };

enum class KeyDist : std::uint8_t {
  kUniform,
  kZipfScrambled,   // Zipf(0.99) ranks, scattered over the client's keys
  kZipfContiguous,  // Zipf(0.99) ranks, hottest first: the head is contiguous
};

enum class Backend : std::uint8_t { kAtom, kCombining };

struct WorkloadSpec {
  const char* name;
  const char* why;
  Backend backend;
  unsigned shards;
  unsigned clients;
  bool executor;
  bool rebalancer;  // Rebalancer::tick every 2 ms from one ticker thread
  bool batched;     // every call is execute_batch of kBatchOps updates
  // Call mix in percent; the remainder is insert/erase, half each.
  unsigned pct_find;
  unsigned pct_mget;
  unsigned pct_scan;
  KeyDist dist;
  std::int64_t lo;       // key universe [lo, lo + n_keys)
  std::uint64_t n_keys;
  // Pre-fill: the paper's n_keys / 2 uniform draws (duplicates collapse)
  // when set, else each key resident with probability 1/2.
  bool paper_prefill;
};

/// The four workloads; scale > 1 divides every key count (--smoke).
std::vector<WorkloadSpec> workload_specs(unsigned scale);

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  double warmup = 2.0;
  unsigned scale = 1;
};

/// Key layout: client c owns key lo + c + clients * slot.
struct KeySpace {
  std::int64_t lo = 0;
  std::uint64_t n_keys = 0;
  unsigned clients = 1;

  unsigned owner(std::int64_t k) const noexcept {
    return static_cast<unsigned>(static_cast<std::uint64_t>(k - lo) % clients);
  }
  std::uint64_t slot(std::int64_t k) const noexcept {
    return static_cast<std::uint64_t>(k - lo) / clients;
  }
  std::int64_t key(unsigned c, std::uint64_t slot) const noexcept {
    return lo + static_cast<std::int64_t>(c + clients * slot);
  }
  std::uint64_t slots(unsigned c) const noexcept {
    return c >= n_keys ? 0 : (n_keys - c + clients - 1) / clients;
  }
};

inline std::int64_t value_of(std::int64_t key) noexcept { return 3 * key + 1; }

/// One client's owned-key bitset.
class Oracle {
 public:
  explicit Oracle(std::uint64_t slots) : bits_((slots + 63) / 64, 0) {}
  bool has(std::uint64_t s) const noexcept {
    return (bits_[s >> 6] >> (s & 63)) & 1u;
  }
  void set(std::uint64_t s, bool on) noexcept {
    const std::uint64_t m = std::uint64_t{1} << (s & 63);
    bits_[s >> 6] = on ? bits_[s >> 6] | m : bits_[s >> 6] & ~m;
  }
  std::uint64_t count() const noexcept;

 private:
  std::vector<std::uint64_t> bits_;
};

struct ClientInputs {
  std::vector<std::uint32_t> slots;     // kSlotRing key draws (slots)
  std::vector<Op> ops;                  // kOpRing op draws
  std::vector<std::uint8_t> scan_lens;  // scan length of each kScan op draw
  Oracle oracle;
};

struct Inputs {
  KeySpace keys;
  std::vector<std::pair<std::int64_t, std::int64_t>> prefill;  // sorted
  std::vector<ClientInputs> clients;
};

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed);

/// Everything one run (plain or traced) measured. Counts named *_total
/// and the per-layer inputs cover the whole client run (warm-up plus
/// window); key_ops_window and hist cover the measured window only.
struct RunResult {
  std::vector<double> setup_s;  // one sample per set-up repetition
  double window_s = 0.0;
  double interval_s = 0.0;  // warm-up + window
  unsigned clients = 0;
  unsigned workers = 0;  // executor threads
  std::uint64_t key_ops_window = 0;
  std::uint64_t key_ops_total = 0;
  std::uint64_t update_ops_total = 0;
  std::uint64_t scans_total = 0;
  std::uint64_t wrong = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t final_mismatches = 0;
  std::uint64_t resident_start = 0;
  std::uint64_t resident_end = 0;
  std::array<LatencyHistogram, kOpClasses> hist;
  double peak_rss_mib = 0.0;
  pathcopy::core::OpStats ops;  // sessions + executor workers + rebalancer
  pathcopy::store::RebalanceStats rebalance;
  std::uint64_t backend_trips = 0;  // PoolBackend lock trips over the interval
  std::uint64_t freed_nodes = 0;    // reclaimer frees over the interval
  std::uint64_t pending_nodes_peak = 0;
  double max_shard_share = 0.0;
  TraceReport trace;  // traced runs only
};

/// Runs `w` on the store types users run.
RunResult run_plain(const WorkloadSpec& w, const RunConfig& cfg);

/// Runs `w` on the traced store types (timed.hpp), with span tracing on
/// from the start of the warm-up to the end of the window.
RunResult run_traced(const WorkloadSpec& w, const RunConfig& cfg);

}  // namespace bench
