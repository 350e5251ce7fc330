#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "bench_util/workloads.hpp"
#include "util/rng.hpp"

namespace bench {
namespace {

using pathcopy::util::Xoshiro256;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return pathcopy::util::mix64(seed ^ pathcopy::util::mix64(stream));
}

/// A fixed bijection on [0, n): rank r of a scrambled Zipf draw lands on
/// slot scramble(r), so the hot ranks scatter over the client's keys.
std::uint64_t scramble(std::uint64_t rank, std::uint64_t n) {
  if (n < 2) return rank;
  const unsigned bits = static_cast<unsigned>(std::bit_width(n - 1));
  const std::uint64_t mask = bits == 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << bits) - 1;
  std::uint64_t x = rank;
  do {  // cycle-walk a bijection on [0, 2^bits) until it lands below n
    x = (x * 0x9e3779b97f4a7c15ULL) & mask;
    x ^= x >> (bits / 2 + 1);
  } while (x >= n);
  return x;
}

}  // namespace

const char* op_class_name(OpClass c) noexcept {
  static constexpr const char* kNames[kOpClasses] = {"update", "get", "mget",
                                                     "scan", "batch"};
  return kNames[static_cast<std::size_t>(c)];
}

std::vector<WorkloadSpec> workload_specs(unsigned scale) {
  const std::int64_t s = scale;
  const std::uint64_t us = scale;
  const std::uint64_t big = (std::uint64_t{1} << 21) / us;
  // The mixes come from the paper's §4.2 experiment and from YCSB's core
  // workloads A, B and E (Cooper et al., "Benchmarking Cloud Serving
  // Systems with YCSB", SoCC 2010), whose request distribution is Zipf
  // with constant 0.99, scrambled over the key space.
  // clang-format off
  return {
      {"random_update",
       "paper sec. 4.2 random updates (50/50 insert/erase, uniform, 10^6-draw pre-fill) on one Atom: root CAS retries, path copying, alloc, reclaim",
       Backend::kAtom, 1, 4, false, false, false, 0, 0, 0, KeyDist::kUniform,
       -1'000'000 / s, 2'000'000 / us + 1, true},
      {"batch_async",
       "paper sec. 4.2 update mix as 64-op execute_batch calls from 3 clients into one ShardExecutor lane, which coalesces tickets; 64k keys fit in cache",
       Backend::kCombining, 1, 3, true, false, true, 0, 0, 0, KeyDist::kUniform,
       0, (std::uint64_t{1} << 17) / us, false},
      {"read_mostly_zipf",
       "YCSB workload B (Cooper et al., SoCC 2010): 95% find / 5% update, scrambled Zipf(0.99), 1M of 2M keys resident",
       Backend::kCombining, 4, 4, false, false, false, 95, 0, 0,
       KeyDist::kZipfScrambled, 0, big, false},
      {"read_mostly_mget",
       "YCSB workload B with each read a 16-key multi_get (sorted probe sweeps): 95% multi_get / 5% update, scrambled Zipf(0.99)",
       Backend::kCombining, 4, 4, false, false, false, 0, 95, 0,
       KeyDist::kZipfScrambled, 0, big, false},
      {"short_scans",
       "YCSB workload E: 95% scans of 1-100 records from a scrambled Zipf(0.99) key / 5% update, over consistent cuts of 4 shards",
       Backend::kCombining, 4, 4, false, false, false, 0, 0, 95,
       KeyDist::kZipfScrambled, 0, big, false},
      {"skew_rebalance",
       "YCSB workload A (50% find / 50% update, Zipf 0.99) unscrambled, so the hot head sits on shard 0; Rebalancer::tick every 2 ms moves it",
       Backend::kCombining, 4, 3, false, true, false, 50, 0, 0,
       KeyDist::kZipfContiguous, 0, big, false},
  };
  // clang-format on
}

std::uint64_t Oracle::count() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t w : bits_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  in.keys = KeySpace{w.lo, w.n_keys, w.clients};
  const KeySpace& ks = in.keys;

  std::vector<std::int64_t> resident;
  if (w.paper_prefill) {
    pathcopy::bench::RandomWorkloadConfig pc;
    pc.initial_inserts = static_cast<std::size_t>(w.n_keys / 2);
    pc.lo = w.lo;
    pc.hi = w.lo + static_cast<std::int64_t>(w.n_keys) - 1;
    resident = pathcopy::bench::dedup_sorted(
        pathcopy::bench::make_random_initial(pc, sub_seed(seed, 1)));
  } else {
    Xoshiro256 rng(sub_seed(seed, 1));
    resident.reserve(w.n_keys / 2 + w.n_keys / 64);
    for (std::uint64_t i = 0; i < w.n_keys; ++i) {
      if (rng() & 1) resident.push_back(w.lo + static_cast<std::int64_t>(i));
    }
  }
  in.prefill.reserve(resident.size());
  for (const std::int64_t k : resident) in.prefill.emplace_back(k, value_of(k));

  std::uint64_t min_slots = ks.slots(0);
  for (unsigned c = 0; c < w.clients; ++c) {
    min_slots = std::min(min_slots, ks.slots(c));
    in.clients.push_back(ClientInputs{{}, {}, {}, Oracle(ks.slots(c))});
  }
  for (const std::int64_t k : resident) {
    in.clients[ks.owner(k)].oracle.set(ks.slot(k), true);
  }

  std::optional<pathcopy::bench::ZipfGen> zipf;
  if (w.dist != KeyDist::kUniform) zipf.emplace(min_slots, 0.99);
  for (unsigned c = 0; c < w.clients; ++c) {
    ClientInputs& ci = in.clients[c];
    Xoshiro256 rng(sub_seed(seed, 16 + c));
    const std::uint64_t n = ks.slots(c);
    ci.slots.resize(kSlotRing);
    for (std::uint32_t& s : ci.slots) {
      std::uint64_t v = 0;
      switch (w.dist) {
        case KeyDist::kUniform: v = rng.below(n); break;
        case KeyDist::kZipfScrambled: v = scramble((*zipf)(rng), min_slots); break;
        case KeyDist::kZipfContiguous: v = (*zipf)(rng); break;
      }
      s = static_cast<std::uint32_t>(v);
    }
    ci.ops.resize(kOpRing);
    ci.scan_lens.resize(kOpRing, 0);
    for (std::size_t i = 0; i < kOpRing; ++i) {
      const std::uint64_t d = rng.below(100);
      Op& op = ci.ops[i];
      if (d < w.pct_find) {
        op = Op::kFind;
      } else if (d < w.pct_find + w.pct_mget) {
        op = Op::kMultiGet;
      } else if (d < w.pct_find + w.pct_mget + w.pct_scan) {
        op = Op::kScan;
        ci.scan_lens[i] = static_cast<std::uint8_t>(1 + rng.below(kMaxScanLen));
      } else {
        op = rng.chance(1, 2) ? Op::kInsert : Op::kErase;
      }
    }
  }
  return in;
}

}  // namespace bench
