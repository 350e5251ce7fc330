// Canary nodes for the reclaimer tests: a canary's destructor counts, so
// a premature free is observable, and its payload is checked by readers
// that dereference it under a guard.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "reclaim/retired.hpp"

namespace pathcopy::test {

inline constexpr std::uint64_t kCanaryPayload = 0xfeedfacecafebeefULL;

struct Canary {
  explicit Canary(std::atomic<int>* counter) : destroyed(counter) {}
  ~Canary() {
    if (destroyed != nullptr) destroyed->fetch_add(1);
  }
  std::atomic<int>* destroyed;
  std::uint64_t payload = kCanaryPayload;
};

inline const Canary* make_canary(alloc::MallocAlloc& a,
                                 std::atomic<int>* counter) {
  void* p = a.allocate(sizeof(Canary), alignof(Canary));
  return ::new (p) Canary(counter);
}

/// A retire bundle holding just `c`.
inline std::vector<reclaim::Retired> one_retired(alloc::MallocAlloc& a,
                                                 const void* c) {
  std::vector<reclaim::Retired> v;
  v.push_back(reclaim::make_retired(static_cast<const Canary*>(c),
                                    a.retire_backend()));
  return v;
}

/// A retire bundle of `nodes` records: `c` plus uncounted canaries. A
/// bundle of EpochReclaimer::kScanInterval - 1 nodes makes every retire
/// scan, since a bundle counts one unit plus one per node.
inline std::vector<reclaim::Retired> padded_retired(alloc::MallocAlloc& a,
                                                    const void* c,
                                                    std::size_t nodes) {
  std::vector<reclaim::Retired> v = one_retired(a, c);
  while (v.size() < nodes) {
    v.push_back(reclaim::make_retired(make_canary(a, nullptr),
                                      a.retire_backend()));
  }
  return v;
}

}  // namespace pathcopy::test
