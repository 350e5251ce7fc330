// The null reclaimer: retired nodes are never freed.
//
// Two legitimate uses: (a) as the baseline in the reclamation ablation
// (E7) to measure what EBR / hazard / watermark actually cost, and (b)
// paired with alloc::Arena for bounded runs where all versions stay live
// until the arena is reset — the closest C++ analogue of the paper's GC'd
// Java setting. Destructors of retired nodes are NOT run; use with
// trivially destructible payloads or arena-owned memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "reclaim/retired.hpp"

namespace pathcopy::reclaim {

class LeakyReclaimer {
 public:
  struct ThreadHandle {};

  class Guard {
   public:
    explicit Guard(const void* root) noexcept : root_(root) {}
    const void* root() const noexcept { return root_; }

   private:
    const void* root_;
  };

  ThreadHandle register_thread() noexcept { return ThreadHandle{}; }

  Guard pin(ThreadHandle&, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>&) noexcept {
    return Guard{root.load(std::memory_order_acquire)};
  }

  void retire_bundle(ThreadHandle&, std::uint64_t, const void*, const void*,
                     std::vector<Retired>&& nodes) noexcept {
    leaked_.fetch_add(nodes.size(), std::memory_order_relaxed);
    nodes.clear();
  }

  void drain_all() noexcept {}

  std::uint64_t leaked_nodes() const noexcept {
    return leaked_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_nodes() const noexcept { return 0; }
  std::uint64_t pending_nodes() const noexcept { return 0; }

 private:
  std::atomic<std::uint64_t> leaked_{0};
};

}  // namespace pathcopy::reclaim
