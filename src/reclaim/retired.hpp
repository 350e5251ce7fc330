// Retired-node records shared by all reclamation schemes.
//
// A path-copying writer that wins its CAS hands the reclaimer the set of
// nodes its new version superseded (the copied path plus any removed
// node). Each record carries a type-erased destructor, a type-erased
// *batch* free function, and a context pointer (the allocator's stable
// retire backend) so the bytes return to the allocator that made them,
// possibly on a different thread much later.
//
// The split between dtor and free matters: when a whole bundle expires at
// once, free_all() runs every destructor, then returns the raw blocks in
// size-class groups — one backend trip per (backend, size class) instead
// of one mutex acquisition per node. A RetireSink lets the reclaiming
// thread absorb those groups straight into its own magazine allocator
// (ThreadCache), closing the allocate -> retire -> recycle loop without
// touching the shared backend at all in steady state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pathcopy::reclaim {

struct Retired {
  void* p = nullptr;
  void (*dtor)(void*) noexcept = nullptr;
  /// Returns n same-size blocks to the backend in one trip when it
  /// supports batching (PoolBackend::free_batch), per-block otherwise.
  void (*free_many)(void* ctx, void* const* ptrs, std::size_t n,
                    std::size_t bytes, std::size_t align) noexcept = nullptr;
  void* ctx = nullptr;
  std::uint32_t bytes = 0;
  std::uint32_t align = 0;

  /// Per-node path (kept for callers that hold a single record).
  void run() const noexcept {
    dtor(p);
    free_many(ctx, &p, 1, bytes, align);
  }
};

/// Destroy-only thunk instantiated per node type.
template <class Node>
void retired_dtor_thunk(void* p) noexcept {
  static_cast<Node*>(p)->~Node();
}

/// Batch free thunk instantiated per retire backend. Backends exposing
/// free_batch get one locked trip per group; others degrade to per-block
/// free_bytes (MallocAlloc's operator delete needs no batching anyway).
template <class Backend>
void retired_free_many_thunk(void* ctx, void* const* ptrs, std::size_t n,
                             std::size_t bytes, std::size_t align) noexcept {
  auto* backend = static_cast<Backend*>(ctx);
  if constexpr (requires { backend->free_batch(ptrs, n, bytes, align); }) {
    backend->free_batch(ptrs, n, bytes, align);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      backend->free_bytes(ptrs[i], bytes, align);
    }
  }
}

template <class Node, class Backend>
Retired make_retired(const Node* node, Backend* backend) noexcept {
  static_assert(sizeof(Node) <= ~std::uint32_t{0}, "node too large");
  return Retired{const_cast<Node*>(node), &retired_dtor_thunk<Node>,
                 &retired_free_many_thunk<Backend>, backend,
                 static_cast<std::uint32_t>(sizeof(Node)),
                 static_cast<std::uint32_t>(alignof(Node))};
}

/// Nodes handed to a reclaimer and nodes it has freed, defined once for
/// every scheme that frees.
class RetireCounters {
 public:
  std::uint64_t freed_nodes() const noexcept {
    return freed_.load(std::memory_order_relaxed);
  }

  /// Nodes retired but not yet freed. Never wraps, even when the caller
  /// is preempted between its two loads: every node's retire increment
  /// happens before its free increment (the freeing thread is the
  /// retirer, took the node from a list the retirer filled under a lock,
  /// or is draining after every retirer stopped). Every free increment
  /// is a release read-modify-write, so the acquire load of freed_
  /// synchronizes with each increment it counts, and the later load of
  /// retired_ sees at least those nodes' retire increments.
  std::uint64_t pending_nodes() const noexcept {
    const std::uint64_t freed = freed_.load(std::memory_order_acquire);
    return retired_.load(std::memory_order_relaxed) - freed;
  }

 protected:
  void count_retired(std::uint64_t n) noexcept {
    retired_.fetch_add(n, std::memory_order_relaxed);
  }
  /// On x86 the same `lock xadd` as a relaxed increment.
  void count_freed(std::uint64_t n) noexcept {
    freed_.fetch_add(n, std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> freed_{0};
};

/// Type-erased hook into the reclaiming thread's local magazine cache.
/// accept() takes a whole same-size group or refuses it (wrong backend,
/// oversize class); refused groups fall through to the backend. The
/// object behind `obj` must outlive the reclaimer handle it is
/// registered on (handles clear their sink on release).
struct RetireSink {
  void* obj = nullptr;
  bool (*accept)(void* obj, void* backend, void* const* ptrs, std::size_t n,
                 std::size_t bytes, std::size_t align) noexcept = nullptr;
};

/// Per-node free path (pre-batching behaviour; also the A/B baseline the
/// allocator ablation measures the batched path against).
inline void run_all(std::vector<Retired>& v) noexcept {
  for (const Retired& r : v) r.run();
  v.clear();
}

/// Process-wide switch between free_all's grouped path and the per-node
/// run_all path. Exists for A/B measurement (bench_ablation_alloc's
/// baseline arm) and regression tests; defaults to batched.
inline std::atomic<bool>& batched_free_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
inline void set_batched_free(bool on) noexcept {
  batched_free_flag().store(on, std::memory_order_relaxed);
}
inline bool batched_free_enabled() noexcept {
  return batched_free_flag().load(std::memory_order_relaxed);
}

/// Frees an expired set of records bundle-granularly: all destructors
/// first, then the raw blocks grouped by (backend, size class) — one
/// sink absorption or one backend trip per group. A bundle is typically
/// one copied path of one node type, so the common case is exactly one
/// group.
inline void free_all(std::vector<Retired>& v,
                     const RetireSink* sink = nullptr) {
  if (v.empty()) return;
  if (!batched_free_enabled()) {
    run_all(v);
    return;
  }
  for (const Retired& r : v) r.dtor(r.p);
  struct Group {
    void (*free_many)(void*, void* const*, std::size_t, std::size_t,
                      std::size_t) noexcept;
    void* ctx;
    std::uint32_t bytes;
    std::uint32_t align;
    std::vector<void*> ptrs;
  };
  std::vector<Group> groups;
  for (const Retired& r : v) {
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.free_many == r.free_many && cand.ctx == r.ctx &&
          cand.bytes == r.bytes && cand.align == r.align) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(Group{r.free_many, r.ctx, r.bytes, r.align, {}});
      g = &groups.back();
      g->ptrs.reserve(v.size());
    }
    g->ptrs.push_back(r.p);
  }
  for (Group& g : groups) {
    if (sink != nullptr && sink->obj != nullptr &&
        sink->accept(sink->obj, g.ctx, g.ptrs.data(), g.ptrs.size(), g.bytes,
                     g.align)) {
      continue;
    }
    g.free_many(g.ctx, g.ptrs.data(), g.ptrs.size(), g.bytes, g.align);
  }
  v.clear();
}

}  // namespace pathcopy::reclaim
