// Globally shared, mutex-protected size-class pool.
//
// This is the *intentionally contended* allocator: every allocate and free
// takes the pool's one lock. It exists as the lower bound in the
// allocator ablation (experiment E6) — the paper conjectures that a shared
// allocator is what caps scaling at high process counts (Appendix B), and
// this policy lets us reproduce that collapse on demand. ThreadCache
// (thread_cache_alloc.hpp) layers per-thread magazines on top of the same
// backend to remove the contention.
//
// What a locked trip does. Memory comes in kSlabBytes slabs, each of which
// carves blocks of one size class; every class bumps through its own open
// slab, so carving computes an address and writes nothing. Free blocks wait
// in one flat pointer stack per class (LIFO). A locked trip — allocate,
// deallocate, a magazine's pop_batch / push_batch of ThreadCache::kBatch
// (64) blocks, or a reclaimer's free_batch — thus only copies pointers in
// or out, plus one O(1) slab lookup per freed pointer for the size-class
// check; it never reads or writes a block. Why: a free list threaded
// through the blocks costs about one cache miss per block, paid while
// every other thread waits on the lock (the depot of Bonwick & Adams'
// magazine allocator, USENIX ATC 2001, holds its lock only to move
// pointers, for the same reason). The price of never touching a free block
// under the lock is the stack: 8 bytes per free block held here.
//
// The size-class check runs in every build this repo configures: none of
// them defines NDEBUG. Every freed pointer must be a block carved from this
// pool and freed with the class it was carved for, so a retire path that
// reports a different size than it allocated trips here instead of
// silently corrupting a free list. The check finds the slab holding the
// pointer through a page map (the at most two slabs overlapping each
// kSlabBytes-aligned page of the address space), then asks whether the
// pointer lies in the slab's carved extent, on a block boundary, with the
// slab's class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc/stats.hpp"
#include "util/align.hpp"

namespace pathcopy::alloc {

class PoolBackend {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxPooled = 512;  // larger blocks go to operator new
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;
  static constexpr std::size_t kSlabBytes = 1 << 18;  // 256 KiB

  PoolBackend() = default;
  PoolBackend(const PoolBackend&) = delete;
  PoolBackend& operator=(const PoolBackend&) = delete;
  ~PoolBackend();

  void* allocate(std::size_t bytes, std::size_t align);
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept;

  /// Thread-safe free path for reclaimers.
  void free_bytes(void* p, std::size_t bytes, std::size_t align) noexcept {
    deallocate(p, bytes, align);
  }

  /// Pops up to n blocks of the given size class into out; carves fresh
  /// slab space if the free stack runs dry. Returns the number provided.
  std::size_t pop_batch(std::size_t size_class, void** out, std::size_t n);

  /// Returns n blocks of the given size class to the shared free stack.
  void push_batch(std::size_t size_class, void* const* items, std::size_t n) noexcept;

  /// Batch twin of free_bytes: returns n same-size blocks in ONE locked
  /// trip (or n operator-delete calls for oversize blocks). This is the
  /// reclaimers' bundle-granular exit path.
  void free_batch(void* const* items, std::size_t n, std::size_t bytes,
                  std::size_t align) noexcept;

  static std::size_t class_of(std::size_t bytes) noexcept {
    const std::size_t sz = util::round_up(bytes < kGranule ? kGranule : bytes, kGranule);
    return sz / kGranule - 1;
  }
  static std::size_t class_bytes(std::size_t size_class) noexcept {
    return (size_class + 1) * kGranule;
  }

  const AllocStats& stats() const noexcept { return stats_; }
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  // kSlabBytes of uninitialized memory carving blocks of one class;
  // [mem, bump) is the carved extent.
  struct Slab {
    std::unique_ptr<char[]> mem;
    char* bump;
    std::size_t size_class;
  };
  struct SizeClass {
    // Free blocks, LIFO. Its capacity covers every block this class's
    // slabs can carve, so pushing never allocates (and the noexcept free
    // paths cannot fail); only the part holding free blocks gets written.
    std::vector<void*> free;
    Slab* open = nullptr;  // the slab being carved
    std::size_t slabs = 0;
  };
  // The slabs overlapping one kSlabBytes-aligned page of the address
  // space. Slabs are kSlabBytes long and disjoint, so at most two do:
  // `first` holds the page's first byte, `second` starts inside the page.
  struct PageSlot {
    std::uintptr_t page = 0;
    const Slab* first = nullptr;
    const Slab* second = nullptr;
    bool used() const noexcept { return first != nullptr || second != nullptr; }
  };

  // Pre for all: mu_ held.
  void* carve_locked(std::size_t size_class);
  void open_slab_locked(std::size_t size_class);
  // The slot holding `page`, or the unused slot where it belongs.
  std::size_t probe_locked(std::uintptr_t page) const noexcept;
  PageSlot& page_slot_locked(std::uintptr_t page) noexcept;
  // Makes room for the two slots a new slab can claim.
  void grow_pages_locked();
  // Asserts p was carved for size_class (a carved block's class is
  // permanent, so free stacks never mix classes).
  void check_class_locked(const void* p, std::size_t size_class) const noexcept;

  std::mutex mu_;
  SizeClass classes_[kClasses];
  std::deque<Slab> slabs_;  // a deque, so the Slab* above stay valid
  // Open addressing on the page number, linear probing, at most half full.
  std::vector<PageSlot> pages_ = std::vector<PageSlot>(16);
  std::size_t pages_used_ = 0;
  AllocStats stats_;
  std::atomic<std::uint64_t> lock_acquisitions_{0};
};

/// Allocator view over the shared pool: every call locks the backend.
class PoolView {
 public:
  using RetireBackend = PoolBackend;

  explicit PoolView(PoolBackend& backend) noexcept : backend_(&backend) {}

  void* allocate(std::size_t bytes, std::size_t align) {
    return backend_->allocate(bytes, align);
  }
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    backend_->deallocate(p, bytes, align);
  }
  RetireBackend* retire_backend() noexcept { return backend_; }

 private:
  PoolBackend* backend_;
};

}  // namespace pathcopy::alloc
