// Builder: the per-attempt recorder that makes path copying reclaimable.
//
// A modifying operation runs against an immutable version and produces a
// candidate new version. While doing so it:
//
//   * allocates every new node through builder.create<N>(...), which tags
//     the node kFresh and remembers how to destroy it, and
//   * declares every node it copies *out of the current version* via
//     builder.supersede(n).
//
// try_install (below) then resolves the attempt — the one root CAS both
// universal constructions share:
//
//   * CAS won  — commit(): superseded published nodes become a retire
//     bundle for the reclaimer (they are still visible to readers of older
//     versions); fresh-dead nodes are recycled instantly (they were never
//     published, no grace period applies).
//   * CAS lost — rollback(): every fresh node is recycled instantly, and
//     the superseded list is discarded.
//
// "Recycled" means the raw block goes into the builder's private bin, not
// back to the allocator: the very next create<N>() of the same size class
// takes it straight out again, still cache-hot. A contended retry loop
// therefore allocates its O(log n) path once and replays it from the bin
// on every failed CAS — O(retries × log n) allocations become O(log n).
// This is safe with zero grace period because a failed attempt's nodes
// were never installed: no other thread can hold a reference. The bin
// survives reset() (so it spans a retry loop) and drains back to the
// allocator only when the builder dies. set_recycling(false) restores the
// immediate-deallocate behaviour for A/B measurement.
//
// try_install calls seal() after the candidate is final and before the
// CAS: it downgrades surviving fresh nodes to kPublished while they are
// still thread-private, so no post-publication write to shared memory
// occurs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "core/stats.hpp"
#include "core/thread_context.hpp"
#include "reclaim/retired.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::core {

struct BuilderStats {
  std::uint64_t created = 0;
  std::uint64_t superseded_published = 0;
  std::uint64_t superseded_fresh = 0;
  std::uint64_t recycled = 0;  // nodes returned to the bin (or allocator)
  std::uint64_t reused = 0;    // create() calls served from the bin
};

template <class Alloc>
class Builder {
 public:
  using RetireBackend = typename Alloc::RetireBackend;

  explicit Builder(Alloc& alloc) noexcept : alloc_(&alloc) {}
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;

  /// Anything not committed is treated as a failed attempt.
  ~Builder() {
    if (!resolved_) rollback();
    for (const Bin& bin : bins_) {
      for (void* p : bin.blocks) {
        alloc_->deallocate(p, bin.bytes, bin.align);
      }
    }
  }

  /// When off, recycled blocks go straight back to the allocator instead
  /// of the bin (the pre-recycling behaviour, kept for A/B runs).
  void set_recycling(bool on) noexcept { recycle_ = on; }
  bool recycling() const noexcept { return recycle_; }

  /// Allocates and constructs a node for the candidate version. Prefers a
  /// same-class block recycled from a previous failed attempt.
  template <class N, class... Args>
  const N* create(Args&&... args) {
    static_assert(std::is_base_of_v<PNode, N>, "nodes must derive from core::PNode");
    static_assert(sizeof(N) <= ~std::uint32_t{0}, "node too large");
    void* raw = take(static_cast<std::uint32_t>(sizeof(N)),
                     static_cast<std::uint32_t>(alignof(N)));
    if (raw != nullptr) {
      ++stats_.reused;
    } else {
      raw = alloc_->allocate(sizeof(N), alignof(N));
    }
    N* node = ::new (raw) N(std::forward<Args>(args)...);
    node->pc_state_ = NodeState::kFresh;
    fresh_.push_back(FreshRec{node, &dtor_thunk<N>,
                              static_cast<std::uint32_t>(sizeof(N)),
                              static_cast<std::uint32_t>(alignof(N))});
    ++stats_.created;
    return node;
  }

  /// Declares that the candidate version no longer references n (the
  /// caller copied or dropped it). Published nodes join the retire set;
  /// fresh nodes are flagged dead and recycled when the attempt resolves.
  ///
  /// N must be the node's dynamic type: the retire record frees with
  /// sizeof(N), so superseding through a base pointer would report the
  /// wrong size class. Structures with several node kinds downcast
  /// before calling (BTree::supersede_node switches on kind; Hamt's
  /// sites are all concretely typed). PoolBackend's size-class check
  /// asserts the claimed class at free time.
  template <class N>
  void supersede(const N* n) noexcept {
    static_assert(std::is_base_of_v<PNode, N>, "nodes must derive from core::PNode");
    if (n->pc_state_ == NodeState::kPublished) {
      superseded_.push_back(reclaim::make_retired(n, alloc_->retire_backend()));
      ++stats_.superseded_published;
    } else {
      n->pc_state_ = NodeState::kFreshDead;
      ++stats_.superseded_fresh;
    }
  }

  /// Finalizes surviving fresh nodes to kPublished. Call exactly once,
  /// after the candidate is complete and before attempting the CAS.
  void seal() noexcept {
    PC_DASSERT(!sealed_, "seal called twice");
    for (const FreshRec& rec : fresh_) {
      PNode* node = static_cast<PNode*>(rec.p);
      if (node->pc_state_ == NodeState::kFresh) {
        node->pc_state_ = NodeState::kPublished;
      }
    }
    sealed_ = true;
  }

  /// CAS won: recycle fresh-dead nodes, hand back the retire set.
  std::vector<reclaim::Retired> commit() noexcept {
    PC_DASSERT(sealed_, "commit without seal");
    for (const FreshRec& rec : fresh_) {
      PNode* node = static_cast<PNode*>(rec.p);
      if (node->pc_state_ == NodeState::kFreshDead) {
        recycle(rec);
      }
    }
    fresh_.clear();
    resolved_ = true;
    return std::move(superseded_);
  }

  /// CAS lost (or the operation was abandoned): recycle everything this
  /// attempt allocated; forget the superseded set. Safe without a grace
  /// period — a losing attempt's nodes were never reachable from the
  /// shared root, so no reader can hold them.
  void rollback() noexcept {
    for (const FreshRec& rec : fresh_) {
      recycle(rec);
    }
    fresh_.clear();
    superseded_.clear();
    resolved_ = true;
  }

  /// Re-arms the builder for the next attempt of a retry loop. The bin is
  /// deliberately kept: its blocks feed the retry's create() calls.
  void reset() noexcept {
    if (!resolved_) rollback();
    resolved_ = false;
    sealed_ = false;
  }

  const BuilderStats& stats() const noexcept { return stats_; }
  std::size_t fresh_count() const noexcept { return fresh_.size(); }
  /// Blocks currently parked in the recycle bin.
  std::size_t bin_count() const noexcept {
    std::size_t n = 0;
    for (const Bin& bin : bins_) n += bin.blocks.size();
    return n;
  }

  // Monotonic counters (they survive reset()), so a caller that spans
  // several attempts — e.g. the combining UC measuring what one batched
  // install copied versus what per-op application would have — can take
  // before/after deltas instead of threading its own tallies through the
  // structure code.
  std::uint64_t created_count() const noexcept { return stats_.created; }
  std::uint64_t reused_count() const noexcept { return stats_.reused; }

 private:
  struct FreshRec {
    void* p;
    void (*dtor)(void*) noexcept;
    std::uint32_t bytes;
    std::uint32_t align;
  };

  /// One size class's parked blocks. A structure typically allocates one
  /// or two node types, so linear search over bins_ beats any map.
  struct Bin {
    std::uint32_t bytes;
    std::uint32_t align;
    std::vector<void*> blocks;
  };

  template <class N>
  static void dtor_thunk(void* p) noexcept {
    static_cast<N*>(p)->~N();
  }

  void* take(std::uint32_t bytes, std::uint32_t align) noexcept {
    for (Bin& bin : bins_) {
      if (bin.bytes == bytes && bin.align == align && !bin.blocks.empty()) {
        void* p = bin.blocks.back();
        bin.blocks.pop_back();
        return p;
      }
    }
    return nullptr;
  }

  void recycle(const FreshRec& rec) noexcept {
    rec.dtor(rec.p);
    ++stats_.recycled;
    if (!recycle_) {
      alloc_->deallocate(rec.p, rec.bytes, rec.align);
      return;
    }
    for (Bin& bin : bins_) {
      if (bin.bytes == rec.bytes && bin.align == rec.align) {
        bin.blocks.push_back(rec.p);
        return;
      }
    }
    bins_.push_back(Bin{rec.bytes, rec.align, {rec.p}});
  }

  Alloc* alloc_;
  std::vector<FreshRec> fresh_;
  std::vector<reclaim::Retired> superseded_;
  std::vector<Bin> bins_;
  BuilderStats stats_;
  bool sealed_ = false;
  bool resolved_ = false;
  bool recycle_ = true;
};

/// Folds a builder's monotonic recycling tallies into the thread's
/// OpStats when the owning scope exits — one declaration covers every
/// return path of a function-local builder. Declare it AFTER the builder
/// so it runs while the builder is still alive.
template <class Alloc>
class RecycleScope {
 public:
  RecycleScope(OpStats& stats, const Builder<Alloc>& builder) noexcept
      : stats_(&stats), builder_(&builder), base_(builder.reused_count()) {}
  RecycleScope(const RecycleScope&) = delete;
  RecycleScope& operator=(const RecycleScope&) = delete;
  ~RecycleScope() {
    stats_->recycled_nodes += builder_->reused_count() - base_;
  }

 private:
  OpStats* stats_;
  const Builder<Alloc>* builder_;
  std::uint64_t base_;
};

/// Resolves one attempt of a universal construction's retry loop: seals
/// the candidate and tries to swing `root` from `cur` to `next`. On a win
/// it bumps `version`, hands the superseded nodes to the reclaimer as a
/// bundle dying at the new version, counts the update and returns true.
/// On a loss it counts the thrown-away nodes and the CAS failure, rolls
/// the builder back (its blocks stay binned for the retry) and returns
/// false; the caller re-pins and rebuilds.
template <class Smr, class Alloc>
bool try_install(ThreadContext<Smr, Alloc>& ctx, Smr& smr,
                 Builder<Alloc>& builder, std::atomic<const void*>& root,
                 std::atomic<std::uint64_t>& version, const void* cur,
                 const void* next) {
  builder.seal();
  PC_YIELD("atom.install");
  const void* expected = cur;
  if (!root.compare_exchange_strong(expected, next, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    ctx.stats.failed_attempt_nodes += builder.fresh_count();
    ++ctx.stats.cas_failures;
    builder.rollback();
    return false;
  }
  // The version is bumped after the root swings, so the counter always
  // trails the root — the invariant the watermark reclaimer's
  // pin-then-load protocol relies on. The window between the CAS and the
  // bump is a model-check decision point: the pre-fix cut ABA lived
  // exactly here.
  PC_YIELD("atom.bump");
  const std::uint64_t death =
      version.fetch_add(1, std::memory_order_seq_cst) + 1;
  smr.retire_bundle(ctx.smr_handle, death, cur, next, builder.commit());
  ++ctx.stats.updates;
  return true;
}

}  // namespace pathcopy::core
