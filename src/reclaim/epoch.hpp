// Epoch-based reclamation (EBR), the default SMR policy.
//
// Classic three-epoch scheme. Readers and writers bracket every operation
// with a Guard that announces the global epoch; a node retired in epoch e
// is freed once the global epoch has advanced to e+2, which implies every
// thread has passed through a quiescent point since the node was
// unlinked. Combined with path copying this gives the usual guarantee:
// a guard taken before a version was replaced keeps that entire version
// (and everything it shares with older versions) alive.
//
// Epoch announcements sit in a util::SlotRegistry, one cache line each;
// the retire path is purely thread-local except for an amortized scan of
// the registry once per kScanInterval units of retire volume (1 per
// retire_bundle call plus 1 per retired node; the version-keyed schemes
// keep their own constant in version_reclaimer.hpp). Pacing by nodes
// rather than by calls keeps limbo (retired, not yet freed) at a few
// kScanIntervals of nodes whatever the bundle size, so freed blocks are
// reused while still cache-hot (see src/store/README.md, "How long a
// bundle waits").
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "reclaim/retired.hpp"
#include "util/slot_registry.hpp"

namespace pathcopy::reclaim {

class EpochReclaimer : public RetireCounters {
 public:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  // Retire volume between registry scans: 1 unit per retire_bundle call
  // plus 1 per retired node, so an empty bundle still counts and idle
  // retires advance the epoch too.
  static constexpr std::uint64_t kScanInterval = 512;

  EpochReclaimer() = default;
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;
  ~EpochReclaimer();

  class ThreadHandle;

  class Guard {
   public:
    Guard(Guard&& o) noexcept : rec_(o.rec_), root_(o.root_) { o.rec_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard();

    const void* root() const noexcept { return root_; }

   private:
    friend class EpochReclaimer;
    struct Rec;
    Guard(Rec* rec, const void* root) noexcept : rec_(rec), root_(root) {}
    Rec* rec_;
    const void* root_;
  };

  /// Registers the calling thread. The handle must outlive all guards and
  /// retire calls made through it; on destruction pending garbage is
  /// transferred to the reclaimer's orphan list.
  ThreadHandle register_thread();

  Guard pin(ThreadHandle& h, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>& version);

  /// Queues a winning writer's superseded nodes. Versions are irrelevant
  /// to EBR; the epoch at retire time is what matters.
  void retire_bundle(ThreadHandle& h, std::uint64_t death_version,
                     const void* old_root, const void* new_root,
                     std::vector<Retired>&& nodes);

  /// Frees everything still pending. Caller must guarantee no guard is
  /// live and no concurrent pin/retire is running (teardown / tests).
  void drain_all();

  std::uint64_t global_epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t epoch_advances() const noexcept {
    return advances_.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadHandle;

  // Attempts to advance the global epoch; succeeds iff every registered,
  // non-idle thread has announced the current epoch.
  void try_advance() noexcept;

  // Frees the bucket's contents if its epoch is at least two behind now.
  // `sink` (nullable) routes ripened blocks into the owning thread's
  // magazine cache; only the owner thread may pass a non-null sink.
  void maybe_free_bucket(Guard::Rec& rec, std::size_t idx, std::uint64_t now,
                         const RetireSink* sink);

  void flush_to_orphans(Guard::Rec& rec);
  void free_ripe_orphans_locked(std::uint64_t now);

  std::atomic<std::uint64_t> global_epoch_{0};
  std::atomic<std::uint64_t> advances_{0};

  util::SlotRegistry<Guard::Rec> registry_;

  std::mutex orphan_mu_;
  struct OrphanBatch {
    std::uint64_t epoch;
    std::vector<Retired> nodes;
  };
  std::vector<OrphanBatch> orphans_;
};

struct EpochReclaimer::Guard::Rec {
  std::atomic<std::uint64_t> epoch{EpochReclaimer::kIdle};
  std::vector<Retired> bucket[3];
  std::uint64_t bucket_epoch[3] = {0, 0, 0};
  std::uint64_t since_scan = 0;  // retire volume, see kScanInterval
  EpochReclaimer* owner = nullptr;  // set by register_thread
  // Written by the owning thread only (via ThreadHandle::set_retire_sink)
  // and cleared in release() before the slot goes back to the registry;
  // the foreign-thread paths (drain_all, orphans) never read it.
  RetireSink sink{};
};

class EpochReclaimer::ThreadHandle {
 public:
  ThreadHandle() noexcept = default;
  ThreadHandle(ThreadHandle&& o) noexcept : rec_(o.rec_) { o.rec_ = nullptr; }
  ThreadHandle& operator=(ThreadHandle&& o) noexcept {
    if (this != &o) {
      release();
      rec_ = o.rec_;
      o.rec_ = nullptr;
    }
    return *this;
  }
  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;
  ~ThreadHandle() { release(); }

  /// Routes this thread's expired bundles into a local magazine cache.
  /// The sink's object must outlive the handle (it is cleared on
  /// release, which runs before a stack-ordered ThreadCache dies).
  void set_retire_sink(const RetireSink& sink) noexcept {
    if (rec_ != nullptr) rec_->sink = sink;
  }

 private:
  friend class EpochReclaimer;
  explicit ThreadHandle(Guard::Rec* rec) noexcept : rec_(rec) {}
  void release() noexcept;
  Guard::Rec* rec_ = nullptr;
};

}  // namespace pathcopy::reclaim
