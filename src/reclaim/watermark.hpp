// Version-watermark reclamation (MVCC-style).
//
// The universal construction stamps every successful transition with a
// monotonically increasing version number. A reader pins the version
// counter *before* loading the root, which guarantees pin <= version of
// the root it then loads (the counter is bumped after the root CAS, so it
// never runs ahead of the root). A bundle of nodes that died at
// transition-to-d may be referenced by any version <= d-1, hence is freed
// once min(pinned) >= d.
//
// Unlike EBR this scheme supports long-lived snapshots: pin_snapshot()
// returns a handle that keeps one version pinned for arbitrary time
// without stalling reclamation of versions newer than it would otherwise
// allow — exactly the watermark mechanism of multi-version databases the
// paper borrows from (Sun et al., VLDB'19).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "reclaim/retired.hpp"
#include "util/align.hpp"

namespace pathcopy::reclaim {

class WatermarkReclaimer {
 public:
  static constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};
  static constexpr std::uint64_t kScanInterval = 64;

  WatermarkReclaimer() = default;
  WatermarkReclaimer(const WatermarkReclaimer&) = delete;
  WatermarkReclaimer& operator=(const WatermarkReclaimer&) = delete;
  ~WatermarkReclaimer();

  struct Slot {
    std::atomic<std::uint64_t> pinned{kUnpinned};
    std::atomic<bool> in_use{false};
  };

  class ThreadHandle {
   public:
    ThreadHandle() noexcept = default;
    ThreadHandle(ThreadHandle&& o) noexcept
        : slot_(o.slot_), since_scan_(o.since_scan_), sink_(o.sink_) {
      o.slot_ = nullptr;
      o.sink_ = RetireSink{};
    }
    ThreadHandle& operator=(ThreadHandle&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = o.slot_;
        since_scan_ = o.since_scan_;
        sink_ = o.sink_;
        o.slot_ = nullptr;
        o.sink_ = RetireSink{};
      }
      return *this;
    }
    ThreadHandle(const ThreadHandle&) = delete;
    ThreadHandle& operator=(const ThreadHandle&) = delete;
    ~ThreadHandle() { release(); }

    /// Routes bundles this thread's scans ripen into a local magazine
    /// cache. Handle-local: the sink dies with the handle, which a
    /// stack-ordered ThreadCache outlives.
    void set_retire_sink(const RetireSink& sink) noexcept { sink_ = sink; }

   private:
    friend class WatermarkReclaimer;
    explicit ThreadHandle(Slot* s) noexcept : slot_(s) {}
    void release() noexcept {
      if (slot_ != nullptr) {
        slot_->pinned.store(kUnpinned, std::memory_order_release);
        slot_->in_use.store(false, std::memory_order_release);
        slot_ = nullptr;
      }
      sink_ = RetireSink{};
    }
    Slot* slot_ = nullptr;
    std::uint64_t since_scan_ = 0;
    RetireSink sink_{};
  };

  class Guard {
   public:
    Guard(Guard&& o) noexcept : slot_(o.slot_), root_(o.root_) { o.slot_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (slot_ != nullptr) slot_->pinned.store(kUnpinned, std::memory_order_release);
    }
    const void* root() const noexcept { return root_; }

   private:
    friend class WatermarkReclaimer;
    Guard(Slot* slot, const void* root) noexcept : slot_(slot), root_(root) {}
    Slot* slot_;
    const void* root_;
  };

  /// Long-lived pin on a specific version; see class comment.
  class Snapshot {
   public:
    Snapshot() noexcept = default;
    Snapshot(Snapshot&& o) noexcept
        : owner_(o.owner_), root_(o.root_), version_(o.version_) {
      o.owner_ = nullptr;
    }
    Snapshot& operator=(Snapshot&& o) noexcept;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { release(); }

    const void* root() const noexcept { return root_; }
    std::uint64_t version() const noexcept { return version_; }
    void release() noexcept;

   private:
    friend class WatermarkReclaimer;
    Snapshot(WatermarkReclaimer* owner, const void* root, std::uint64_t v) noexcept
        : owner_(owner), root_(root), version_(v) {}
    WatermarkReclaimer* owner_ = nullptr;
    const void* root_ = nullptr;
    std::uint64_t version_ = 0;
  };

  ThreadHandle register_thread();

  Guard pin(ThreadHandle& h, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>& version);

  Snapshot pin_snapshot(const std::atomic<const void*>& root,
                        const std::atomic<std::uint64_t>& version);

  void retire_bundle(ThreadHandle& h, std::uint64_t death_version,
                     const void* old_root, const void* new_root,
                     std::vector<Retired>&& nodes);

  void drain_all();

  std::uint64_t freed_nodes() const noexcept {
    return freed_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_nodes() const noexcept {
    return retired_.load(std::memory_order_relaxed) -
           freed_.load(std::memory_order_relaxed);
  }
  /// Smallest version any reader or snapshot may still be using.
  std::uint64_t watermark();

 private:
  // Frees every bundle with death_version <= the watermark, read under
  // bundle_mu_. `sink` (nullable) must belong to the calling thread.
  void collect(const RetireSink* sink);
  std::uint64_t min_pinned_version();

  std::mutex registry_mu_;
  std::vector<std::unique_ptr<util::Padded<Slot>>> slots_;

  std::mutex snap_mu_;
  std::vector<std::uint64_t> snap_pins_;  // unsorted multiset of pinned versions

  std::mutex bundle_mu_;
  std::vector<Bundle> bundles_;

  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace pathcopy::reclaim
