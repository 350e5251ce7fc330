// Version-keyed reclamation: the one body behind WatermarkReclaimer
// (watermark.hpp) and HazardRootReclaimer (hazard_roots.hpp).
//
// The universal construction stamps every successful transition with a
// version number and bumps the counter after its root CAS, so the
// counter never runs ahead of the root. A writer retires a transition's
// superseded nodes as one bundle stamped with its death version d: they
// belong to versions < d only. A reader holding a guard announces one
// version in its slot, no greater than the version of any root it can
// reach, so every node it can touch dies at a version above the
// announcement. A bundle is freed once every announced version is >= d.
//
// The two schemes differ only in how a reader announces, the pin rule:
// a struct whose one static function
//
//   const void* pin(std::atomic<std::uint64_t>& announced,
//                   const std::atomic<const void*>& root,
//                   const std::atomic<std::uint64_t>& version);
//
// stores the announcement and returns the root it protects. The
// watermark rule additionally backs long-lived snapshots, each pinning
// its own slot.
//
// Writers push bundles onto one list; every kScanInterval retire_bundle
// calls a thread runs collect(), which reads the minimum announcement
// while it holds bundle_mu_ and frees the ripe bundles after dropping
// it. The read must come after the lock: a minimum read earlier misses
// a reader that pinned after the read and then loaded a root another
// writer retired before the lock, and frees that root under the reader.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

#include "reclaim/retired.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"
#include "util/slot_registry.hpp"

namespace pathcopy::reclaim {

struct WatermarkPin;

template <class PinRule>
class VersionReclaimer : public RetireCounters {
 public:
  /// Announcement of a slot with no guard or snapshot live.
  static constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};
  /// retire_bundle calls between one thread's collects.
  static constexpr std::uint64_t kScanInterval = 64;

  VersionReclaimer() = default;
  VersionReclaimer(const VersionReclaimer&) = delete;
  VersionReclaimer& operator=(const VersionReclaimer&) = delete;
  ~VersionReclaimer() { drain_all(); }

  struct Slot {
    std::atomic<std::uint64_t> pinned{kUnpinned};
  };

  class ThreadHandle {
   public:
    ThreadHandle() noexcept = default;
    ThreadHandle(ThreadHandle&& o) noexcept { *this = std::move(o); }
    ThreadHandle& operator=(ThreadHandle&& o) noexcept {
      if (this != &o) {
        release();
        owner_ = o.owner_;
        slot_ = std::exchange(o.slot_, nullptr);
        since_scan_ = o.since_scan_;
        sink_ = std::exchange(o.sink_, RetireSink{});
      }
      return *this;
    }
    ~ThreadHandle() { release(); }

    /// Routes bundles this thread's collects ripen into a local magazine
    /// cache. Handle-local: the sink dies with the handle, which a
    /// stack-ordered ThreadCache outlives.
    void set_retire_sink(const RetireSink& sink) noexcept { sink_ = sink; }

   private:
    friend class VersionReclaimer;
    ThreadHandle(VersionReclaimer* owner, Slot* slot) noexcept
        : owner_(owner), slot_(slot) {}
    void release() noexcept {
      if (slot_ != nullptr) {
        PC_ASSERT(slot_->pinned.load(std::memory_order_relaxed) == kUnpinned,
                  "thread handle released while a guard is live");
        owner_->slots_.release(std::exchange(slot_, nullptr));
      }
      sink_ = RetireSink{};
    }
    VersionReclaimer* owner_ = nullptr;
    Slot* slot_ = nullptr;
    std::uint64_t since_scan_ = 0;
    RetireSink sink_{};
  };

  class Guard {
   public:
    Guard(Guard&& o) noexcept
        : slot_(std::exchange(o.slot_, nullptr)), root_(o.root_) {}
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (slot_ != nullptr) {
        slot_->pinned.store(kUnpinned, std::memory_order_release);
      }
    }
    const void* root() const noexcept { return root_; }

   private:
    friend class VersionReclaimer;
    Guard(Slot* slot, const void* root) noexcept : slot_(slot), root_(root) {}
    Slot* slot_;
    const void* root_;
  };

  /// Long-lived pin on one version (watermark rule only): it holds a slot
  /// of its own, announced through the same rule as a guard.
  class Snapshot {
   public:
    Snapshot() noexcept = default;
    Snapshot(Snapshot&& o) noexcept { *this = std::move(o); }
    Snapshot& operator=(Snapshot&& o) noexcept {
      if (this != &o) {
        release();
        owner_ = o.owner_;
        slot_ = std::exchange(o.slot_, nullptr);
        root_ = o.root_;
        version_ = o.version_;
      }
      return *this;
    }
    ~Snapshot() { release(); }

    const void* root() const noexcept { return root_; }
    std::uint64_t version() const noexcept { return version_; }
    void release() noexcept {
      if (slot_ == nullptr) return;
      slot_->pinned.store(kUnpinned, std::memory_order_release);
      owner_->slots_.release(std::exchange(slot_, nullptr));
    }

   private:
    friend class VersionReclaimer;
    Snapshot(VersionReclaimer* owner, Slot* slot, const void* root) noexcept
        : owner_(owner), slot_(slot), root_(root),
          version_(slot->pinned.load(std::memory_order_relaxed)) {}
    VersionReclaimer* owner_ = nullptr;
    Slot* slot_ = nullptr;
    const void* root_ = nullptr;
    std::uint64_t version_ = 0;
  };

  ThreadHandle register_thread() { return ThreadHandle{this, slots_.acquire()}; }

  Guard pin(ThreadHandle& h, const std::atomic<const void*>& root,
            const std::atomic<std::uint64_t>& version) {
    PC_DASSERT(h.slot_ != nullptr, "pin on an empty thread handle");
    PC_DASSERT(h.slot_->pinned.load(std::memory_order_relaxed) == kUnpinned,
               "version guards do not nest");
    return Guard{h.slot_, PinRule::pin(h.slot_->pinned, root, version)};
  }

  Snapshot pin_snapshot(const std::atomic<const void*>& root,
                        const std::atomic<std::uint64_t>& version)
    requires std::same_as<PinRule, WatermarkPin>
  {
    Slot* slot = slots_.acquire();
    const void* r = PinRule::pin(slot->pinned, root, version);
    return Snapshot{this, slot, r};
  }

  /// Queues a winning writer's superseded nodes under their death version.
  void retire_bundle(ThreadHandle& h, std::uint64_t death_version,
                     const void* /*old_root*/, const void* /*new_root*/,
                     std::vector<Retired>&& nodes) {
    count_retired(nodes.size());
    {
      const std::lock_guard lock(bundle_mu_);
      bundles_.push_back(Bundle{death_version, std::move(nodes)});
    }
    if (++h.since_scan_ >= kScanInterval) {
      h.since_scan_ = 0;
      collect(&h.sink_);
    }
  }

  /// Frees every bundle no announcement covers. Tests and teardown, on
  /// any thread, so no sink.
  void drain_all() { collect(nullptr); }

  /// Smallest version any guard or snapshot announces (kUnpinned if none).
  std::uint64_t watermark() {
    std::uint64_t min = kUnpinned;
    slots_.for_each([&min](const Slot& s) {
      min = std::min(min, s.pinned.load(std::memory_order_seq_cst));
    });
    return min;
  }

 private:
  /// One transition's garbage: nodes of versions < death_version only.
  struct Bundle {
    std::uint64_t death_version = 0;
    std::vector<Retired> nodes;
  };

  // `sink` (nullable) must belong to the calling thread. Lock order:
  // bundle_mu_, then the registry's lock; no path takes them the other way.
  void collect(const RetireSink* sink) {
    // Another writer may push, and a reader pin, before the lock below.
    PC_YIELD("reclaim.collect");
    std::vector<Bundle> ripe;
    {
      const std::lock_guard lock(bundle_mu_);
      const std::uint64_t min = watermark();
      const auto first_ripe =
          std::partition(bundles_.begin(), bundles_.end(),
                         [min](const Bundle& b) { return b.death_version > min; });
      ripe.assign(std::make_move_iterator(first_ripe),
                  std::make_move_iterator(bundles_.end()));
      bundles_.erase(first_ripe, bundles_.end());
    }
    for (Bundle& b : ripe) {
      count_freed(b.nodes.size());
      free_all(b.nodes, sink);
    }
  }

  util::SlotRegistry<Slot> slots_;

  std::mutex bundle_mu_;
  std::vector<Bundle> bundles_;
};

}  // namespace pathcopy::reclaim
