#include "reclaim/watermark.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pathcopy::reclaim {

WatermarkReclaimer::~WatermarkReclaimer() { drain_all(); }

WatermarkReclaimer::ThreadHandle WatermarkReclaimer::register_thread() {
  std::lock_guard lock(registry_mu_);
  for (auto& slot : slots_) {
    Slot& s = slot->value;
    // Acquire pairs with the exiting owner's release store: its final
    // writes to the slot happen-before the new owner's first use.
    if (!s.in_use.load(std::memory_order_acquire)) {
      s.in_use.store(true, std::memory_order_relaxed);
      s.pinned.store(kUnpinned, std::memory_order_relaxed);
      return ThreadHandle{&s};
    }
  }
  slots_.push_back(std::make_unique<util::Padded<Slot>>());
  Slot& s = slots_.back()->value;
  s.in_use.store(true, std::memory_order_relaxed);
  return ThreadHandle{&s};
}

WatermarkReclaimer::Guard WatermarkReclaimer::pin(
    ThreadHandle& h, const std::atomic<const void*>& root,
    const std::atomic<std::uint64_t>& version) {
  Slot* slot = h.slot_;
  PC_DASSERT(slot != nullptr, "pin on an empty thread handle");
  PC_DASSERT(slot->pinned.load(std::memory_order_relaxed) == kUnpinned,
             "watermark guards do not nest");
  // Pin first, then load the root: the version counter trails the root
  // CAS, so the pinned value can only be <= the version of the root we
  // subsequently observe — pinning is conservative, never unsafe.
  const std::uint64_t v = version.load(std::memory_order_acquire);
  slot->pinned.store(v, std::memory_order_seq_cst);
  const void* r = root.load(std::memory_order_seq_cst);
  return Guard{slot, r};
}

WatermarkReclaimer::Snapshot WatermarkReclaimer::pin_snapshot(
    const std::atomic<const void*>& root,
    const std::atomic<std::uint64_t>& version) {
  // Same pin-then-load discipline as Guard, with the pin recorded in the
  // shared multiset. The lock is held across the root load so a concurrent
  // collect() either sees the pin or runs before it; in the latter case the
  // root we load is at least as new as anything it freed.
  std::unique_lock lock(snap_mu_);
  const std::uint64_t v = version.load(std::memory_order_seq_cst);
  snap_pins_.push_back(v);
  const void* r = root.load(std::memory_order_seq_cst);
  lock.unlock();
  return Snapshot{this, r, v};
}

WatermarkReclaimer::Snapshot& WatermarkReclaimer::Snapshot::operator=(
    Snapshot&& o) noexcept {
  if (this != &o) {
    release();
    owner_ = o.owner_;
    root_ = o.root_;
    version_ = o.version_;
    o.owner_ = nullptr;
  }
  return *this;
}

void WatermarkReclaimer::Snapshot::release() noexcept {
  if (owner_ == nullptr) return;
  {
    std::lock_guard lock(owner_->snap_mu_);
    auto& pins = owner_->snap_pins_;
    auto it = std::find(pins.begin(), pins.end(), version_);
    PC_ASSERT(it != pins.end(), "snapshot pin missing from registry");
    *it = pins.back();
    pins.pop_back();
  }
  owner_ = nullptr;
}

std::uint64_t WatermarkReclaimer::min_pinned_version() {
  std::uint64_t min = kUnpinned;
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& slot : slots_) {
      const std::uint64_t p = slot->value.pinned.load(std::memory_order_seq_cst);
      min = std::min(min, p);
    }
  }
  {
    std::lock_guard lock(snap_mu_);
    for (const std::uint64_t p : snap_pins_) min = std::min(min, p);
  }
  return min;
}

std::uint64_t WatermarkReclaimer::watermark() { return min_pinned_version(); }

void WatermarkReclaimer::retire_bundle(ThreadHandle& h,
                                       std::uint64_t death_version,
                                       const void* old_root, const void*,
                                       std::vector<Retired>&& nodes) {
  retired_.fetch_add(nodes.size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(bundle_mu_);
    bundles_.push_back(Bundle{death_version, old_root, std::move(nodes)});
  }
  if (++h.since_scan_ >= kScanInterval) {
    h.since_scan_ = 0;
    collect(&h.sink_);
  }
}

void WatermarkReclaimer::collect(const RetireSink* sink) {
  std::vector<Bundle> ripe;
  {
    std::lock_guard lock(bundle_mu_);
    // Read the pins only after every bundle this pass may free was pushed.
    // A watermark taken earlier misses a reader that pinned after it and
    // then loaded a root another thread retired before this lock.
    const std::uint64_t min_pinned = min_pinned_version();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bundles_.size(); ++i) {
      // Free iff every pin is at or past the death version: no reader can
      // still hold a version that contains these nodes.
      if (bundles_[i].death_version <= min_pinned) {
        ripe.push_back(std::move(bundles_[i]));
      } else {
        if (kept != i) bundles_[kept] = std::move(bundles_[i]);
        ++kept;
      }
    }
    bundles_.resize(kept);
  }
  for (auto& b : ripe) {
    freed_.fetch_add(b.nodes.size(), std::memory_order_relaxed);
    free_all(b.nodes, sink);
  }
}

void WatermarkReclaimer::drain_all() {
  // Teardown/test path, possibly on a foreign thread: no sink.
  collect(nullptr);
}

}  // namespace pathcopy::reclaim
