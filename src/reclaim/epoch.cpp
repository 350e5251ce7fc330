#include "reclaim/epoch.hpp"

#include "util/assert.hpp"

namespace pathcopy::reclaim {

EpochReclaimer::~EpochReclaimer() { drain_all(); }

EpochReclaimer::ThreadHandle EpochReclaimer::register_thread() {
  std::lock_guard lock(registry_mu_);
  // Reuse a slot whose previous owner has exited (keeps the registry from
  // growing without bound when threads churn). The acquire pairs with the
  // releasing thread's in_use store: it orders that thread's bucket flush
  // before any use of the slot by its new owner.
  for (auto& slot : registry_) {
    Guard::Rec& rec = slot->value;
    if (!rec.in_use.load(std::memory_order_acquire)) {
      rec.in_use.store(true, std::memory_order_relaxed);
      rec.epoch.store(kIdle, std::memory_order_relaxed);
      rec.sink = RetireSink{};
      return ThreadHandle{&rec};
    }
  }
  registry_.push_back(std::make_unique<util::Padded<Guard::Rec>>());
  Guard::Rec& rec = registry_.back()->value;
  rec.owner = this;
  rec.in_use.store(true, std::memory_order_relaxed);
  return ThreadHandle{&rec};
}

void EpochReclaimer::ThreadHandle::release() noexcept {
  if (rec_ == nullptr) return;
  PC_ASSERT(rec_->epoch.load(std::memory_order_relaxed) == EpochReclaimer::kIdle,
            "thread handle released while a guard is live");
  rec_->owner->flush_to_orphans(*rec_);
  rec_->sink = RetireSink{};
  rec_->in_use.store(false, std::memory_order_release);
  rec_ = nullptr;
}

EpochReclaimer::Guard EpochReclaimer::pin(ThreadHandle& h,
                                          const std::atomic<const void*>& root,
                                          const std::atomic<std::uint64_t>&) {
  Guard::Rec* rec = h.rec_;
  PC_DASSERT(rec != nullptr, "pin on an empty thread handle");
  PC_DASSERT(rec->epoch.load(std::memory_order_relaxed) == kIdle,
             "epoch guards do not nest");
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  // The announcement must be globally visible before we read any shared
  // state; seq_cst store + seq_cst load gives the required ordering
  // against the advancing thread's registry scan.
  rec->epoch.store(e, std::memory_order_seq_cst);
  const void* r = root.load(std::memory_order_seq_cst);
  return Guard{rec, r};
}

EpochReclaimer::Guard::~Guard() {
  if (rec_ != nullptr) {
    rec_->epoch.store(EpochReclaimer::kIdle, std::memory_order_release);
  }
}

void EpochReclaimer::retire_bundle(ThreadHandle& h, std::uint64_t,
                                   const void*, const void*,
                                   std::vector<Retired>&& nodes) {
  Guard::Rec& rec = *h.rec_;
  const std::uint64_t now = global_epoch_.load(std::memory_order_acquire);
  const std::size_t idx = static_cast<std::size_t>(now % 3);
  maybe_free_bucket(rec, idx, now, &rec.sink);
  rec.bucket_epoch[idx] = now;
  retired_.fetch_add(nodes.size(), std::memory_order_relaxed);
  rec.since_scan += 1 + nodes.size();
  auto& bucket = rec.bucket[idx];
  bucket.insert(bucket.end(), nodes.begin(), nodes.end());
  nodes.clear();

  if (rec.since_scan >= kScanInterval) {
    rec.since_scan = 0;
    try_advance();
    // Opportunistically free whatever ripened, including other buckets.
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < 3; ++i) maybe_free_bucket(rec, i, e, &rec.sink);
  }
}

void EpochReclaimer::maybe_free_bucket(Guard::Rec& rec, std::size_t idx,
                                       std::uint64_t now,
                                       const RetireSink* sink) {
  auto& bucket = rec.bucket[idx];
  if (bucket.empty()) return;
  // Contents were retired in bucket_epoch[idx]; all guards that could see
  // them were announced at epochs <= that. Two advances later, every such
  // guard has been released.
  if (rec.bucket_epoch[idx] + 2 <= now) {
    freed_.fetch_add(bucket.size(), std::memory_order_relaxed);
    free_all(bucket, sink);
  }
}

void EpochReclaimer::try_advance() noexcept {
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& slot : registry_) {
      const Guard::Rec& rec = slot->value;
      const std::uint64_t seen = rec.epoch.load(std::memory_order_seq_cst);
      if (seen != kIdle && seen != e) {
        return;  // a guard is still active in an older epoch
      }
    }
  }
  std::uint64_t expected = e;
  if (global_epoch_.compare_exchange_strong(expected, e + 1,
                                            std::memory_order_seq_cst)) {
    advances_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(orphan_mu_);
    free_ripe_orphans_locked(e + 1);
  }
}

void EpochReclaimer::flush_to_orphans(Guard::Rec& rec) {
  std::lock_guard lock(orphan_mu_);
  for (std::size_t i = 0; i < 3; ++i) {
    if (!rec.bucket[i].empty()) {
      orphans_.push_back({rec.bucket_epoch[i], std::move(rec.bucket[i])});
      rec.bucket[i].clear();
    }
  }
}

void EpochReclaimer::free_ripe_orphans_locked(std::uint64_t now) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    if (orphans_[i].epoch + 2 <= now) {
      freed_.fetch_add(orphans_[i].nodes.size(), std::memory_order_relaxed);
      // Orphans free on whatever thread advances the epoch — never
      // through a thread-local sink.
      free_all(orphans_[i].nodes, nullptr);
    } else {
      if (kept != i) orphans_[kept] = std::move(orphans_[i]);
      ++kept;
    }
  }
  orphans_.resize(kept);
}

void EpochReclaimer::drain_all() {
  // Teardown path: no concurrent guards by contract, so three forced
  // advances ripen every bucket.
  for (int i = 0; i < 3; ++i) {
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
  {
    std::lock_guard lock(registry_mu_);
    for (auto& slot : registry_) {
      for (std::size_t i = 0; i < 3; ++i) {
        // Teardown runs on an arbitrary thread: no sink.
        maybe_free_bucket(slot->value, i, now, nullptr);
      }
    }
  }
  std::lock_guard lock(orphan_mu_);
  free_ripe_orphans_locked(now);
}

}  // namespace pathcopy::reclaim
