#include "reclaim/epoch.hpp"

#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::reclaim {

EpochReclaimer::~EpochReclaimer() { drain_all(); }

EpochReclaimer::ThreadHandle EpochReclaimer::register_thread() {
  Guard::Rec* rec = registry_.acquire();
  rec->owner = this;
  return ThreadHandle{rec};
}

void EpochReclaimer::ThreadHandle::release() noexcept {
  if (rec_ == nullptr) return;
  PC_ASSERT(rec_->epoch.load(std::memory_order_relaxed) == EpochReclaimer::kIdle,
            "thread handle released while a guard is live");
  rec_->owner->flush_to_orphans(*rec_);
  rec_->sink = RetireSink{};
  rec_->owner->registry_.release(rec_);
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
  // The epoch may advance before the announcement lands; a stale
  // announcement still protects, because it blocks the next advance.
  PC_YIELD("ebr.pin.announce");
  // The announcement must be globally visible before we read any shared
  // state; seq_cst store + seq_cst load gives the required ordering
  // against the advancing thread's registry scan.
  rec->epoch.store(e, std::memory_order_seq_cst);
  // A writer may swap the root, retire it and scan before this load.
  PC_YIELD("ebr.pin.root");
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
  count_retired(nodes.size());
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
    count_freed(bucket.size());
    free_all(bucket, sink);
  }
}

void EpochReclaimer::try_advance() noexcept {
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  bool quiescent = true;
  registry_.for_each([&](const Guard::Rec& rec) {
    const std::uint64_t seen = rec.epoch.load(std::memory_order_seq_cst);
    // A guard still active in an older epoch blocks the advance.
    if (seen != kIdle && seen != e) quiescent = false;
  });
  if (!quiescent) return;
  // A reader may announce, or another thread advance, between the scan
  // and the CAS. A reader the scan missed loads its root after the scan,
  // so what it reaches is retired at e or later and ripens at e + 2 at
  // the earliest; the CAS from e goes only to e + 1.
  PC_YIELD("ebr.advance");
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
      count_freed(orphans_[i].nodes.size());
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
  registry_.for_each([&](Guard::Rec& rec) {
    // Teardown runs on an arbitrary thread: no sink.
    for (std::size_t i = 0; i < 3; ++i) maybe_free_bucket(rec, i, now, nullptr);
  });
  std::lock_guard lock(orphan_mu_);
  free_ripe_orphans_locked(now);
}

}  // namespace pathcopy::reclaim
