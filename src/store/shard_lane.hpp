// Lock-free per-shard submission lane: a bounded Vyukov-style MPSC ring
// plus the park/wake and stop protocols the ShardExecutor builds on.
//
// MpscRing is the classic sequence-stamped bounded queue specialized to
// one consumer: every slot carries an atomic stamp; a producer claims a
// slot with one CAS on the tail and publishes with one release store of
// the stamp; the consumer needs no atomics beyond an acquire load of the
// stamp it expects next. No mutex anywhere, and the ring is inspectable
// (approximate depth from two relaxed loads) so control-plane probes
// never serialize against producers.
//
// ShardLane layers three protocols on top:
//
//   * submit gate — a single state word whose high bit is "stopping" and
//     whose low bits count in-flight producers. A producer enters with
//     one fetch_add, backs out if the stop bit was already set, and
//     leaves with one fetch_sub. stop() sets the bit, waits the in-flight
//     count to zero (every racing producer has either published into the
//     ring or backed out), then pushes a poison element through the ring
//     itself: FIFO guarantees everything submitted-before-stop precedes
//     the poison and the stop bit guarantees nothing follows it.
//
//   * park/wake (Dekker) — producers bump a seq_cst publish counter
//     (`ding_`) after the ring publish and notify only when the consumer
//     advertised itself parked. The consumer reads the counter BEFORE
//     checking emptiness (reading a counter value makes every publish it
//     counts visible), advertises `parked_`, then re-reads the counter:
//     in the seq_cst total order either the producer's bump precedes the
//     re-read (the consumer aborts the park) or the consumer's
//     `parked_` store precedes the producer's flag load (the producer
//     notifies). Either way a publish cannot vanish into a sleeping
//     consumer — the lost-wakeup mutant test in test_model_check.cpp
//     drives exactly this argument.
//
//   * model-check hooks — the futex wait is a PC_YIELD spin under
//     -DPATHCOPY_MODELCHECK (a real atomic::wait would block the OS
//     thread outside the virtual scheduler's control), and the LaneMutant
//     template parameter re-introduces the two classic bugs (claiming a
//     slot without the stamp check; parking without the counter re-read)
//     so the checker can demonstrate it would catch them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::store {

/// Deliberately broken lane variants for model-check mutant tests. The
/// real pipeline always instantiates kNone; the mutants exist so the
/// checker's exhaustive search can be shown to find the bug each guard
/// prevents (see tests/test_model_check.cpp).
enum class LaneMutant : unsigned {
  kNone = 0,
  /// Producer claims a slot without verifying its stamp says "free":
  /// a full ring gets overwritten and the element is lost.
  kSkipSlotSeqCheck,
  /// Consumer parks without re-reading the publish counter after
  /// advertising parked_: the Dekker window reopens and a publish that
  /// saw parked_ == false is never noticed (lost wakeup).
  kSkipParkRecheck,
};

/// Bounded multi-producer single-consumer ring (Vyukov sequence-stamped
/// slots). Capacity must be a power of two. Producers: try_push is one
/// CAS on the tail plus one release store of the slot stamp. Consumer:
/// try_pop is wait-free (returns false when no element is ready).
template <class T, LaneMutant Mutant = LaneMutant::kNone>
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity)
      : cap_(capacity), mask_(capacity - 1), slots_(new Slot[capacity]) {
    PC_ASSERT(capacity >= 2 && (capacity & (capacity - 1)) == 0,
              "ring capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Multi-producer push. Returns false when the ring is full (the
  /// element is NOT enqueued).
  bool try_push(const T& v) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0 || Mutant == LaneMutant::kSkipSlotSeqCheck) {
        // Slot recycled and ready (stamp == pos); claim it. The window
        // between reading the stamp and winning the CAS is where a rival
        // claims first — the CAS failing is the benign outcome, the
        // stamp re-check disappearing (mutant) is the lost-element bug.
        PC_YIELD("lane.push");
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = v;
          PC_YIELD("lane.publish");
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // a full lap behind: ring is full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop. Wait-free: false when the next slot has not
  /// been published yet.
  bool try_pop(T& out) {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) return false;  // not published (or mutant-corrupted)
    PC_YIELD("lane.pop");
    out = std::move(slot.value);
    slot.seq.store(pos + cap_, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer-side emptiness: reads the stamp the next pop would need.
  /// Precise for the consumer (nothing else moves head_).
  bool consumer_empty() const {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    return slots_[pos & mask_].seq.load(std::memory_order_acquire) != pos + 1;
  }

  /// Approximate depth from two relaxed loads — the control-plane
  /// pressure probe. May transiently over/under-count in-flight pushes.
  std::size_t approx_size() const {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq;
    T value;
  };

  const std::size_t cap_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producers CAS
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer stores
};

/// One shard's submission lane: ring + submit gate + park/wake. The
/// consumer contract is single-threaded (the shard's worker); any thread
/// may produce; exactly one thread may drive request_stop.
template <class T, LaneMutant Mutant = LaneMutant::kNone>
class ShardLane {
 public:
  enum class Push { kOk, kFull, kStopping };

  explicit ShardLane(std::size_t capacity) : ring_(capacity) {}

  /// Producer fast path: one fetch_add on the gate, one ring CAS + one
  /// release store, one fetch_add on the publish counter, one fetch_sub
  /// to leave. Zero mutexes, no syscall unless the consumer advertised
  /// itself parked.
  Push try_push(const T& v) {
    const std::uint32_t gate = state_.fetch_add(1, std::memory_order_seq_cst);
    if ((gate & kStopBit) != 0) {
      state_.fetch_sub(1, std::memory_order_relaxed);
      return Push::kStopping;
    }
    // In-flight from here: request_stop() waits this producer out before
    // poisoning the ring, so a won gate implies the element (if pushed)
    // precedes the poison.
    PC_YIELD("lane.gate");
    if (!ring_.try_push(v)) {
      state_.fetch_sub(1, std::memory_order_release);
      return Push::kFull;
    }
    publish_ding();
    state_.fetch_sub(1, std::memory_order_release);
    return Push::kOk;
  }

  /// Blocking producer push: spins (with yields) through full-ring
  /// backpressure, returns false when the lane is stopping. Running the
  /// element synchronously on full is NOT an option for callers that
  /// need per-shard FIFO — an earlier element may still sit in the ring
  /// — so backpressure blocks. The ring cannot stay full forever: the
  /// consumer only parks on an empty ring.
  bool push_wait(const T& v) {
    for (;;) {
      switch (try_push(v)) {
        case Push::kOk:
          return true;
        case Push::kStopping:
          return false;
        case Push::kFull:
          PC_YIELD("lane.full");
          std::this_thread::yield();
          break;
      }
    }
  }

  // ---- consumer side (single thread) ----

  bool try_pop(T& out) { return ring_.try_pop(out); }

  /// Drains everything currently published into `out` (appended).
  /// Returns the number of elements taken.
  std::size_t drain(std::vector<T>& out) {
    std::size_t n = 0;
    T v;
    while (ring_.try_pop(v)) {
      out.push_back(std::move(v));
      ++n;
    }
    return n;
  }

  bool consumer_empty() const { return ring_.consumer_empty(); }

  /// Reads the publish epoch. seq_cst on purpose: reading a counter
  /// value w makes every publish counted in w visible to subsequent ring
  /// reads (slot store happens-before the counter bump which
  /// happens-before this load), so "epoch then emptiness check" cannot
  /// miss an element that was already counted.
  std::uint32_t park_epoch() const {
    return ding_.load(std::memory_order_seq_cst);
  }

  /// Advertises the consumer as parked and re-reads the epoch. Returns
  /// true when the commit stands (the caller may sleep via park_wait);
  /// false when a publish slipped in — retry the drain instead. The
  /// re-read is the load the Dekker argument needs; the kSkipParkRecheck
  /// mutant drops it.
  bool commit_park(std::uint32_t w) {
    parked_.store(true, std::memory_order_seq_cst);
    PC_YIELD("lane.park");
    if constexpr (Mutant != LaneMutant::kSkipParkRecheck) {
      if (ding_.load(std::memory_order_seq_cst) != w) {
        parked_.store(false, std::memory_order_seq_cst);
        return false;
      }
    }
    return true;
  }

  /// Sleeps until the publish epoch moves past w. Only after a
  /// commit_park(w) that returned true. A publish that arrives between
  /// the commit and the futex wait bumps the epoch first, so the wait
  /// returns immediately — no lost wakeup.
  void park_wait(std::uint32_t w) {
#if defined(PATHCOPY_MODELCHECK)
    // atomic::wait would block the OS thread outside the virtual
    // scheduler's control; spin with yields instead.
    while (ding_.load(std::memory_order_seq_cst) == w) {
      PC_YIELD("lane.park");
      std::this_thread::yield();
    }
#else
    ding_.wait(w);
#endif
    parked_.store(false, std::memory_order_seq_cst);
  }

  // ---- stop side (one thread, once) ----

  /// Sets the stop bit (later producers are refused), waits out every
  /// in-flight producer, then pushes `poison` through the ring itself:
  /// FIFO guarantees every submitted element precedes it and the stop
  /// bit guarantees nothing follows, so the consumer exits exactly after
  /// the last real element.
  void request_stop(const T& poison) {
    state_.fetch_or(kStopBit, std::memory_order_seq_cst);
    while ((state_.load(std::memory_order_acquire) & ~kStopBit) != 0) {
      PC_YIELD("lane.stop");
      std::this_thread::yield();
    }
    while (!ring_.try_push(poison)) {
      // Full ring: the consumer is awake and draining; wait for space.
      PC_YIELD("lane.stop");
      std::this_thread::yield();
    }
    publish_ding();
  }

  /// Approximate depth — the rebalancer's pressure probe. Two relaxed
  /// loads, no lock, safe from any thread.
  std::size_t approx_size() const { return ring_.approx_size(); }

  /// Wakeups actually delivered (producer saw parked_). Exposed for the
  /// model-check lost-wakeup assertion; relaxed counter.
  std::uint64_t wakes_sent() const {
    return wakes_sent_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kStopBit = 1u << 31;

  void publish_ding() {
    ding_.fetch_add(1, std::memory_order_seq_cst);
    PC_YIELD("lane.wake");
    if (parked_.load(std::memory_order_seq_cst)) {
      wakes_sent_.fetch_add(1, std::memory_order_relaxed);
      ding_.notify_one();
    }
  }

  MpscRing<T, Mutant> ring_;
  alignas(64) std::atomic<std::uint32_t> state_{0};  // stop bit + in-flight
  alignas(64) std::atomic<std::uint32_t> ding_{0};   // publish epoch
  std::atomic<bool> parked_{false};
  std::atomic<std::uint64_t> wakes_sent_{0};
};

}  // namespace pathcopy::store
