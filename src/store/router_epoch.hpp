// RouterEpoch + EpochMarkRegistry: versioned routing topologies for the
// store layer, and the quiescence protocol that makes flipping them safe
// while writers run.
//
// A ShardedMap used to hold one immutable router for its whole lifetime;
// rebalancing requires *replacing* the split points while sessions are
// mid-traffic. The unit of replacement is the RouterEpoch: an immutable
// record {sequence number, router, predecessor} published behind one
// atomic pointer on the map. A session reads exactly one epoch per
// operation (or per client batch), so every routing decision inside one
// op is made against one coherent topology — there is no instant at
// which half a batch routes by the old bounds and half by the new.
//
// The migration protocol layered on top (store/rebalancer.hpp drives it,
// ShardedMap::begin_epoch/settle_epoch implement the map side):
//
//   1. PUBLISH  — install epoch E+1 (settled = false). From now on every
//      op routes by the new bounds; ops whose key *moves* (old owner !=
//      new owner) gate on `settled` and retry until the migration is
//      done. Ops on non-moving keys — the vast majority — proceed at
//      full speed: both topologies agree on their owner.
//   2. DRAIN    — wait until no session is still executing an op it
//      routed under epoch E. Sessions announce the epoch they route by
//      in a per-session mark slot (store mark, then re-read the epoch
//      pointer; the seq_cst store/load pair is the classic Dekker
//      handshake against the publisher's store/load of the same two
//      locations), so the drain is a bounded wait for in-flight ops,
//      never for idle sessions (idle slots hold 0). After the drain, the
//      moving key ranges are frozen: new ops on them gate, old ops on
//      them have completed.
//   3. MIGRATE  — the frozen ranges are extracted from pinned source
//      snapshots and batch-installed into their new owners, then erased
//      from the sources (plain installs through each shard's UC, i.e.
//      serialized with concurrent non-moving writes by the shard's own
//      CAS/combining machinery, and routed through the ShardExecutor
//      lanes when one is attached). Readiness is per destination: as
//      soon as shard d's incoming slice is fully installed, `ready[d]`
//      flips and ops on keys moving INTO d proceed — they route to d,
//      which now holds everything it owns, while the stale source copies
//      are unreachable (every post-drain op routes by the new bounds).
//      This matters enormously for skew fits: the hot shards' ranges are
//      narrow (few resident keys, tiny installs, ready in moments) while
//      the one cold shard absorbing the bulk of the resident mass can
//      keep installing in the background without stalling hot traffic.
//   4. SETTLE   — after the sources' moved ranges are erased, `settled`
//      flips (release); gates stop checking entirely, and consistent
//      cuts — which refuse unsettled epochs because the both-copies
//      state during step 3 would let a cut double-count — resume.
//
// Why no op is lost and every outcome is exact: an op either completed
// before the drain (its effect is part of the extracted snapshot and
// migrates), or it began after the publish, in which case it routes by
// the new bounds — and if its key is moving it waits for the data to
// arrive before executing. At no point do two live copies of a moving
// key exist as far as any operation can observe: consistent cuts
// additionally refuse to stabilize while an epoch is unsettled
// (store/version_vector.hpp), so the transient both-copies state during
// step 3 is invisible to composed reads too.
//
// Epoch records are retained on a chain and freed only by the map's
// destructor: retaining them makes `router()` references and late epoch
// reads trivially safe without dragging the node reclaimers into the
// control plane. Each record is a few dozen bytes plus the tablet table
// and per-shard ready flags, but the chain is unbounded: a Rebalancer
// ticking every 2 ms under a moving hotspot flips about 70 epochs per
// 900 ms bench cell, so a long-lived map grows by one record per flip
// (an open robustness case in ROADMAP item D).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/modelcheck.hpp"
#include "util/slot_registry.hpp"

namespace pathcopy::store {

/// One immutable routing topology (plus the mutable migration-progress
/// atomics). `prev` both chains retirement and defines the moving set: a
/// key moves in this epoch iff its owner under `prev->router` differs
/// from its owner under `router`.
template <class RouterT, class K>
struct RouterEpoch {
  /// Watermarks need an atomically publishable key; maps with exotic key
  /// types degrade to all-or-nothing per-destination readiness.
  static constexpr bool kHasWatermark = std::is_trivially_copyable_v<K>;

  /// Per-destination migration progress. `done` — the whole incoming
  /// slice is installed. The watermark refines that for the one big
  /// destination a skew fit produces: the migration installs a slice in
  /// ascending key order and publishes "installed up to `mark`" as it
  /// goes, so ops on moving keys at or below the watermark resume while
  /// the tail is still landing.
  struct ReadyState {
    std::atomic<bool> done{false};
    std::atomic<bool> has_mark{false};
    std::conditional_t<kHasWatermark, std::atomic<K>, char> mark{};
  };

  std::uint64_t seq;            // 1 for the construction epoch, then +1
  RouterT router;               // the topology of this epoch
  const RouterEpoch* prev;      // predecessor (nullptr for the first)
  std::atomic<bool> settled;    // false while this epoch's migration runs
  std::vector<ReadyState> ready;

  RouterEpoch(std::uint64_t s, RouterT r, const RouterEpoch* p, bool ok,
              std::size_t shards)
      : seq(s), router(std::move(r)), prev(p), settled(ok), ready(shards) {
    for (auto& b : ready) b.done.store(ok, std::memory_order_relaxed);
  }

  bool is_settled() const noexcept {
    return settled.load(std::memory_order_acquire);
  }

  void set_ready(std::size_t shard) noexcept {
    PC_YIELD("epoch.ready");
    ready[shard].done.store(true, std::memory_order_release);
  }

  /// Publishes "shard's incoming slice installed through `key`". Only
  /// the migrating thread calls this, with ascending keys.
  void advance_watermark(std::size_t shard, const K& key) noexcept
    requires(kHasWatermark)
  {
    ready[shard].mark.store(key, std::memory_order_release);
    ready[shard].has_mark.store(true, std::memory_order_release);
  }

  /// True when ops on `key` moving into `shard` may proceed: the slice
  /// is fully installed, or installed at least through `key`. `le` is
  /// the caller's key comparison (le(a, b) == a-not-greater-than-b).
  template <class LessFn>
  bool is_ready_for(std::size_t shard, const K& key, LessFn&& less) const {
    const ReadyState& r = ready[shard];
    if (r.done.load(std::memory_order_acquire)) return true;
    if constexpr (kHasWatermark) {
      if (r.has_mark.load(std::memory_order_acquire)) {
        const K mark = r.mark.load(std::memory_order_acquire);
        return !less(mark, key);  // key <= mark
      }
    }
    return false;
  }

  /// Did `key` change owner at this flip? Only meaningful while the
  /// epoch is unsettled (afterwards the data has arrived and the answer
  /// no longer gates anything).
  bool moves(const K& key, std::size_t shards) const {
    return prev != nullptr && prev->router(key, shards) != router(key, shards);
  }
};

/// The session-side half of the drain: per-session mark slots. A slot
/// holds 0 when its session is between operations and the sequence
/// number of the epoch the session routes by while an operation is in
/// flight. The publisher drains by waiting, per slot, for "0 or >= the
/// new sequence" — which can only regress to an *older* epoch if a
/// session announced a stale pointer, and the announce protocol (store
/// mark, re-read epoch pointer, retry on mismatch) excludes exactly
/// that.
///
/// The slots live in a util::SlotRegistry, which grows on demand (no
/// session cap): sessions hold stable Slot pointers and touch its mutex
/// only at construction/destruction; the hot announce/clear path is
/// lock-free on the session's own cache line. A drain iterates a list
/// of the slots copied under that mutex — safe to miss slots acquired
/// after the copy, because such an acquisition happens-after the copy's
/// lock, which happens-after the epoch publish (same thread), so the new
/// session's first announce can only ever name the already-published
/// epoch or a newer one.
class EpochMarkRegistry {
 public:
  struct Slot {
    std::atomic<std::uint64_t> mark{0};
  };

  /// Claims a mark slot (session construction — cold path).
  Slot* acquire() { return slots_.acquire(); }

  /// Returns a slot (session destruction). The slot must be idle.
  void release(Slot* s) {
    s->mark.store(0, std::memory_order_seq_cst);
    slots_.release(s);
  }

  /// Announce side, step 1: publish the epoch sequence this session is
  /// about to route by. The caller must re-read the epoch pointer after
  /// this (seq_cst on both sides) and re-announce if it moved.
  static void announce(Slot* s, std::uint64_t seq) {
    // Between the caller's epoch-pointer read and the mark store: a
    // publisher that runs entirely inside this gap sees an idle slot,
    // drains past it, and the mark lands too late — the hole the
    // caller's re-read exists to close, made explorable here.
    PC_YIELD("epoch.mark");
    s->mark.store(seq, std::memory_order_seq_cst);
    // Between the mark store and the caller's epoch-pointer re-read: the
    // publisher's symmetric store/load may interleave here (the Dekker
    // window the model checker explores).
    PC_YIELD("epoch.announce");
  }

  static void clear(Slot* s) {
    s->mark.store(0, std::memory_order_release);
  }

  /// Publisher side: blocks until no session is mid-operation under an
  /// epoch older than `seq`. One pass suffices — a slot seen idle (or
  /// new enough) can only ever re-announce the already-published epoch
  /// or a newer one (header comment covers slots added mid-drain).
  void drain_below(std::uint64_t seq) {
    for (Slot* s : slots_.list()) {
      for (;;) {
        PC_YIELD("epoch.drain");
        const std::uint64_t m = s->mark.load(std::memory_order_seq_cst);
        if (m == 0 || m >= seq) break;
        std::this_thread::yield();
      }
    }
  }

 private:
  util::SlotRegistry<Slot> slots_;
};

}  // namespace pathcopy::store
