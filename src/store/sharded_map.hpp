// ShardedMap: an ordered map partitioned across S independent universal-
// construction instances.
//
// The paper's UC funnels every update through one Read/CAS register; PR 1
// widened what one CAS can carry (sorted batch-apply), and this layer
// multiplies the registers themselves. Each shard is a full UC — its own
// root atom, reclaimer domain, and version counter — so S shards give S
// concurrent install streams and S times the batch-formation opportunity
// (a shard's combiner gathers only its own keyspace slice, which is a
// denser, more local stream — the regime where the sorted sweep wins).
//
// The map is written purely against the UniversalConstruction concept
// (core/universal.hpp): any backend modeling it — the plain Atom, the
// CombiningAtom, future ones — plugs in unchanged, which is how the test
// suite and bench_sharded sweep backend × shard-count from one harness.
//
// Layering (see src/store/README.md):
//
//   ShardedMap / Session      routing, batch splitting, cross-shard reads
//        │  UniversalConstruction concept
//   Atom / CombiningAtom      install path, helping, version publication
//        │  path-copying structure API
//   Treap / AvlTree / ...     split/merge/join sweeps over immutable nodes
//
// Consistency model: each shard is linearizable on its own. Cross-shard
// reads (size, ordered iteration, read_cut) observe one vector-clock-
// consistent cut: every shard is pinned via the concept's versioned-read
// surface and the pins are validated/re-taken until one instant lies
// inside every shard's stability window (store/version_vector.hpp has
// the full argument). Cross-shard *writes* remain independent installs —
// a multi-shard batch is not atomic across shards; see
// src/store/README.md for exactly what is and is not linearizable.
//
// Ingest pipeline: a ShardExecutor (store/executor.hpp) may be attached
// to the map, after which Session::execute_batch / multi_get /
// seed_sorted scatter per-shard tasks into the per-shard worker queues
// and join on a ticket — S concurrent install streams instead of a
// sequential shard walk, and a backed-up lane hands its queued batch
// tickets to the backend's execute_batch as one span. Without one, the
// same tasks run on the calling thread: run_shard_tasks is the one place
// that picks lane or thread, ShardExecutor::run_task the one function
// that runs a batch or seed task there, and ShardExecutor::run_wave the
// one that runs a call's read tasks there, as one probe wave.
//
// Routing: a TabletRouter (store/tablet_router.hpp) assigns sorted key
// tablets to shards. Ordered cross-shard reads walk that table in key
// order, each tablet read from its owner's pinned snapshot.
//
// Routing epochs: the router lives in a published RouterEpoch
// (store/router_epoch.hpp), read once per operation/batch, so a
// Rebalancer (store/rebalancer.hpp) can replace the tablet table while
// sessions run: publish + drain (per-session epoch marks), live-migrate
// the moving ranges off pinned snapshots, settle. Ops on mid-flip moving
// keys park until their new owner holds their data; everything else —
// and everything always, on maps that never rebalance — pays one atomic
// announce per op. Sessions also feed the map's KeySketch (offered-key
// reservoir) that rebalancing plans are fitted to.
//
// Threading model: the map and its shards are shared; each worker thread
// owns one Session (per-shard reclaimer registrations + announcement
// slots + stats). Sessions must not outlive the map. Combining backends
// never recycle announcement slots, so at most MaxThreads sessions may
// ever be created against one map (executor workers consume none of that
// budget: they drive execute_batch/seed_sorted, which use the request
// sentinel slot, and never call register_slot).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "core/universal.hpp"
#include "store/executor.hpp"
#include "store/key_sketch.hpp"
#include "store/router_epoch.hpp"
#include "store/tablet_router.hpp"
#include "store/version_vector.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::store {

template <core::UniversalConstruction Uc,
          class RouterT = TabletRouter<typename Uc::Key>>
class ShardedMap {
 public:
  using Key = typename Uc::Key;
  using Value = typename Uc::Value;
  using Structure = typename Uc::Structure;
  using Smr = typename Uc::SmrType;
  using Alloc = typename Uc::AllocType;
  using Ctx = typename Uc::Ctx;
  using OpKind = typename Uc::OpKind;
  using BatchRequest = typename Uc::BatchRequest;
  using ReadOutcome = typename Uc::ReadOutcome;
  using Router = RouterT;
  using Backend = Uc;
  using Epoch = RouterEpoch<RouterT, Key>;

  /// `alloc` is the allocator view used to build the shards' initial
  /// (empty) versions; its retire backend must outlive the map, like for
  /// a single UC. Each shard gets its own reclaimer domain. The caller
  /// passes the table (e.g. RouterT::uniform); `RouterT{}` is one tablet
  /// on shard 0.
  ShardedMap(std::size_t shards, Alloc& alloc, RouterT router) {
    PC_ASSERT(shards >= 1, "ShardedMap needs at least one shard");
    PC_ASSERT(router.compatible(shards),
              "router incompatible with this shard count");
    epoch_.store(new Epoch(1, std::move(router), nullptr, true, shards),
                 std::memory_order_release);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<ShardRec>(alloc));
    }
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  ~ShardedMap() {
    // Epochs are retained on the chain for the map's lifetime (see
    // router_epoch.hpp); free them all here.
    const Epoch* e = epoch_.load(std::memory_order_acquire);
    while (e != nullptr) {
      const Epoch* prev = e->prev;
      delete e;
      e = prev;
    }
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// The current epoch's router. The reference stays valid for the map's
  /// lifetime (epochs are retained), but a rebalance may supersede it —
  /// sessions route through one coherent epoch per operation instead.
  const RouterT& router() const noexcept { return current_epoch()->router; }
  std::size_t shard_of(const Key& key) const {
    return current_epoch()->router(key, shards_.size());
  }
  Uc& shard(std::size_t i) { return shards_[i]->uc; }

  // ----- routing epochs (store/router_epoch.hpp has the protocol) -----

  const Epoch* current_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Rebalancer side, step 1+2: publishes `next` as a new unsettled epoch
  /// and drains every session still mid-operation under the old one. On
  /// return the moving key ranges are frozen — ops on them gate until
  /// settle_epoch — and sources can be snapshotted for extraction. Must
  /// not be called while another epoch is still unsettled (one rebalance
  /// at a time; the Rebalancer serializes itself).
  Epoch* begin_epoch(RouterT next) {
    PC_ASSERT(next.compatible(shards_.size()),
              "new router incompatible with this shard count");
    const Epoch* cur = epoch_.load(std::memory_order_acquire);
    PC_ASSERT(cur->is_settled(), "begin_epoch while a flip is in flight");
    Epoch* e =
        new Epoch(cur->seq + 1, std::move(next), cur, false, shards_.size());
    epoch_.store(e, std::memory_order_seq_cst);
    // The publisher half of the Dekker handshake: sessions may announce
    // (and re-read) between our publish and our drain.
    PC_YIELD("epoch.publish");
    marks_.drain_below(e->seq);
    return e;
  }

  /// Rebalancer side, step 4: the migration's installs are done; gated
  /// ops may proceed against the new owners.
  void settle_epoch(Epoch* e) {
    PC_YIELD("epoch.settle");
    e->settled.store(true, std::memory_order_release);
  }

  // ----- offered-load sketch (fed by sessions, read by the Rebalancer) --

  KeySketch<Key>& sketch() noexcept { return sketch_; }
  const KeySketch<Key>& sketch() const noexcept { return sketch_; }

  /// Monotone count of parked-op waits (ops that gated on a mid-flip
  /// moving key, summed over all sessions). The continuous rebalancer
  /// reads the delta across its own flips as a backpressure signal: a
  /// rising count means client traffic is stalling behind migrations and
  /// the next move should wait.
  std::uint64_t parked_waits() const noexcept {
    return parked_waits_.load(std::memory_order_relaxed);
  }

  /// Off by default — maps that never rebalance don't pay for traffic
  /// sampling. The Rebalancer's constructor turns it on (sessions pick
  /// the flag up on their next operation).
  void set_sketch_enabled(bool on) noexcept {
    sketch_enabled_.store(on, std::memory_order_relaxed);
  }
  bool sketch_enabled() const noexcept {
    return sketch_enabled_.load(std::memory_order_relaxed);
  }

  // ----- shard execution pipeline -----
  //
  // ShardExecutor's constructor attaches itself; its stop()/destructor
  // detaches. While attached, every Session routes execute_batch,
  // multi_get and seed_sorted through the worker queues. Attach before
  // spawning client threads (the pointer is atomic so racing readers are
  // defined, but mid-run attachment changes which thread runs a given
  // install).

  void attach_executor(ShardExecutor<Uc>& exec) {
    PC_ASSERT(executor_.load(std::memory_order_acquire) == nullptr,
              "an executor is already attached to this map");
    executor_.store(&exec, std::memory_order_release);
  }

  void detach_executor() noexcept {
    executor_.store(nullptr, std::memory_order_release);
  }

  ShardExecutor<Uc>* executor() const noexcept {
    return executor_.load(std::memory_order_acquire);
  }

  class Session;

 private:
  /// Declaration order is destruction order in reverse: the UC is torn
  /// down (freeing the final version through the allocator backend)
  /// before its reclaimer drains.
  struct ShardRec {
    Smr smr;
    Uc uc;
    explicit ShardRec(Alloc& alloc) : uc(smr, alloc) {}
  };

  std::vector<std::unique_ptr<ShardRec>> shards_;
  std::atomic<const Epoch*> epoch_{nullptr};
  EpochMarkRegistry marks_;
  KeySketch<Key> sketch_;
  std::atomic<std::uint64_t> parked_waits_{0};
  std::atomic<bool> sketch_enabled_{false};
  std::atomic<ShardExecutor<Uc>*> executor_{nullptr};
};

/// Per-thread handle on a ShardedMap: one reclaimer registration, one
/// announcement slot, and one OpStats per shard. Create on the owning
/// thread, do not share, destroy before the map.
template <core::UniversalConstruction Uc, class RouterT>
class ShardedMap<Uc, RouterT>::Session {
 public:
  Session(ShardedMap& map, Alloc& alloc)
      : map_(&map), mark_slot_(map.marks_.acquire()) {
    const std::size_t n = map.shard_count();
    ctxs_.reserve(n);
    slots_.reserve(n);
    split_.resize(n);
    sketch_buf_.reserve(kSketchFlush);
    for (std::size_t i = 0; i < n; ++i) {
      ctxs_.emplace_back(map.shards_[i]->smr, alloc);
      slots_.push_back(map.shards_[i]->uc.register_slot());
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    flush_sketch();
    map_->marks_.release(mark_slot_);
  }

  // ----- point operations (routed to the owning shard) -----
  //
  // Every op routes through one coherent RouterEpoch: the session
  // announces the epoch in its mark slot (so a topology flip drains
  // behind in-flight ops), and an op whose key is mid-migration — its
  // owner differs between the flipping epochs — retries until the epoch
  // settles and the data has arrived at the new owner. Non-moving keys
  // (and all keys on settled epochs, i.e. always outside a rebalance)
  // pay only the announce handshake.

  bool insert(const Key& key, const Value& value) {
    record_key(key);
    const Epoch* e = epoch_enter(&key, &key + 1);
    const EpochExit scope{this};
    const std::size_t s = e->router(key, map_->shard_count());
    return map_->shards_[s]->uc.insert(ctxs_[s], slots_[s], key, value);
  }

  bool erase(const Key& key) {
    record_key(key);
    const Epoch* e = epoch_enter(&key, &key + 1);
    const EpochExit scope{this};
    const std::size_t s = e->router(key, map_->shard_count());
    return map_->shards_[s]->uc.erase(ctxs_[s], slots_[s], key);
  }

  bool contains(const Key& key) {
    record_key(key);
    const Epoch* e = epoch_enter(&key, &key + 1);
    const EpochExit scope{this};
    const std::size_t s = e->router(key, map_->shard_count());
    return map_->shards_[s]->uc.read(
        ctxs_[s], [&](auto snapshot) { return snapshot.contains(key); });
  }

  std::optional<Value> find(const Key& key) {
    record_key(key);
    const Epoch* e = epoch_enter(&key, &key + 1);
    const EpochExit scope{this};
    const std::size_t s = e->router(key, map_->shard_count());
    return map_->shards_[s]->uc.read(
        ctxs_[s], [&](auto snapshot) -> std::optional<Value> {
          const Value* v = snapshot.find(key);
          return v == nullptr ? std::nullopt : std::optional<Value>(*v);
        });
  }

  /// Batched point lookup: out[i] answers keys[i] (an empty optional
  /// means absent). Client keys may arrive unsorted and with duplicates;
  /// the session splits them into per-shard key-sorted, key-unique probe
  /// lists, resolves each shard's list against ONE pinned snapshot of
  /// that shard (the descent-sharing sweep — no combiner, no version
  /// bump, no allocation on the shard), and scatters the answers back.
  /// With an executor attached, probes ride the shard lanes as read
  /// tasks and coalesce with other sessions' probes (see
  /// ShardExecutor::exec_read_merged); otherwise this thread probes every
  /// shard in one wave (ShardExecutor::run_wave): all of them pinned,
  /// their single-key descents interleaved in one prefetched tail buffer.
  ///
  /// Snapshot semantics: each SHARD's answers come from one snapshot;
  /// keys on different shards may observe different instants (like a
  /// sequence of find() calls, and unlike read_cut). Not re-entrant —
  /// the probe scratch is session state, shared with execute_batch.
  void multi_get(std::span<const Key> keys, std::span<ReadOutcome> out) {
    PC_ASSERT(out.size() >= keys.size(), "multi_get outcome span too small");
    PC_DASSERT(!in_batch_,
               "Session::multi_get re-entered or nested in execute_batch; "
               "sessions are single-owner and their scratch is not "
               "re-entrant");
    in_batch_ = true;
    struct BatchScope {
      bool* flag;
      ~BatchScope() { *flag = false; }
    } scope{&in_batch_};
    if (map_->sketch_enabled()) {
      for (const Key& k : keys) record_key(k);
    }
    // One coherent epoch for the whole probe: every key waits until its
    // route is stable, so no probe reads a mid-migration shard that does
    // not yet hold its data.
    const Epoch* e = epoch_enter(keys.begin(), keys.end());
    const EpochExit escope{this};
    split_probe(e, keys);
    run_split_tasks([&](std::size_t s) {
      Task task;
      task.keys = std::span<const Key>(probe_keys_by_shard_[s]);
      task.scatter = split_[s].data();
      task.read_results = out.data();
      return task;
    });
    // Duplicate client keys were dropped from the probe lists (they must
    // be strictly increasing); every duplicate copies the answer of the
    // occurrence that was probed — same snapshot, same value.
    for (const auto& [dst, src] : dup_fixups_) out[dst] = out[src];
  }

  // ----- cross-shard composed reads (vector-clock-consistent cuts) -----

  /// Runs f on a ConsistentCut of the whole store: every shard pinned,
  /// versions converged to one stable vector clock, so f observes the S
  /// snapshots as they simultaneously were at one instant (see
  /// store/version_vector.hpp). f receives `const ConsistentCut<Uc>&`;
  /// the pins are dropped when read_cut returns, so f must not retain
  /// snapshot references past its return. Retries are charged to the
  /// moving shard's cut_retries counter (surfaced by ShardStatsBoard).
  ///
  /// Not re-entrant: the cut engine is session scratch, so f must not
  /// call another composed read (size/items/for_each_ordered/read_cut)
  /// on the SAME session — the nested collect would drop the outer
  /// cut's pins from under f. Debug builds assert, mirroring the
  /// execute_batch scratch guard.
  template <class F>
  decltype(auto) read_cut(F&& f) {
    PC_DASSERT(!in_cut_,
               "Session::read_cut re-entered (nested composed read on the "
               "same session); the cut scratch is shared per session");
    in_cut_ = true;
    struct CutScope {
      bool* flag;
      ~CutScope() { *flag = false; }
    } cut_scope{&in_cut_};
    // The cut engine is session scratch: collect() reuses its vectors'
    // capacity, so steady-state composed reads allocate nothing. The
    // releaser drops the S reclaimer guards as soon as f returns
    // (holding them past the call would stall reclamation), whatever f
    // returns.
    // The epoch probe ties the cut to the routing topology: it refuses
    // to stabilize while a rebalance is migrating (when a moving key
    // transiently exists in two shards) and restarts if the topology
    // flipped inside the pin window — a cut is wholly-before or
    // wholly-after a rebalance, never mixed. Cuts hold no epoch mark:
    // their snapshots are pin-protected, and the probe — not the drain —
    // is what orders them against flips.
    cut_scratch_.collect(
        map_->shard_count(),
        [&](std::size_t s) -> Uc& { return map_->shards_[s]->uc; },
        [&](std::size_t s) -> Ctx& { return ctxs_[s]; },
        [&](std::size_t s) { ++ctxs_[s].stats.cut_retries; },
        [&]() -> const void* {
          const Epoch* e = map_->epoch_.load(std::memory_order_seq_cst);
          return e->is_settled() ? e : nullptr;
        },
        [&] {
          // An epoch-driven restart re-pins every shard, so it is a cut
          // retry of all S participants — not shard-0 activity (the
          // per-shard epoch_retries column stays op-gate-only).
          for (Ctx& ctx : ctxs_) ++ctx.stats.cut_retries;
        });
    for (std::size_t s = 0; s < ctxs_.size(); ++s) {
      ++ctxs_[s].stats.cut_reads;
    }
    struct Releaser {
      ConsistentCut<Uc>* cut;
      ~Releaser() { cut->release(); }
    } releaser{&cut_scratch_};
    return std::forward<F>(f)(std::as_const(cut_scratch_));
  }

  /// Total size over one consistent cut: the sum the cut's clock vouches
  /// for — all addends belong to the same instant.
  std::size_t size() {
    return read_cut([](const ConsistentCut<Uc>& cut) {
      std::size_t total = 0;
      for (std::size_t s = 0; s < cut.shards(); ++s) {
        total += cut.snapshot(s).size();
      }
      return total;
    });
  }

  /// Ordered in-order visit of (key, value) across every shard, all
  /// shards read at one consistent cut: the cut's tablet table is walked
  /// in key order and each tablet's slice is read from its owner's
  /// pinned snapshot, so the output is sorted under any assignment.
  template <class F>
  void for_each_ordered(F&& f) {
    read_cut([&](const ConsistentCut<Uc>& cut) {
      const RouterT& r = cut_router(cut);
      for (std::size_t t = 0; t < r.tablet_count(); ++t) {
        for_each_in_tablet(cut.snapshot(r.owner(t)), r.tablet_lo(t),
                           r.tablet_hi(t), f);
      }
      return 0;
    });
  }

  std::vector<std::pair<Key, Value>> items() {
    std::vector<std::pair<Key, Value>> out;
    for_each_ordered([&](const Key& k, const Value& v) {
      out.emplace_back(k, v);
    });
    return out;
  }

  /// Bounded ordered range read: appends up to `limit` (key, value)
  /// pairs from [lo, hi) in global key order onto `out`; returns the
  /// number emitted. All shards are read at ONE consistent cut (the
  /// vector-clock pins of read_cut), so the result is a true prefix of
  /// the range as it simultaneously existed — including across
  /// rebalances (a cut never observes a flipping epoch). The tablets
  /// overlapping [lo, hi) are consumed in key order, each clipped slice
  /// scanned on its owner with the remaining limit, so at most `limit`
  /// records are copied.
  std::size_t scan(const Key& lo, const Key& hi, std::size_t limit,
                   std::vector<std::pair<Key, Value>>& out) {
    if (limit == 0) return 0;
    return read_cut([&](const ConsistentCut<Uc>& cut) -> std::size_t {
      const RouterT& r = cut_router(cut);
      std::size_t emitted = 0;
      for (std::size_t t = r.tablet_of(lo);
           t < r.tablet_count() && emitted < limit; ++t) {
        const Key* t_lo = r.tablet_lo(t);
        const Key* t_hi = r.tablet_hi(t);
        if (t_lo != nullptr && !key_less(*t_lo, hi)) break;
        const Key& from = t_lo != nullptr && key_less(lo, *t_lo) ? *t_lo : lo;
        const Key& to = t_hi != nullptr && key_less(*t_hi, hi) ? *t_hi : hi;
        emitted +=
            cut.snapshot(r.owner(t)).scan(from, to, limit - emitted, out);
      }
      return emitted;
    });
  }

  // ----- batch ingest (split across shards) -----

  /// Splits a client batch into per-shard sub-batches in issue order
  /// (same-key ops always land on the same shard, so every same-key chain
  /// keeps its order; no backend needs key order — the combining install
  /// sorts, the plain Atom applies op by op), feeds each shard's install
  /// path, and scatters the per-op results back into `results_out`
  /// aligned with `reqs`. A one-shard map skips the split: the batch is
  /// shard 0's task as it stands. With an executor attached the
  /// sub-batches go through the per-shard worker queues concurrently and
  /// this call joins on their ticket; otherwise shards are visited
  /// synchronously from this thread.
  ///
  /// Not re-entrant: the split index and sub-batch storage live in
  /// session scratch (reused across calls, and referenced by in-flight
  /// executor tasks until the join) — a session is a single-owner handle,
  /// so a second execute_batch on the same session before the first
  /// returned would silently corrupt both. Debug builds assert.
  void execute_batch(std::span<const BatchRequest> reqs,
                     std::span<bool> results_out) {
    PC_ASSERT(results_out.size() >= reqs.size(),
              "execute_batch result span too small");
    PC_DASSERT(!in_batch_,
               "Session::execute_batch re-entered; sessions are single-owner "
               "and their batch scratch is not re-entrant");
    in_batch_ = true;
    // Scope guard, not a trailing store: an exception mid-batch (e.g. a
    // scratch vector's bad_alloc) must not leave the session permanently
    // "in batch" and turn every later call into a phantom re-entry abort.
    struct BatchScope {
      bool* flag;
      ~BatchScope() { *flag = false; }
    } scope{&in_batch_};
    if (map_->sketch_enabled()) {
      for (const BatchRequest& r : reqs) record_key(r.key);
    }
    // One coherent epoch for the whole batch (the mark is held through
    // the join, so an in-flight async scatter drains any topology flip
    // behind it).
    const Epoch* e = epoch_enter(
        reqs.begin(), reqs.end(),
        [](const BatchRequest& r) -> const Key& { return r.key; });
    const EpochExit escope{this};
    if (map_->shard_count() == 1) {
      // One shard: the client batch is shard 0's task as it stands — no
      // split, no scatter — on the lane or on this thread.
      run_shard_tasks(
          *map_, std::span<Ctx>(ctxs_), scratch_,
          [&](std::size_t) { return !reqs.empty(); },
          [&](std::size_t) {
            Task task;
            task.reqs = reqs;
            task.results = results_out.data();
            return task;
          });
      return;
    }
    split_batch(e, reqs);
    run_split_tasks([&](std::size_t s) {
      Task task;
      task.reqs = std::span<const BatchRequest>(sub_reqs_by_shard_[s]);
      task.scatter = split_[s].data();
      task.results = results_out.data();
      return task;
    });
  }

  /// Single-writer bulk load of strictly increasing (key, value) pairs:
  /// partitions the run into per-shard slices (each still sorted) and
  /// seeds every non-empty shard in one install — all shards in parallel
  /// when an executor is attached.
  template <class It>
  void seed_sorted(It first, It last) {
    const Epoch* e = epoch_enter(
        first, last, [](const auto& item) -> const Key& { return item.first; });
    const EpochExit escope{this};
    std::vector<typename ShardExecutor<Uc>::SeedItems> parts(
        map_->shard_count());
    for (It it = first; it != last; ++it) {
      parts[e->router(it->first, map_->shard_count())].push_back(*it);
    }
    // parts is local; run_shard_tasks joins before returning.
    run_shard_tasks(
        *map_, std::span<Ctx>(ctxs_), scratch_,
        [&](std::size_t s) { return !parts[s].empty(); },
        [&](std::size_t s) {
          Task task;
          task.seed = &parts[s];
          return task;
        });
  }

  // ----- stats -----

  const core::OpStats& shard_stats(std::size_t s) const {
    return ctxs_[s].stats;
  }

  /// Whole-store roll-up of this session's counters.
  core::OpStats stats() const {
    core::OpStats total;
    for (const Ctx& ctx : ctxs_) total += ctx.stats;
    return total;
  }

  /// Folds this session into a cross-thread accumulator (anything with
  /// add(shard, OpStats) — see store/shard_stats.hpp).
  template <class Board>
  void fold_into(Board& board) const {
    for (std::size_t s = 0; s < ctxs_.size(); ++s) {
      board.add(s, ctxs_[s].stats);
    }
  }

 private:
  using Task = typename ShardExecutor<Uc>::Task;

  static constexpr core::KeyLess<Structure> key_less{};

  /// The tablet table of the settled epoch a cut was taken under (its
  /// epoch token is that epoch). Never map_->router(): a flip after the
  /// cut may already have replaced the current one.
  static const RouterT& cut_router(const ConsistentCut<Uc>& cut) {
    return static_cast<const Epoch*>(cut.epoch_token())->router;
  }

  // ----- routing-epoch protocol (session side; see router_epoch.hpp) ---

  /// Announces the current epoch in this session's mark slot and
  /// confirms the pointer did not move across the announce (the Dekker
  /// handshake begin_epoch's drain pairs with). The mark stays published
  /// until epoch_exit().
  const Epoch* epoch_announce() {
    for (;;) {
      const Epoch* e = map_->epoch_.load(std::memory_order_acquire);
      EpochMarkRegistry::announce(mark_slot_, e->seq);
      if (map_->epoch_.load(std::memory_order_seq_cst) == e) return e;
      // The epoch moved under the announce; the mark may name a stale
      // epoch — re-announce against the new one.
    }
  }

  void epoch_exit() { EpochMarkRegistry::clear(mark_slot_); }

  struct EpochExit {
    Session* sess;
    ~EpochExit() { sess->epoch_exit(); }
  };

  /// One parked wait: a few polite yields, then short sleeps — parked
  /// ops must not starve the very migration they are waiting on (on a
  /// core-constrained host a spin loop would).
  static void gate_backoff(unsigned& spins) {
    // Parked-op release point: under the model checker this is where a
    // gated op waits for the migration's ready/settle stores.
    PC_YIELD("gate.park");
    if (spins++ < 8) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Enters an epoch under which every key in [first, last) routes
  /// stably (a point op passes the one-key range &key, &key + 1), so one
  /// call splits under one topology with every destination already
  /// holding its data. A key routes stably when the epoch is settled,
  /// the key did not move at the flip, or its new owner has installed
  /// its incoming slice at least through the key (the per-destination
  /// ready bit or watermark — the stale source copy is unreachable
  /// because every post-drain op routes by the new bounds). A call with
  /// a mid-flip moving key parks here (mark cleared, so it never blocks
  /// the drain) until the migration lands that data. On a settled epoch
  /// this is one announce and one is_settled() load. `key_of` projects an
  /// element to its key.
  template <class It, class Proj = std::identity>
  const Epoch* epoch_enter(It first, It last, Proj key_of = {}) {
    const std::size_t shards = map_->shard_count();
    unsigned spins = 0;
    for (;;) {
      const Epoch* e = epoch_announce();
      if (e->is_settled()) return e;
      const Key* parked = nullptr;
      for (It it = first; it != last; ++it) {
        const Key& k = key_of(*it);
        if (e->moves(k, shards) &&
            !e->is_ready_for(e->router(k, shards), k, key_less)) {
          parked = &k;
          break;
        }
      }
      if (parked == nullptr) return e;
      epoch_exit();
      ++ctxs_[e->router(*parked, shards)].stats.epoch_retries;
      map_->parked_waits_.fetch_add(1, std::memory_order_relaxed);
      gate_backoff(spins);
    }
  }

  // ----- offered-load sketch feed -----

  /// Buffers one offered key; flushed into the map's KeySketch every
  /// kSketchFlush keys (and on session destruction), so the hot path
  /// never takes the sketch mutex.
  void record_key(const Key& key) {
    if (!map_->sketch_enabled()) return;
    sketch_buf_.push_back(key);
    if (sketch_buf_.size() >= kSketchFlush) flush_sketch();
  }

  void flush_sketch() {
    if (sketch_buf_.empty()) return;
    map_->sketch_.offer(std::span<const Key>(sketch_buf_));
    sketch_buf_.clear();
  }

  /// Routes client items [0, n) to their shards under `e`: split_[s]
  /// lists shard s's client indices in issue order. split_[s] doubles as
  /// the scatter map of shard s's task: its j-th item answers client item
  /// split_[s][j].
  template <class KeyOf>
  void split_by_shard(const Epoch* e, std::size_t n, KeyOf&& key_of) {
    for (auto& idx : split_) idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      split_[e->router(key_of(i), map_->shard_count())].push_back(i);
    }
  }

  /// Splits a client batch and materializes each shard's sub-batch in
  /// sub_reqs_by_shard_.
  void split_batch(const Epoch* e, std::span<const BatchRequest> reqs) {
    split_by_shard(e, reqs.size(),
                   [&](std::size_t i) -> const Key& { return reqs[i].key; });
    sub_reqs_by_shard_.resize(split_.size());
    for (std::size_t s = 0; s < split_.size(); ++s) {
      std::vector<BatchRequest>& sub = sub_reqs_by_shard_[s];
      sub.clear();
      for (const std::size_t i : split_[s]) sub.push_back(reqs[i]);
    }
  }

  /// Splits probe keys and materializes each shard's probe list in
  /// probe_keys_by_shard_. Probe lists must be strictly increasing, so
  /// each shard's indices are sorted by key and duplicates are dropped
  /// here and recorded in dup_fixups_ as (duplicate index, kept index)
  /// pairs to settle after the probes.
  void split_probe(const Epoch* e, std::span<const Key> keys) {
    split_by_shard(e, keys.size(),
                   [&](std::size_t i) -> const Key& { return keys[i]; });
    probe_keys_by_shard_.resize(split_.size());
    dup_fixups_.clear();
    for (std::size_t s = 0; s < split_.size(); ++s) {
      std::vector<std::size_t>& idx = split_[s];
      std::vector<Key>& probe = probe_keys_by_shard_[s];
      probe.clear();
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return key_less(keys[a], keys[b]);
      });
      std::size_t w = 0;
      for (std::size_t j = 0; j < idx.size(); ++j) {
        if (w > 0 && !key_less(keys[idx[w - 1]], keys[idx[j]])) {
          dup_fixups_.emplace_back(idx[j], idx[w - 1]);
        } else {
          idx[w++] = idx[j];
        }
      }
      idx.resize(w);
      for (const std::size_t i : idx) probe.push_back(keys[i]);
    }
  }

  /// Runs make_task(s) for every shard the last split gave work.
  template <class MakeTask>
  void run_split_tasks(MakeTask&& make_task) {
    run_shard_tasks(
        *map_, std::span<Ctx>(ctxs_), scratch_,
        [&](std::size_t s) { return !split_[s].empty(); },
        std::forward<MakeTask>(make_task));
  }

  /// Keys buffered per session before one locked flush into the sketch.
  static constexpr std::size_t kSketchFlush = 256;

  ShardedMap* map_;
  std::vector<Ctx> ctxs_;
  std::vector<unsigned> slots_;
  // This session's EpochMarkRegistry slot (stable address; returned to
  // the registry's free list on destruction).
  EpochMarkRegistry::Slot* mark_slot_ = nullptr;
  std::vector<Key> sketch_buf_;  // offered keys awaiting a sketch flush
  // Split scratch of execute_batch and multi_get, reused across calls
  // and referenced by in-flight executor tasks until their ticket joins —
  // which is why neither is re-entrant (in_batch_ asserts in debug
  // builds).
  std::vector<std::vector<std::size_t>> split_;
  std::vector<std::vector<BatchRequest>> sub_reqs_by_shard_;
  std::vector<std::vector<Key>> probe_keys_by_shard_;
  std::vector<std::pair<std::size_t, std::size_t>> dup_fixups_;
  typename ShardExecutor<Uc>::TaskScratch scratch_;
  bool in_batch_ = false;
  bool in_cut_ = false;
  // Consistent-cut scratch (pins dropped before read_cut returns; only
  // vector capacity persists between calls) — shared per session, hence
  // the read_cut re-entrancy assert.
  ConsistentCut<Uc> cut_scratch_;
};

}  // namespace pathcopy::store
