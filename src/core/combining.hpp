// CombiningAtom: a wait-free combining universal construction in the
// style of Fatourou & Kallimanis's P-Sim (the "efficient UC for large
// objects" lineage the paper's introduction cites as [1]), specialized to
// path-copying structures.
//
// The plain Atom serializes one CAS per successful update; under
// contention each winner invalidates P-1 candidate versions. Combining
// amortizes that: every updater *announces* its operation in a per-thread
// slot, and whoever wins the root CAS applies *all* pending announced
// operations in one batch, so one CAS can complete up to P operations.
//
// What makes helping safe here is that responses travel with the version:
// the root pointer addresses a VersionRec holding the structure root plus
// per-slot (applied sequence number, result) arrays. Installing a version
// atomically publishes which announced operations it absorbed and their
// results — the classic double-apply race (combiner A installs op X, then
// combiner B, who gathered X before A's install, applies X again) is
// impossible because B built against the superseded VersionRec, so B's
// CAS must fail and its candidate is discarded.
//
// Operations are reified (insert/erase descriptors) rather than arbitrary
// lambdas: a helper must be able to execute your operation from the
// announcement alone. That is the standard price of helping-based UCs.
//
// Batches ride the same install: execute_batch is the one batch install
// loop, for a client batch, an executor lane's coalesced run of tickets
// and a migration chunk alike. It puts the whole request span into one
// install next to the gathered announcements; the install's stable key
// sort and same-key chain collapse turn them into one sorted sweep.
//
// Progress: wait-free for updates, with a small constant bound. The
// two-install lemma: any install whose gather began after my announce
// absorbs my operation (the gather scans every slot). An install that
// misses me must have gathered before my announce; the *next* winner
// pinned the version that install produced — i.e. after it — so its
// gather runs after my announce and absorbs me. Hence my operation is
// complete after at most two installs following the announce. My retry
// loop iterates only when my own CAS fails, which happens only because
// some install occurred; therefore the loop runs at most ~three times
// before the applied_seq check returns my published result. Each
// iteration is bounded work (one gather + one candidate build), so the
// step count is bounded — wait-freedom, not just lock-freedom, and
// population-oblivious at that.
//
// This is also the paper's most natural "what if we fixed the write
// bottleneck" extension: the combining ablation bench (E10) measures it
// against the plain Atom under the paper's workloads.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/node_base.hpp"
#include "core/thread_context.hpp"
#include "core/universal.hpp"
#include "util/align.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"
#include "util/racy_cell.hpp"
#include "util/small_vec.hpp"

namespace pathcopy::core {

/// Detects the sorted-batch bulk-update protocol (persist/batch.hpp): the
/// structure aliases BatchOp/BatchOutcome/KeyCompare and applies a
/// key-sorted, key-unique span in one sweep. Structures without it fall
/// back to per-op application inside the combiner.
template <class DS, class B>
concept SupportsSortedBatch =
    requires(const DS ds, B& b, std::span<const typename DS::BatchOp> ops,
             std::span<typename DS::BatchOutcome> outs,
             typename DS::KeyCompare cmp, typename DS::KeyType key) {
      { ds.apply_sorted_batch(b, ops, outs) } -> std::same_as<DS>;
      { cmp(key, key) } -> std::convertible_to<bool>;
    };

/// Detects wide-fanout structures that can price a batch before applying
/// it: kBatchFanout reports the node width, count_leaf_runs the number of
/// distinct leaves a key-sorted batch would touch. The combiner uses the
/// pair to skip the sorted sweep when a batch is unclustered — on a wide
/// leaf every landing op rewrites the whole leaf, so a batch that puts
/// ~one op per leaf pays full leaf-rewrite cost per op *plus* the
/// partition machinery, losing to the per-op loop (the btree8 uniform-key
/// regression measured in bench_batch_combining).
template <class DS>
concept ReportsBatchFanout =
    requires(const DS ds, std::span<const typename DS::BatchOp> ops,
             unsigned max_runs, std::size_t* ops_covered) {
      { DS::kBatchFanout } -> std::convertible_to<unsigned>;
      // The capped, coverage-reporting form is what the gate calls; a
      // structure modeling the concept must accept it (defaulted
      // arguments on the structure side are fine).
      { ds.count_leaf_runs(ops, max_runs, ops_covered) }
          -> std::convertible_to<unsigned>;
    };

template <class DS, class Smr, class Alloc, unsigned MaxThreads = 32>
class CombiningAtom {
 public:
  using Ctx = ThreadContext<Smr, Alloc>;
  using RetireBackend = typename Alloc::RetireBackend;
  // Unified universal-construction vocabulary (core/universal.hpp).
  using Structure = DS;
  using SmrType = Smr;
  using AllocType = Alloc;
  using Key = typename DS::KeyType;
  using Value = typename DS::ValueType;

  // Announcement payloads are read by combiners racing with the owner's
  // next announcement; the seq re-check discards any torn copy, but the
  // copy itself must therefore be harmless on garbage bytes — i.e.
  // trivially copyable. (std::optional<Value> of a trivially copyable
  // Value is itself trivially copyable, so the optional wrapper that
  // frees Value from default-constructibility keeps this property.)
  static_assert(std::is_trivially_copyable_v<Key>,
                "CombiningAtom keys must be trivially copyable");
  static_assert(std::is_trivially_copyable_v<Value>,
                "CombiningAtom values must be trivially copyable");

  using OpKind = core::OpKind;

  /// The unit the root pointer addresses: structure root + the response
  /// state of every announcement slot + the version this record was
  /// installed as. Immutable once published, like any path-copied node,
  /// and reclaimed through the same retire pipeline. Carrying the version
  /// in the record is what makes pin_versioned exactly atomic here: the
  /// one pointer load that pins the snapshot also pins its label.
  struct VersionRec : PNode {
    const void* ds_root;
    std::uint64_t version;
    std::array<std::uint64_t, MaxThreads> applied_seq;
    std::array<bool, MaxThreads> last_result;
    VersionRec(const void* root, std::uint64_t v,
               const std::array<std::uint64_t, MaxThreads>& seqs,
               const std::array<bool, MaxThreads>& results)
        : ds_root(root), version(v), applied_seq(seqs), last_result(results) {}
  };

  CombiningAtom(Smr& smr, Alloc& alloc)
      : smr_(&smr), backend_(alloc.retire_backend()) {
    void* raw = alloc.allocate(sizeof(VersionRec), alignof(VersionRec));
    auto* vr = ::new (raw)
        VersionRec(nullptr, 1, std::array<std::uint64_t, MaxThreads>{},
                   std::array<bool, MaxThreads>{});
    vr->pc_state_ = NodeState::kPublished;
    root_.store(vr, std::memory_order_release);
  }

  CombiningAtom(const CombiningAtom&) = delete;
  CombiningAtom& operator=(const CombiningAtom&) = delete;

  ~CombiningAtom() {
    const auto* vr =
        static_cast<const VersionRec*>(root_.load(std::memory_order_acquire));
    DS::destroy(static_cast<const typename DS::Node*>(vr->ds_root), *backend_);
    vr->~VersionRec();
    backend_->free_bytes(const_cast<VersionRec*>(vr), sizeof(VersionRec),
                         alignof(VersionRec));
  }

  /// Claims an announcement slot for the calling thread. Slots are never
  /// recycled; at most MaxThreads updaters may ever register.
  unsigned register_slot() {
    const unsigned s = next_slot_.fetch_add(1, std::memory_order_relaxed);
    PC_ASSERT(s < MaxThreads, "CombiningAtom slot capacity exhausted");
    return s;
  }

  /// Returns true iff the key was newly inserted.
  bool insert(Ctx& ctx, unsigned slot, const Key& key, const Value& value) {
    return run_op(ctx, slot, OpKind::kInsert, key,
                  std::optional<Value>(value));
  }

  /// Returns true iff the key was present and removed. Value need not be
  /// default-constructible: the announcement payload is an optional that
  /// simply stays empty for erases.
  bool erase(Ctx& ctx, unsigned slot, const Key& key) {
    return run_op(ctx, slot, OpKind::kErase, key, std::nullopt);
  }

  /// One client-side batched operation (see execute_batch).
  using BatchRequest = core::BatchRequest<Key, Value>;

  /// Per-key answer shape for multi_get (see core/universal.hpp).
  using ReadOutcome = persist::ReadOutcome<Value>;

  /// Applies a client-supplied op sequence through the combiner's install
  /// path — the one batch install loop. Each install absorbs a chunk of
  /// `reqs` plus any pending per-thread announcements (helping is
  /// preserved) in one CAS, using the sorted-batch sweep when the
  /// structure supports it: install() sorts, so `reqs` may come in any
  /// key order, duplicates included. The first chunk is the whole span
  /// (up to kBulkChunk requests); a lost CAS halves the next attempt,
  /// never below MaxThreads (a long build window keeps losing to per-op
  /// rivals, and a lost sweep is expensive to rebuild), and a win doubles
  /// it back. Results land in `results_out` aligned with `reqs`, with the
  /// same semantics as issuing the ops in order through insert()/erase().
  /// This is the ingest interface for callers that already hold a batch:
  /// a client batch, an executor lane's coalesced run of tickets, a
  /// migration chunk.
  void execute_batch(Ctx& ctx, std::span<const BatchRequest> reqs,
                     std::span<bool> results_out) {
    PC_ASSERT(results_out.size() >= reqs.size(),
              "execute_batch result span too small");
    BuilderT builder(*ctx.alloc);
    builder.set_recycling(ctx.recycle_fresh);
    RecycleScope<Alloc> recycle_scope(ctx.stats, builder);
    std::size_t chunk = kBulkChunk;
    for (std::size_t done = 0; done < reqs.size();) {
      const std::size_t n = std::min(chunk, reqs.size() - done);
      builder.reset();
      ++ctx.stats.attempts;
      auto guard = smr_->pin(ctx.smr_handle, root_, version_);
      const auto* vr = static_cast<const VersionRec*>(guard.root());
      if (install(ctx, builder, vr, reqs.subspan(done, n),
                  results_out.subspan(done, n)) == nullptr) {
        chunk = std::max<std::size_t>(n / 2, MaxThreads);
        continue;
      }
      done += n;
      chunk = std::min(chunk * 2, kBulkChunk);
    }
  }

  /// Forwards to execute_batch. Kept as a name because the store
  /// benchmark's traced wrappers (benchmark/src/timed.hpp) check for it.
  void execute_sorted(Ctx& ctx, std::span<const BatchRequest> reqs,
                      std::span<bool> results_out) {
    execute_batch(ctx, reqs, results_out);
  }

  /// Forwards to execute_batch, like execute_sorted.
  void ingest_sorted(Ctx& ctx, std::span<const BatchRequest> reqs,
                     std::span<bool> results_out) {
    execute_batch(ctx, reqs, results_out);
  }

  /// Disables/enables the sorted-batch fast path (per-op fallback). For
  /// A/B measurement; flip only between phases, not mid-contention.
  void set_batch_apply(bool on) noexcept {
    batch_apply_.store(on, std::memory_order_relaxed);
  }

  /// Opens a scheduling window (one yield) between announcing and
  /// gathering. On a machine with fewer cores than updater threads the
  /// natural window is a whole scheduling quantum — a thread finishes
  /// every op it starts before anyone else runs, so batches never form;
  /// the yield lets the other runnable updaters announce first and
  /// restores the batch sizes a real multicore would see.
  void set_gather_window(bool on) noexcept {
    gather_window_.store(on, std::memory_order_relaxed);
  }

  /// Single-writer bulk load of `items` (strictly increasing keys) as one
  /// installed version — bench pre-fill, not for concurrent use.
  template <class It>
  void seed_sorted(Ctx& ctx, It first, It last) {
    BuilderT builder(*ctx.alloc);
    builder.set_recycling(ctx.recycle_fresh);
    RecycleScope<Alloc> recycle_scope(ctx.stats, builder);
    for (;;) {
      builder.reset();
      ++ctx.stats.attempts;
      auto guard = smr_->pin(ctx.smr_handle, root_, version_);
      const auto* vr = static_cast<const VersionRec*>(guard.root());
      PC_ASSERT(vr->ds_root == nullptr,
                "seed_sorted requires an empty structure");
      DS next = DS::from_sorted(builder, first, last);
      if (publish(ctx, builder, vr, next.root_ptr(), vr->applied_seq,
                  vr->last_result) != nullptr) {
        return;
      }
    }
  }

  /// Runs f on an immutable snapshot of the current structure.
  template <class F>
  decltype(auto) read(Ctx& ctx, F&& f) const {
    ++ctx.stats.reads;
    auto guard = smr_->pin(ctx.smr_handle, root_, version_);
    const auto* vr = static_cast<const VersionRec*>(guard.root());
    return std::forward<F>(f)(DS::from_root(vr->ds_root));
  }

  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  std::size_t size(Ctx& ctx) const {
    return read(ctx, [](DS snapshot) { return snapshot.size(); });
  }

  /// Opaque identity of the current VersionRec (see core/universal.hpp):
  /// changes on every install, ABA-free against any held VersionedView.
  const void* root_token() const noexcept {
    return root_.load(std::memory_order_acquire);
  }

  /// A pinned snapshot bundled with its version label and root token
  /// (the shared shape in core/universal.hpp). Exactly atomic here: the
  /// label rides in the pinned VersionRec, so snapshot and label come
  /// from the same pointer load — and the token (the VersionRec) is
  /// never null, so cut validation needs no version cross-check.
  using VersionedView = core::VersionedView<Smr, DS>;

  VersionedView pin_versioned(Ctx& ctx) const {
    ++ctx.stats.reads;
    auto guard = smr_->pin(ctx.smr_handle, root_, version_);
    const auto* vr = static_cast<const VersionRec*>(guard.root());
    return VersionedView{std::move(guard), DS::from_root(vr->ds_root),
                         vr->version, vr};
  }

  /// Batched lookup against one pinned snapshot — same contract as
  /// Atom::multi_get: no combiner participation, no announcement, no
  /// version bump, no allocation; reads bypass the install machinery
  /// entirely and cost one pin for the whole batch.
  persist::ReadProbeStats multi_get(Ctx& ctx, std::span<const Key> keys,
                                    std::span<ReadOutcome> out) const {
    PC_ASSERT(out.size() >= keys.size(), "multi_get outcome span too small");
    if (keys.empty()) return {};
    VersionedView view = pin_versioned(ctx);
    PC_YIELD("combining.mget.sweep");
    return core::detail::resolve_sorted_probe<DS, Key, Value>(
        view.snapshot, keys, out, ctx.stats);
  }

  Smr& reclaimer() noexcept { return *smr_; }

 private:
  /// One announcement slot. The owner writes payload fields, then bumps
  /// seq with release; combiners read seq with acquire before the
  /// payload. A combiner can only observe a payload newer than the seq it
  /// read if the root already moved past its pinned version — in which
  /// case its CAS is doomed and the misread candidate is discarded.
  /// The value is optional so erase announcements need no Value at all
  /// (Value need not be default-constructible). Payload fields live in
  /// RacyCells (word-wise relaxed atomics) so the deliberate read/rewrite
  /// race stays defined behavior: torn copies are possible by design,
  /// undefined ones are not.
  struct alignas(util::kCacheLine) AnnounceSlot {
    std::atomic<std::uint64_t> seq{0};
    util::RacyCell<OpKind> kind;
    util::RacyCell<Key> key;
    util::RacyCell<std::optional<Value>> value;
  };

  /// One entry of an install: a stable copy of a pending announcement
  /// taken during the gather scan, so sorting/deduping works on data no
  /// owner can re-write, or a caller's request (slot == kRequestSlot).
  struct Gathered {
    unsigned slot;
    std::uint64_t seq;
    OpKind kind;
    Key key;
    std::optional<Value> value;
  };

  using BuilderT = Builder<Alloc>;
  static constexpr bool kHasBatchApply = SupportsSortedBatch<DS, BuilderT>;
  /// Sentinel slot id marking a Gathered entry as a caller's request; its
  /// seq field is then the request index, and its response goes to the
  /// caller's result span instead of the VersionRec arrays.
  static constexpr unsigned kRequestSlot = MaxThreads;
  /// Inline capacity of an install's entry list and scratch: every
  /// announcement slot plus MaxThreads requests, so run_op and short
  /// batches never touch the heap. A longer batch spills.
  static constexpr unsigned kMaxGather = 2 * MaxThreads;
  template <class T>
  using Scratch = util::SmallVec<T, kMaxGather>;
  /// Smallest gathered batch worth the sorted sweep: at B=2 the sort +
  /// chain-collapse bookkeeping costs more than the one or two shared
  /// spine levels save (measured in bench_batch_combining), so tiny
  /// batches take the per-op loop.
  static constexpr unsigned kMinBatchApply = 3;
  /// Fanout gate (ReportsBatchFanout structures only): structures at
  /// least this wide price each batch through count_leaf_runs, and the
  /// sweep runs only when on average kMinOpsPerLeaf ops share a touched
  /// leaf — below that, whole-leaf rewrites dominate and per-op wins.
  /// The probe samples at most kClusterProbes leaf descents per install
  /// (a descent is ~height cold cache misses; an exact count of an
  /// unclustered batch would cost a large slice of the loop it vetoes).
  static constexpr unsigned kWideFanout = 6;
  static constexpr unsigned kMinOpsPerLeaf = 2;
  static constexpr unsigned kClusterProbes = 4;
  /// Most requests one execute_batch install takes.
  static constexpr std::size_t kBulkChunk = std::size_t{1} << 16;

  bool run_op(Ctx& ctx, unsigned slot, OpKind kind, const Key& key,
              std::optional<Value> value) {
    AnnounceSlot& mine = slots_[slot];
    const std::uint64_t seq = mine.seq.load(std::memory_order_relaxed) + 1;
    mine.kind.store(kind);
    mine.key.store(key);
    mine.value.store(value);
    mine.seq.store(seq, std::memory_order_release);
    if (gather_window_.load(std::memory_order_relaxed)) {
      std::this_thread::yield();  // let other runnable updaters announce
    }

    BuilderT builder(*ctx.alloc);
    builder.set_recycling(ctx.recycle_fresh);
    RecycleScope<Alloc> recycle_scope(ctx.stats, builder);
    for (;;) {
      builder.reset();
      ++ctx.stats.attempts;
      auto guard = smr_->pin(ctx.smr_handle, root_, version_);
      const auto* vr = static_cast<const VersionRec*>(guard.root());
      if (vr->applied_seq[slot] >= seq) {
        // Another combiner already absorbed this announcement.
        builder.rollback();
        ++ctx.stats.helped_completions;
        return vr->last_result[slot];
      }
      const VersionRec* nvr = install(ctx, builder, vr, {}, {});
      if (nvr != nullptr) {
        PC_DASSERT(nvr->applied_seq[slot] >= seq,
                   "own announcement must be gathered");
        return nvr->last_result[slot];
      }
    }
  }

  /// Scans every announcement slot for pending (announced, not yet
  /// applied relative to vr) operations and appends them to `out` in
  /// ascending slot order. Torn payloads — an owner re-announcing while
  /// we read — are skipped: the owner can only have moved on because some
  /// install absorbed its previous op, so our CAS against vr is already
  /// doomed and any choice here is discarded.
  void gather_pending(const VersionRec* vr, Scratch<Gathered>& out) {
    const unsigned live = next_slot_.load(std::memory_order_acquire);
    for (unsigned i = 0; i < live && i < MaxThreads; ++i) {
      const std::uint64_t si = slots_[i].seq.load(std::memory_order_acquire);
      if (si <= vr->applied_seq[i]) continue;
      const Gathered e{i, si, slots_[i].kind.load(), slots_[i].key.load(),
                       slots_[i].value.load()};
      // The multi-word payload copy above can interleave with the owner
      // re-announcing; the seq re-read below is what rejects the torn
      // copy. This is the window the model checker explores.
      PC_YIELD("comb.gather");
      if (slots_[i].seq.load(std::memory_order_acquire) != si) {
        continue;  // re-announced mid-read; skip the torn payload
      }
      if (e.kind == OpKind::kInsert && !e.value.has_value()) {
        continue;  // torn read straddled a re-announce; CAS is doomed
      }
      out.push_back(e);
    }
  }

  /// The one combining install: builds a candidate on top of vr that
  /// absorbs every pending announcement (ascending slot order) and then
  /// `reqs` (span order; request i answers in results_out[i]), and
  /// commits it through try_install. The candidate takes the sorted
  /// sweep when the structure has one, batching is on, and the fanout
  /// gate accepts the collapsed batch: entries are key-sorted (stably, so
  /// each same-key chain keeps entry order), each chain collapses to the
  /// one effective op that leaves the structure as per-op application
  /// would, the batch goes through one shared spine, and every chained
  /// op's response is replayed from its key's pre-batch presence.
  /// Otherwise the per-op loop applies the entries in order. Returns the
  /// installed VersionRec, or nullptr after a lost CAS.
  const VersionRec* install(Ctx& ctx, BuilderT& builder, const VersionRec* vr,
                            std::span<const BatchRequest> reqs,
                            std::span<bool> results_out) {
    Scratch<Gathered> entries;
    gather_pending(vr, entries);
    entries.reserve(entries.size() + reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const BatchRequest& r = reqs[i];
      PC_DASSERT(r.kind == OpKind::kErase || r.value.has_value(),
                 "insert request without a value");
      entries.push_back(Gathered{kRequestSlot, i, r.kind, r.key, r.value});
    }
    const std::size_t g = entries.size();
    DS ds = DS::from_root(vr->ds_root);
    std::array<std::uint64_t, MaxThreads> applied = vr->applied_seq;
    std::array<bool, MaxThreads> results = vr->last_result;
    const std::uint64_t created_before = builder.created_count();
    std::uint64_t size_before = 0;
    std::uint64_t landed = 0;  // ops with a structural effect
    bool used_batch = false;
    if constexpr (kHasBatchApply) {
      if (g >= kMinBatchApply && batch_apply_.load(std::memory_order_relaxed)) {
        using BatchOp = typename DS::BatchOp;
        using BatchOutcome = typename DS::BatchOutcome;
        typename DS::KeyCompare cmp;
        Scratch<unsigned> order;
        order.reserve(g);
        for (std::size_t i = 0; i < g; ++i) {
          order.push_back(static_cast<unsigned>(i));
        }
        std::stable_sort(order.data(), order.data() + g,
                         [&](unsigned a, unsigned b) {
                           return cmp(entries[a].key, entries[b].key);
                         });
        Scratch<BatchOp> ops(g, BatchOp{});
        Scratch<unsigned> chain_begin(g, 0), chain_end(g, 0);
        const unsigned nb = collapse_chains(entries.data(), order.data(), g,
                                            ops.data(), chain_begin.data(),
                                            chain_end.data());
        const std::span<const BatchOp> batch(ops.data(), nb);
        if (batch_gate_declines(ds, batch)) {
          ++ctx.stats.batch_declines;
        } else {
          Scratch<BatchOutcome> outs(nb, BatchOutcome::kNoop);
          size_before = ds.size();
          ds = ds.apply_sorted_batch(builder, batch,
                                     std::span<BatchOutcome>(outs.data(), nb));
          replay_chains(entries.data(), order.data(), ops.data(), outs.data(),
                        nb, chain_begin.data(), chain_end.data(), applied,
                        results, results_out, landed);
          used_batch = true;
        }
      }
    }
    if (!used_batch) {
      // Per-op loop: one root-to-leaf path copy per entry, in entry order.
      for (std::size_t t = 0; t < g; ++t) {
        const Gathered& e = entries[t];
        DS next = e.kind == OpKind::kInsert
                      ? ds.insert(builder, e.key, *e.value)
                      : ds.erase(builder, e.key);
        emit_result(e, next.root_ptr() != ds.root_ptr(), applied, results,
                    results_out);
        ds = next;
      }
    }
    const std::uint64_t created_by_ops =
        builder.created_count() - created_before;
    const VersionRec* nvr =
        publish(ctx, builder, vr, ds.root_ptr(), applied, results);
    if (nvr == nullptr) return nullptr;
    ctx.stats.combined_ops += g;
    if (used_batch) {
      ctx.stats.batched_installs += 1;
      ctx.stats.batched_ops += g;
      ctx.stats.batch_hist[OpStats::batch_bucket(g)] += 1;
      // Spine-copy savings vs per-op application: the single-pass
      // insert/erase copies ~one root-to-leaf path (lg n nodes) per
      // *landing* op and nothing for no-ops, so that is the baseline;
      // clamped at zero so mis-estimates never wrap.
      const std::uint64_t height_est = std::bit_width(size_before + 1);
      const std::uint64_t per_op_est = landed * (height_est + 1);
      if (per_op_est > created_by_ops) {
        ctx.stats.spine_copies_saved += per_op_est - created_by_ops;
      }
    }
    return nvr;
  }

  /// Wraps a candidate structure root and its response arrays in the
  /// VersionRec that succeeds vr, and commits it through try_install.
  /// Returns the installed record, or nullptr after a lost CAS.
  const VersionRec* publish(
      Ctx& ctx, BuilderT& builder, const VersionRec* vr, const void* ds_root,
      const std::array<std::uint64_t, MaxThreads>& applied,
      const std::array<bool, MaxThreads>& results) {
    const VersionRec* nvr = builder.template create<VersionRec>(
        ds_root, vr->version + 1, applied, results);
    builder.supersede(vr);
    return try_install(ctx, *smr_, builder, root_, version_, vr, nvr)
               ? nvr
               : nullptr;
  }

  /// Routes one op's response: announcement slots publish through the
  /// VersionRec arrays, caller requests through the caller's span.
  static void emit_result(const Gathered& e, bool res,
                          std::array<std::uint64_t, MaxThreads>& applied,
                          std::array<bool, MaxThreads>& results,
                          std::span<bool> results_out) {
    if (e.slot == kRequestSlot) {
      results_out[e.seq] = res;
    } else {
      results[e.slot] = res;
      applied[e.slot] = e.seq;
    }
  }

  /// Chain collapse: given an install's entries and a key-sorted
  /// *stable* order[0, g), emits one effective BatchOp per distinct key
  /// plus the chain's [begin, end) range in `order`. A member template so
  /// it only instantiates when kHasBatchApply.
  template <class DS2 = DS>
  static unsigned collapse_chains(const Gathered* gathered,
                                  const unsigned* order, std::size_t g,
                                  typename DS2::BatchOp* ops,
                                  unsigned* chain_begin,
                                  unsigned* chain_end) {
    using BatchOpKind = typename DS2::BatchOpKind;
    typename DS2::KeyCompare cmp;
    unsigned nb = 0;
    for (std::size_t i = 0; i < g;) {
      std::size_t j = i + 1;
      while (j < g && !cmp(gathered[order[i]].key, gathered[order[j]].key)) {
        ++j;
      }
      // Effective op of the chain gathered[order[i..j)], gather order:
      //   * no erase            → the first insert (set-style) decides;
      //   * insert after the    → the key ends present with that insert's
      //     last erase            value whatever came before: kAssign;
      //   * erase last          → the key ends absent: kErase.
      std::size_t last_erase = j;  // "none"
      for (std::size_t t = i; t < j; ++t) {
        if (gathered[order[t]].kind == OpKind::kErase) last_erase = t;
      }
      typename DS2::BatchOp& op = ops[nb];
      op.key = gathered[order[i]].key;
      if (last_erase == j) {
        op.kind = BatchOpKind::kInsert;
        op.value = gathered[order[i]].value;
      } else {
        std::size_t reinsert = j;
        for (std::size_t t = last_erase + 1; t < j; ++t) {
          if (gathered[order[t]].kind == OpKind::kInsert) {
            reinsert = t;
            break;
          }
        }
        if (reinsert == j) {
          op.kind = BatchOpKind::kErase;
          op.value.reset();
        } else {
          op.kind = BatchOpKind::kAssign;
          op.value = gathered[order[reinsert]].value;
        }
      }
      chain_begin[nb] = static_cast<unsigned>(i);
      chain_end[nb] = static_cast<unsigned>(j);
      ++nb;
      i = j;
    }
    return nb;
  }

  /// Fanout gate (ReportsBatchFanout structures only): prices the
  /// collapsed batch before applying it — if fewer than kMinOpsPerLeaf
  /// ops share each touched leaf on average, the shared
  /// spine cannot pay for the per-leaf batch machinery (whole-leaf
  /// rewrites on a B-tree, join/recoloring cascades on a virtual-leaf
  /// structure) and the per-op loop is cheaper. The probe samples at
  /// most kClusterProbes leaf descents and extrapolates — read-only and
  /// far below either path it chooses between.
  template <class DS2 = DS>
  static bool batch_gate_declines(
      const DS2& ds, std::span<const typename DS2::BatchOp> ops) {
    if constexpr (ReportsBatchFanout<DS2>) {
      if constexpr (DS2::kBatchFanout >= kWideFanout) {
        std::size_t covered = 0;
        const unsigned runs = ds.count_leaf_runs(ops, kClusterProbes,
                                                 &covered);
        if (runs > 0 && covered < kMinOpsPerLeaf * runs) return true;
      }
    }
    return false;
  }

  /// Back-fills every chained op's response by replaying its chain
  /// against the key's pre-batch presence (recovered from the outcome of
  /// the one op that structurally ran).
  template <class DS2 = DS>
  static void replay_chains(const Gathered* gathered, const unsigned* order,
                            const typename DS2::BatchOp* ops,
                            const typename DS2::BatchOutcome* outs,
                            unsigned nb, const unsigned* chain_begin,
                            const unsigned* chain_end,
                            std::array<std::uint64_t, MaxThreads>& applied,
                            std::array<bool, MaxThreads>& results,
                            std::span<bool> results_out,
                            std::uint64_t& landed) {
    using BatchOpKind = typename DS2::BatchOpKind;
    using BatchOutcome = typename DS2::BatchOutcome;
    for (unsigned k = 0; k < nb; ++k) {
      bool present;
      switch (ops[k].kind) {
        case BatchOpKind::kInsert:
          present = outs[k] == BatchOutcome::kNoop;
          break;
        case BatchOpKind::kAssign:
          present = outs[k] == BatchOutcome::kAssigned;
          break;
        default:
          present = outs[k] == BatchOutcome::kErased;
          break;
      }
      for (unsigned t = chain_begin[k]; t < chain_end[k]; ++t) {
        const Gathered& e = gathered[order[t]];
        bool res;
        if (e.kind == OpKind::kInsert) {
          res = !present;
          present = true;
        } else {
          res = present;
          present = false;
        }
        if (res) ++landed;
        emit_result(e, res, applied, results, results_out);
      }
    }
  }

  alignas(util::kCacheLine) std::atomic<const void*> root_{nullptr};
  alignas(util::kCacheLine) std::atomic<std::uint64_t> version_{1};
  alignas(util::kCacheLine) std::atomic<unsigned> next_slot_{0};
  std::array<AnnounceSlot, MaxThreads> slots_{};
  std::atomic<bool> batch_apply_{true};
  std::atomic<bool> gather_window_{false};
  Smr* smr_;
  RetireBackend* backend_;
};

}  // namespace pathcopy::core
