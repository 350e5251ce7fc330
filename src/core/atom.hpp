// Atom: the paper's universal construction.
//
// One Read/CAS register (Root_Ptr) holds the root of the current version
// of a persistent structure. Queries load the root under a reclaimer
// guard and run sequential code on the immutable snapshot. Updates
// path-copy a candidate version and try to swing the root with a single
// CAS, retrying from the new current version on failure (§2 of the
// paper). The construction is lock-free: a CAS failure implies some other
// update succeeded.
//
// The retry loop is exactly the code path whose cache behaviour the paper
// analyzes: a failed attempt leaves the search path resident in the
// retrying thread's cache, and because path copying shares everything off
// the copied path, the retry misses only on the ~2 nodes the winning
// update replaced (§3).
//
// Empty-version tokens: the register never holds nullptr. An empty
// version is represented by a tag-bit pointer (bit 0 set; every node
// allocation is 8-aligned) to an EmptyRootSentinel — the Atom's own
// member sentinel for the construction version, and a FRESH
// builder-allocated sentinel for every later erase-to-empty install.
// Structurally the version is still the empty structure
// (structural_root() strips the tag and yields nullptr); the point is
// the token: each transition to empty publishes a distinct address that
// is superseded and retired like any node when replaced, so
// `root_token() == pinned token` means "this exact version, pinned
// continuously" for empty versions by the same pinned-address-cannot-
// recycle argument as for non-empty ones. That makes consistent-cut
// validation (store/version_vector.hpp) exact on the token alone; the
// nullptr-empty representation it replaces was the one recyclable token,
// whose version-counter cross-check left a documented ABA residual
// (reproduced as a model-check regression in tests/test_model_check.cpp).
// The cost on the paper-baseline hot path is one test-and-mask per
// read/update (bench_table1/2/xeon5220 A/B'd within noise).
//
// LegacyNullEmptyRoot re-enables the old nullptr representation. It
// exists solely so the model-check regression can run the pre-fix
// protocol against the schedule that breaks it; nothing else should set
// it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>

#include "core/builder.hpp"
#include "core/thread_context.hpp"
#include "core/universal.hpp"
#include "util/align.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::core {

/// Outcome of Atom::update.
enum class UpdateResult : std::uint8_t {
  kInstalled,  // a new version was published
  kNoChange,   // the operation was a semantic no-op on the current version
};

/// The pointee of a tagged empty-version token. Carries no data — its
/// address is the token — but derives PNode so the builder can allocate,
/// supersede, and retire it through the normal bundle machinery.
struct alignas(8) EmptyRootSentinel : PNode {};

template <class DS, class Smr, class Alloc, bool LegacyNullEmptyRoot = false>
class Atom {
 public:
  using Node = typename DS::Node;
  using Ctx = ThreadContext<Smr, Alloc>;
  using RetireBackend = typename Alloc::RetireBackend;
  // Unified universal-construction vocabulary (core/universal.hpp). The
  // Key/Value aliases degrade to placeholders for non-map structures so
  // the surface below still declares; bodies instantiate only on use.
  using Structure = DS;
  using SmrType = Smr;
  using AllocType = Alloc;
  using Key = typename detail::KeyOf<DS>::type;
  using Value = typename detail::ValueOf<DS>::type;
  using OpKind = core::OpKind;
  using BatchRequest = core::BatchRequest<Key, Value>;
  using ReadOutcome = persist::ReadOutcome<Value>;

  static constexpr bool kNeverNullRoot = !LegacyNullEmptyRoot;

  /// True for the tagged form an empty version's token takes. Tokens are
  /// opaque to reclaimers and cut validation; only code that turns a
  /// token back into a structure needs this.
  static bool is_empty_token(const void* token) noexcept {
    return (reinterpret_cast<std::uintptr_t>(token) & 1u) != 0;
  }

  /// Maps a token (e.g. a pinned snapshot's root()) to the structural
  /// root it denotes: nullptr for empty-version tokens, the node pointer
  /// otherwise. DS::from_root takes this, never a raw token.
  static const void* structural_root(const void* token) noexcept {
    return is_empty_token(token) ? nullptr : token;
  }

  /// The retire backend is kept for teardown: the destructor frees the
  /// final version through it. It must outlive the Atom.
  Atom(Smr& smr, RetireBackend& backend) : smr_(&smr), backend_(&backend) {
    initial_empty_.pc_state_ = NodeState::kPublished;
  }

  /// Uniform-construction form (UniversalConstruction concept): grabs the
  /// retire backend from the allocator view, like CombiningAtom does. The
  /// constrained template keeps the overload out of play when Alloc *is*
  /// its own retire backend (MallocAlloc), where the primary constructor
  /// already accepts the allocator directly.
  template <class A>
    requires(std::same_as<A, Alloc> &&
             !std::same_as<Alloc, typename Alloc::RetireBackend>)
  Atom(Smr& smr, A& alloc) : Atom(smr, *alloc.retire_backend()) {}

  Atom(const Atom&) = delete;
  Atom& operator=(const Atom&) = delete;

  ~Atom() {
    const void* t = root_.load(std::memory_order_acquire);
    if (is_empty_token(t)) {
      const auto* s = untag_empty(t);
      if (s != &initial_empty_) {
        s->~EmptyRootSentinel();
        backend_->free_bytes(
            const_cast<EmptyRootSentinel*>(s),  // NOLINT: owner teardown
            sizeof(EmptyRootSentinel), alignof(EmptyRootSentinel));
      }
      return;
    }
    DS::destroy(static_cast<const Node*>(t), *backend_);
  }

  /// Runs f on an immutable snapshot of the current version. f must not
  /// retain references past its return (the guard ends with the call);
  /// use snapshot-capable reclaimers for long-lived views.
  template <class F>
  decltype(auto) read(Ctx& ctx, F&& f) const {
    ++ctx.stats.reads;
    auto guard = smr_->pin(ctx.smr_handle, root_, version_);
    return std::forward<F>(f)(DS::from_root(structural_root(guard.root())));
  }

  /// Applies f : (DS current, Builder&) -> DS candidate, retrying until a
  /// CAS installs the candidate. Returning a handle with the same root as
  /// the input signals a semantic no-op (e.g. inserting a present key) and
  /// skips the CAS entirely — the paper's "unsuccessful modification".
  template <class F>
  UpdateResult update(Ctx& ctx, F&& f) {
    Builder<Alloc> builder(*ctx.alloc);
    builder.set_recycling(ctx.recycle_fresh);
    RecycleScope<Alloc> recycle_scope(ctx.stats, builder);
    for (;;) {
      builder.reset();
      ++ctx.stats.attempts;
      auto guard = smr_->pin(ctx.smr_handle, root_, version_);
      const void* cur = guard.root();
      const void* cur_structural = structural_root(cur);
      DS next = f(DS::from_root(cur_structural), builder);
      const void* next_root = next.root_ptr();
      if (next_root == cur_structural) {
        builder.rollback();
        ++ctx.stats.noop_updates;
        return UpdateResult::kNoChange;
      }
      const void* install = next_root;
      if constexpr (kNeverNullRoot) {
        if (next_root == nullptr) {
          // Erase-to-empty: mint a fresh token. Reusing any fixed
          // address (the member sentinel, say) would recreate the exact
          // token recycling this representation exists to kill.
          install = tag_empty(builder.template create<EmptyRootSentinel>());
        }
        if (is_empty_token(cur)) {
          const EmptyRootSentinel* old = untag_empty(cur);
          // The construction sentinel is a member, not a heap node; it
          // simply becomes unreachable (and dies with the Atom).
          if (old != &initial_empty_) builder.supersede(old);
        }
      }
      if (try_install(ctx, *smr_, builder, root_, version_, cur, install)) {
        return UpdateResult::kInstalled;
      }
      // Loop: reread the (new) current version and rebuild. The nodes we
      // just recycled sit in the builder's bin, so the retry's create()
      // calls reuse the same still-cache-hot blocks instead of paying
      // another O(log n) trip through the allocator.
    }
  }

  /// Current version counter (1 on construction, +1 per installed update).
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Opaque identity of the current root. Changes on every install —
  /// including installs of empty versions, whose tokens are distinct
  /// tagged sentinel addresses; while a VersionedView pins a root, that
  /// root's address cannot be recycled, so comparing its token against
  /// this probe is an ABA-free "did the shard move?" check for every
  /// version (see the concept note in core/universal.hpp).
  const void* root_token() const noexcept {
    return root_.load(std::memory_order_acquire);
  }

  /// A pinned snapshot bundled with its version label and root token
  /// (the shared shape in core/universal.hpp).
  using VersionedView = core::VersionedView<Smr, DS>;

  /// Pins the current version and returns it with its version label. The
  /// plain Atom bumps the counter *after* the root CAS (the watermark
  /// reclaimer's pin-then-load protocol depends on the counter trailing
  /// the root), so the label read here can lag installs whose bump is
  /// still in flight; it is a lower bound that is exact whenever the
  /// shard is settled. Cut validation therefore keys on the token, which
  /// is exact unconditionally.
  ///
  /// The label is read BEFORE the pin on purpose: a counter value read
  /// before the pin cannot exceed the pinned root's version (the counter
  /// trails the root at all times), which is what makes it a true lower
  /// bound — read after the pin it could absorb bumps of installs newer
  /// than the pinned snapshot and over-report.
  VersionedView pin_versioned(Ctx& ctx) const {
    ++ctx.stats.reads;
    const std::uint64_t v = version_.load(std::memory_order_seq_cst);
    auto guard = smr_->pin(ctx.smr_handle, root_, version_);
    const void* r = guard.root();
    return VersionedView{std::move(guard), DS::from_root(structural_root(r)),
                         v, r};
  }

  /// Resolves a key-sorted, key-unique probe batch against ONE pinned
  /// snapshot: pin once, run the structure's descent-sharing sweep (or the
  /// per-key fallback — see core/universal.hpp), drop the guard. out[i]
  /// answers keys[i]. No combiner, no version bump, no CAS, and no
  /// allocation — the read-side mirror of execute_batch, except reads need
  /// none of the install machinery. The yield between pin and sweep is
  /// the model checker's window for racing an install against the probe:
  /// the sweep must keep answering from the root pinned above.
  persist::ReadProbeStats multi_get(Ctx& ctx, std::span<const Key> keys,
                                    std::span<ReadOutcome> out) const {
    PC_ASSERT(out.size() >= keys.size(), "multi_get outcome span too small");
    if (keys.empty()) return {};
    VersionedView view = pin_versioned(ctx);
    PC_YIELD("atom.mget.sweep");
    return core::detail::resolve_sorted_probe<DS, Key, Value>(
        view.snapshot, keys, out, ctx.stats);
  }

  /// Size of the current version, read from its root under a pin: one
  /// read(), so it is linearizable like any other read.
  std::size_t size(Ctx& ctx) const {
    return read(ctx, [](DS snapshot) { return snapshot.size(); });
  }

  /// For reclaimers supporting long-lived snapshots (WatermarkReclaimer).
  /// The returned snapshot's root() is a TOKEN — pass it through
  /// structural_root() before DS::from_root.
  template <class S = Smr>
  auto snapshot() const -> decltype(std::declval<S&>().pin_snapshot(
      std::declval<const std::atomic<const void*>&>(),
      std::declval<const std::atomic<std::uint64_t>&>())) {
    return smr_->pin_snapshot(root_, version_);
  }

  Smr& reclaimer() noexcept { return *smr_; }

  // ----- unified universal-construction surface (core/universal.hpp) -----

  /// The plain Atom has no announcement slots; register_slot exists so
  /// store-layer code can treat both backends uniformly. The returned slot
  /// is accepted — and ignored — by insert/erase.
  unsigned register_slot() noexcept { return 0; }

  /// Returns true iff the key was newly inserted (reified counterpart of
  /// update-with-a-lambda; the slot is unused here).
  bool insert(Ctx& ctx, unsigned /*slot*/, const Key& key, const Value& value) {
    return update(ctx, [&](DS cur, Builder<Alloc>& b) {
             return cur.insert(b, key, value);
           }) == UpdateResult::kInstalled;
  }

  /// Returns true iff the key was present and removed.
  bool erase(Ctx& ctx, unsigned /*slot*/, const Key& key) {
    return update(ctx, [&](DS cur, Builder<Alloc>& b) {
             return cur.erase(b, key);
           }) == UpdateResult::kInstalled;
  }

  /// Span-based batch ingest, aligned with CombiningAtom::execute_batch.
  /// The single-CAS Atom has no shared install path to amortize, so this
  /// degrades to the per-op retry loop — one CAS per landing op — which is
  /// exactly the baseline the combining backend's batching is measured
  /// against. Results land in `results_out` aligned with `reqs`.
  void execute_batch(Ctx& ctx, std::span<const BatchRequest> reqs,
                     std::span<bool> results_out) {
    PC_ASSERT(results_out.size() >= reqs.size(),
              "execute_batch result span too small");
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const BatchRequest& r = reqs[i];
      PC_DASSERT(r.kind == OpKind::kErase || r.value.has_value(),
                 "insert request without a value");
      results_out[i] = r.kind == OpKind::kInsert
                           ? insert(ctx, 0, r.key, *r.value)
                           : erase(ctx, 0, r.key);
    }
  }

  /// Single-writer bulk load of [first, last) (strictly increasing keys)
  /// as one installed version — pre-fill, not for concurrent use.
  template <class It>
    requires requires(Builder<Alloc>& b, It f, It l) {
      DS::from_sorted(b, f, l);
    }
  void seed_sorted(Ctx& ctx, It first, It last) {
    update(ctx, [&](DS cur, Builder<Alloc>& b) {
      PC_ASSERT(cur.root_ptr() == nullptr,
                "seed_sorted requires an empty structure");
      return DS::from_sorted(b, first, last);
    });
  }

 private:
  static const void* tag_empty(const EmptyRootSentinel* s) noexcept {
    return reinterpret_cast<const void*>(reinterpret_cast<std::uintptr_t>(s) |
                                         1u);
  }
  static const EmptyRootSentinel* untag_empty(const void* token) noexcept {
    PC_DASSERT(is_empty_token(token), "untag of a structural root");
    return reinterpret_cast<const EmptyRootSentinel*>(
        reinterpret_cast<std::uintptr_t>(token) & ~std::uintptr_t{1});
  }

  // Declared before root_: its address seeds root_'s initializer.
  EmptyRootSentinel initial_empty_;
  alignas(util::kCacheLine) std::atomic<const void*> root_{
      kNeverNullRoot ? tag_empty(&initial_empty_) : nullptr};
  alignas(util::kCacheLine) std::atomic<std::uint64_t> version_{1};
  Smr* smr_;
  RetireBackend* backend_;
};

}  // namespace pathcopy::core
