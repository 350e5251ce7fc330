// UniversalConstruction: the one vocabulary every UC backend speaks.
//
// PR 1 left the repo with two universal constructions — the paper's
// single-CAS Atom and the PSim-style CombiningAtom — each exposing an
// ad-hoc surface. The store layer (src/store) multiplies UC instances
// behind one facade and must construct, drive, and account for them
// generically, so the surface is nailed down once here: a universal
// construction is anything that can
//
//   * be built from a reclaimer and an allocator view,
//   * register per-updater slots (a no-op for slotless backends),
//   * run reified map operations (insert/erase with per-op bool results),
//   * read immutable snapshots and probe size/version,
//   * serve *versioned* reads — pin_versioned hands back a snapshot
//     together with the version it belongs to (plus an opaque root
//     token), which is what lets the store layer compose per-shard
//     snapshots into one vector-clock-consistent cut,
//   * ingest a client-side batch through its install path
//     (execute_batch), and
//   * bulk-seed an empty structure from a sorted range (seed_sorted).
//
// Atom and CombiningAtom both model the concept; ShardedMap is written
// against it alone, which is what lets one bench harness sweep
// backend × shard-count × structure.
//
// Op reification (OpKind / BatchRequest) lives here rather than in
// combining.hpp because every batch-capable backend shares it: a request
// names the operation, the key, and an optional payload (erases carry
// none) — exactly the information a helping combiner or a shard router
// needs. The generic-lambda Atom::update stays backend-specific: a
// helping-based UC cannot execute an arbitrary closure from another
// thread's announcement, so the portable update vocabulary is the
// reified one.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "persist/batch.hpp"

namespace pathcopy::core {

/// The reified operations every UC backend understands.
enum class OpKind : std::uint8_t { kInsert, kErase };

/// One client-side operation for UC::execute_batch. The value is optional
/// so erase requests need no Value at all (Value need not be
/// default-constructible).
template <class K, class V>
struct BatchRequest {
  OpKind kind;
  K key;
  std::optional<V> value;  // engaged for inserts
};

/// The strict key order the store layer sorts, merges and routes by: the
/// structure's KeyCompare when it names one, else std::less. The session
/// splitter, the executor's lane merge and the rebalancer's planner each
/// hold one of these, so the three always agree.
template <class DS>
struct KeyLess {
  template <class K>
  bool operator()(const K& a, const K& b) const {
    if constexpr (requires { typename DS::KeyCompare; }) {
      return typename DS::KeyCompare{}(a, b);
    } else {
      return std::less<K>{}(a, b);
    }
  }
};

namespace detail {

/// Placeholders standing in for Key/Value when the wrapped structure is
/// not a map (e.g. a heap under an Atom): the unified surface still
/// *declares* cleanly — member bodies are only instantiated on use — and
/// the concept below rejects such backends via the KeyType check.
struct NoKey {};
struct NoValue {};

template <class DS, class = void>
struct KeyOf {
  using type = NoKey;
};
template <class DS>
struct KeyOf<DS, std::void_t<typename DS::KeyType>> {
  using type = typename DS::KeyType;
};

template <class DS, class = void>
struct ValueOf {
  using type = NoValue;
};
template <class DS>
struct ValueOf<DS, std::void_t<typename DS::ValueType>> {
  using type = typename DS::ValueType;
};

}  // namespace detail

/// The bundle pin_versioned hands back, shared by every backend: a held
/// reclaimer guard (keeps the whole pinned version alive), the snapshot
/// handle, the version label, and the opaque root token (see the concept
/// note below for the token/label contract). Move-only, because the
/// guard is.
template <class Smr, class DS>
struct VersionedView {
  using Guard = decltype(std::declval<Smr&>().pin(
      std::declval<typename Smr::ThreadHandle&>(),
      std::declval<const std::atomic<const void*>&>(),
      std::declval<const std::atomic<std::uint64_t>&>()));
  Guard guard;
  DS snapshot;
  std::uint64_t version;
  const void* token;
};

/// Structures whose snapshots can resolve a key-sorted, key-unique probe
/// batch in one descent-sharing sweep (the read-side mirror of
/// SupportsSortedBatch in core/combining.hpp). Detected structurally so a
/// new structure opts in just by providing the member — the UC's
/// multi_get falls back to per-key find() everywhere else.
template <class DS>
concept SupportsSortedReadBatch =
    requires(const DS ds, std::span<const typename DS::KeyType> keys,
             std::span<typename DS::ReadOutcome> out) {
      typename DS::ReadOutcome;
      {
        ds.get_sorted_batch(keys, out)
      } -> std::same_as<persist::ReadProbeStats>;
    };

/// Structures whose probe sweep can stop at its single-key tails and
/// park them in a caller's tail buffer (BinaryTree::park_sorted_batch),
/// so one flush descends the tails of several snapshots' sweeps together
/// — the store's calling-thread probe wave. Detected like
/// SupportsSortedReadBatch; the B+tree and the per-key fallback lack it
/// and sweep in place.
template <class DS>
concept SupportsParkedReadBatch =
    SupportsSortedReadBatch<DS> &&
    requires(const DS ds, std::span<const typename DS::KeyType> keys,
             std::span<typename DS::ReadOutcome> out,
             persist::ReadProbeStats& stats, typename DS::ProbeTails& tails) {
      ds.park_sorted_batch(keys, out, stats, tails);
      tails.flush();
    };

namespace detail {

/// One probe batch against one pinned snapshot, without the accounting.
/// Batch-capable structures get the descent-sharing sweep; everything
/// else degrades to per-key find() (probe stats stay zero — there is no
/// sharing to account for). Pure reads either way: no builder, no
/// allocation.
template <class DS, class K, class V>
persist::ReadProbeStats sweep_sorted_probe(
    const DS& snapshot, std::span<const K> keys,
    std::span<persist::ReadOutcome<V>> out) {
  if constexpr (SupportsSortedReadBatch<DS>) {
    return snapshot.get_sorted_batch(keys, out);
  } else {
    persist::check_sorted_keys<typename DS::KeyCompare, K>(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const V* v = snapshot.find(keys[i]);
      if (v != nullptr) out[i].value = *v;
    }
    return {};
  }
}

/// The OpStats accounting of one probe sweep over `keys` keys (at least
/// one), whose pin_versioned already counted one read. Shared by
/// resolve_sorted_probe and the store's probe wave, so a probe counts the
/// same whichever path runs it.
inline void count_sorted_probe(OpStats& stats, std::size_t keys,
                               const persist::ReadProbeStats& st) {
  stats.reads += keys - 1;
  stats.read_batches += 1;
  stats.batched_reads += keys;
  stats.read_batch_hist[OpStats::batch_bucket(keys)] += 1;
  stats.probe_nodes_visited += st.nodes_visited;
  stats.probe_nodes_saved += st.nodes_saved();
}

/// One probe batch against one pinned snapshot: the shared body of
/// Atom::multi_get and CombiningAtom::multi_get, including their OpStats
/// accounting. `keys` is non-empty, and the caller's pin_versioned
/// already counted one read.
template <class DS, class K, class V>
persist::ReadProbeStats resolve_sorted_probe(
    const DS& snapshot, std::span<const K> keys,
    std::span<persist::ReadOutcome<V>> out, OpStats& stats) {
  const persist::ReadProbeStats st =
      sweep_sorted_probe<DS, K, V>(snapshot, keys, out);
  count_sorted_probe(stats, keys.size(), st);
  return st;
}

/// Stand-in tail buffer for structures that sweep in place: nothing is
/// ever parked, so a flush has nothing to do.
struct NoProbeTails {
  void flush() noexcept {}
};

/// The tail buffer a probe wave over DS snapshots shares.
template <class DS>
struct ProbeTailsOf {
  using type = NoProbeTails;
};
template <SupportsParkedReadBatch DS>
struct ProbeTailsOf<DS> {
  using type = typename DS::ProbeTails;
};

/// One snapshot's step of a probe wave: a structure with the park step
/// runs its descent-sharing partition and parks its single-key tails in
/// `tails`, whose flush lands their answers and nodes; any other sweeps
/// in place. Either way `st` is final once `tails` is flushed, and keys,
/// out, st and the snapshot's pin must last until then.
template <class DS, class K, class V>
void sweep_or_park(const DS& snapshot, std::span<const K> keys,
                   std::span<persist::ReadOutcome<V>> out,
                   persist::ReadProbeStats& st,
                   typename ProbeTailsOf<DS>::type& tails) {
  if constexpr (SupportsParkedReadBatch<DS>) {
    snapshot.park_sorted_batch(keys, out, st, tails);
  } else {
    st = sweep_sorted_probe<DS, K, V>(snapshot, keys, out);
  }
}

}  // namespace detail

/// Reads a snapshot's size — a named functor because a concept cannot
/// portably spell "read() accepts any generic lambda"; one concrete,
/// representative reader is enough to pin the read() shape down.
struct SnapshotSizeProbe {
  template <class DS>
  std::size_t operator()(DS snapshot) const {
    return snapshot.size();
  }
};

/// The contract the store layer is written against. See the header
/// comment for the prose version.
///
/// The versioned-read surface deserves its own note. `pin_versioned`
/// returns a `VersionedView` — a held reclaimer guard plus the snapshot
/// handle, the version label, and an opaque `token` identifying the
/// pinned root record. Two guarantees every backend must provide:
///
///   * token identity *is* version identity: the token changes on every
///     installed version — including installs of EMPTY versions, which
///     must carry distinct never-republished tokens (the plain Atom tags
///     a fresh sentinel per erase-to-empty; the CombiningAtom's
///     VersionRec is never null) — and while a view holds its pin the
///     token cannot be recycled (the pinned record cannot be freed, so
///     its address cannot be reused) — comparing a held view's token
///     against `root_token()` is an ABA-free "did this shard move?"
///     probe, with no side-channel cross-checks needed;
///   * the version label is exact whenever the backend can bind it to the
///     root atomically (CombiningAtom rides it in the VersionRec), and
///     otherwise a lower bound that catches up once in-flight installs
///     publish their counter bump (the plain Atom, whose counter trails
///     the root CAS by design — the watermark reclaimer's invariant).
///
/// The store's consistent-cut protocol (store/version_vector.hpp) builds
/// only on the first guarantee; the label is the reported clock value.
template <class UC>
concept UniversalConstruction =
    requires {
      typename UC::Structure;
      typename UC::SmrType;
      typename UC::AllocType;
      typename UC::Ctx;
      typename UC::Key;
      typename UC::Value;
      typename UC::BatchRequest;
      typename UC::OpKind;
      typename UC::VersionedView;
      typename UC::ReadOutcome;
    } &&
    std::same_as<typename UC::Key, typename UC::Structure::KeyType> &&
    std::same_as<typename UC::Value, typename UC::Structure::ValueType> &&
    std::constructible_from<UC, typename UC::SmrType&,
                            typename UC::AllocType&> &&
    requires(UC uc, const UC cuc, typename UC::Ctx& ctx, unsigned slot,
             const typename UC::Key& key, const typename UC::Value& value,
             std::span<const typename UC::BatchRequest> reqs,
             std::span<bool> results,
             std::span<const typename UC::Key> probe_keys,
             std::span<typename UC::ReadOutcome> probe_out,
             typename std::vector<std::pair<typename UC::Key,
                                            typename UC::Value>>::const_iterator
                 it) {
      { uc.register_slot() } -> std::convertible_to<unsigned>;
      { uc.insert(ctx, slot, key, value) } -> std::same_as<bool>;
      { uc.erase(ctx, slot, key) } -> std::same_as<bool>;
      { cuc.read(ctx, SnapshotSizeProbe{}) } -> std::convertible_to<std::size_t>;
      { cuc.size(ctx) } -> std::convertible_to<std::size_t>;
      { cuc.version() } -> std::convertible_to<std::uint64_t>;
      { cuc.root_token() } -> std::convertible_to<const void*>;
      { cuc.pin_versioned(ctx) } -> std::same_as<typename UC::VersionedView>;
      {
        cuc.multi_get(ctx, probe_keys, probe_out)
      } -> std::same_as<persist::ReadProbeStats>;
      { uc.execute_batch(ctx, reqs, results) };
      { uc.seed_sorted(ctx, it, it) };
      { uc.reclaimer() } -> std::same_as<typename UC::SmrType&>;
    } &&
    requires(typename UC::VersionedView view) {
      { view.snapshot } -> std::convertible_to<typename UC::Structure>;
      { view.version } -> std::convertible_to<std::uint64_t>;
      { view.token } -> std::convertible_to<const void*>;
    };

}  // namespace pathcopy::core
