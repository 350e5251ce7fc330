// Vocabulary types for sorted batch application.
//
// A batch is a key-sorted, key-unique sequence of reified operations that
// a persistent structure applies in one path-copying sweep (one shared
// spine instead of one root-to-leaf copy per op). Structures that support
// it expose
//
//   DS apply_sorted_batch(Builder&, std::span<const BatchOp>,
//                         std::span<BatchOutcome>);
//
// and alias BatchOp/BatchOutcome as nested names, which is how the
// combining UC detects batch support without naming concrete structures.
//
// kAssign exists for the combiner's duplicate-key collapse: a chain of
// same-key announcements whose last erase is followed by an insert must
// leave the key present with that insert's value regardless of the prior
// state — insert-or-assign semantics, which plain set-style kInsert
// cannot express.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/small_vec.hpp"

namespace pathcopy::persist {

enum class BatchOpKind : std::uint8_t {
  kInsert,  // set-style: lands only when the key is absent
  kErase,   // removes the key when present
  kAssign,  // insert-or-assign: lands when absent, overwrites when present
};

/// Per-op report from apply_sorted_batch, aligned with the input span.
enum class BatchOutcome : std::uint8_t {
  kNoop,      // no structural change (insert on present / erase on absent)
  kInserted,  // key was absent and is now present
  kErased,    // key was present and is now absent
  kAssigned,  // key was present; value overwritten in place (kAssign only)
};

template <class K, class V>
struct BatchOp {
  BatchOpKind kind;
  K key;
  std::optional<V> value;  // engaged for kInsert/kAssign, ignored for kErase
};

/// Per-key report from get_sorted_batch, aligned with the probe span.
/// optional (not a value + flag pair) so V need not be default-constructible
/// for absent keys, mirroring BatchOp.
template <class V>
struct ReadOutcome {
  std::optional<V> value;  // engaged iff the key was present
  bool present() const noexcept { return value.has_value(); }
};

/// Descent-sharing accounting for a batched probe. per_key_nodes is the
/// exact node count B independent descents would have touched: a node lies
/// on key k's individual search path precisely when k falls inside that
/// node's partition range, so adding (hi - lo) at every visited node
/// reconstructs the per-key counterfactual without running it (absent keys
/// included — both walks stop at the same null frontier).
struct ReadProbeStats {
  std::size_t nodes_visited = 0;  // nodes the shared sweep touched
  std::size_t per_key_nodes = 0;  // nodes B per-key descents would touch

  std::size_t nodes_saved() const noexcept {
    return per_key_nodes - nodes_visited;
  }
  ReadProbeStats& operator+=(const ReadProbeStats& o) noexcept {
    nodes_visited += o.nodes_visited;
    per_key_nodes += o.per_key_nodes;
    return *this;
  }
};

// Shared precondition checks. Every structure's from_sorted and
// apply_sorted_batch take strictly increasing (hence unique) keys; the
// contract is enforced here, once, so changing it (message, assert
// level, tolerance) never needs a per-structure sweep.

template <class Cmp, class K, class V>
inline void check_sorted_items(const std::vector<std::pair<K, V>>& items) {
  Cmp cmp;
  for (std::size_t i = 1; i < items.size(); ++i) {
    PC_ASSERT(cmp(items[i - 1].first, items[i].first),
              "from_sorted requires strictly increasing keys");
  }
}

template <class Cmp, class K, class V>
inline void check_sorted_batch(std::span<const BatchOp<K, V>> ops) {
  Cmp cmp;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    PC_ASSERT(cmp(ops[i - 1].key, ops[i].key),
              "apply_sorted_batch requires strictly increasing keys");
  }
}

template <class Cmp, class K>
inline void check_sorted_keys(std::span<const K> keys) {
  Cmp cmp;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    PC_ASSERT(cmp(keys[i - 1], keys[i]),
              "get_sorted_batch requires strictly increasing keys");
  }
}

namespace detail {

/// Inline scratch capacity for batch application; combiner batches are
/// at most 2x the announcement-slot count, so this avoids per-install
/// heap traffic in the common case.
inline constexpr std::size_t kInlineBatch = 128;

/// Op indices of one batch (e.g. its landing ops), kept off the heap.
using BatchIndexVec = util::SmallVec<std::size_t, kInlineBatch>;

/// Batch tail that ran off the tree: no key of ops[lo, hi) is present,
/// so every erase is a no-op and every insert/assign lands. Records those
/// outcomes and calls land(i) for each landing op in key order; the
/// caller bulk-builds its subtree from them. Shared by every structure's
/// off-tree batch builder.
template <class K, class V, class F>
void split_landing_ops(std::span<const BatchOp<K, V>> ops,
                       std::span<BatchOutcome> out, std::size_t lo,
                       std::size_t hi, F&& land) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (ops[i].kind == BatchOpKind::kErase) {
      out[i] = BatchOutcome::kNoop;
    } else {
      out[i] = BatchOutcome::kInserted;
      land(i);
    }
  }
}

/// Tree-driven sorted-batch sweep shared by the comparison-balanced
/// binary trees (the rotation-balanced AVL and weight-balanced trees of
/// rotation_tree.hpp, and the red-black tree): ops[lo, hi) are
/// partitioned around each node's key with a binary search, untouched
/// ranges return their subtree by pointer (an all-noop batch allocates
/// nothing), and children reshaped by landing ops are relinked through
/// the structure's own join discipline. Policy supplies the pieces on
/// top of a binary node with key/value/left/right members:
///   using Node = ...; using KeyCompare = ...;
///   static const Node* join(B&, key, value, l, r);   // keyed relink
///   static const Node* join2(B&, l, r);              // key was erased
///   static const Node* build_inserts(B&, ops, out, lo, hi);  // off-tree tail
/// (The treap is not a client: its sweep is priority-driven, not
/// partition-driven, and the B-tree's works on piece runs.)
template <class Policy, class B, class K, class V>
const typename Policy::Node* apply_batch_rec(B& b,
                                             const typename Policy::Node* n,
                                             std::span<const BatchOp<K, V>> ops,
                                             std::span<BatchOutcome> out,
                                             std::size_t lo, std::size_t hi) {
  using Node = typename Policy::Node;
  if (lo == hi) return n;  // untouched subtree: shared, zero copies
  if (n == nullptr) return Policy::build_inserts(b, ops, out, lo, hi);
  typename Policy::KeyCompare cmp;
  std::size_t a = lo, z = hi;
  while (a < z) {
    const std::size_t mid = a + (z - a) / 2;
    if (cmp(ops[mid].key, n->key)) {
      a = mid + 1;
    } else {
      z = mid;
    }
  }
  const bool has_eq = a < hi && !cmp(n->key, ops[a].key);
  const Node* l = apply_batch_rec<Policy>(b, n->left, ops, out, lo, a);
  const Node* r =
      apply_batch_rec<Policy>(b, n->right, ops, out, has_eq ? a + 1 : a, hi);
  if (has_eq) {
    const BatchOp<K, V>& op = ops[a];
    switch (op.kind) {
      case BatchOpKind::kErase:
        out[a] = BatchOutcome::kErased;
        b.supersede(n);
        return Policy::join2(b, l, r);
      case BatchOpKind::kAssign:
        out[a] = BatchOutcome::kAssigned;
        b.supersede(n);
        return Policy::join(b, n->key, *op.value, l, r);
      case BatchOpKind::kInsert:
        out[a] = BatchOutcome::kNoop;  // set-style: value kept
        break;
    }
  }
  if (l == n->left && r == n->right) return n;  // children untouched
  b.supersede(n);
  return Policy::join(b, n->key, n->value, l, r);
}

/// Single-key tails of probe sweeps, descended in interleaved waves.
/// Once partitioning narrows a subrange to one key there is nothing left
/// to share — but the tails are independent descents, so instead of
/// walking them one at a time (serializing ~log n cache misses each) a
/// sweep parks them here and flush() advances up to kCap of them
/// round-robin, one level per turn, prefetching each next node before
/// moving on. By the time a descent comes around again its line is in
/// flight; a handful of misses overlap instead of queueing. Each tail
/// carries its own key, outcome slot and sweep stats, so one buffer can
/// hold the tails of several snapshots' sweeps (the store's calling-
/// thread probe wave parks every shard's tails in one). Accounting is
/// unchanged: every tail node is one visit and one per-key-counterfactual
/// node, so nodes_saved still reflects only genuinely shared prefixes.
/// A flush starts every parked tail together and advances each live one
/// once per pass, so a tail that retires on pass p visited p nodes; it
/// adds p to its stats then, and the passes keep no per-visit count.
template <class Cmp, class Node, class K, class V>
struct ProbeTails {
  static constexpr std::size_t kCap = 16;  // in-flight descents per wave
  struct Tail {
    const Node* node;
    const K* key;
    ReadOutcome<V>* out;
    ReadProbeStats* stats;
  };
  Tail tail[kCap];
  std::size_t count = 0;

  /// Parks the descent of `key` from `n`. key, out and stats must stay
  /// valid, and n's snapshot pinned, until the flush that retires it.
  void push(const Node* n, const K& key, ReadOutcome<V>& out,
            ReadProbeStats& stats) {
    if (count == kCap) flush();
    tail[count++] = Tail{n, &key, &out, &stats};
  }

  void flush() {
    Cmp cmp;
    std::size_t active = count;
    for (std::size_t pass = 1; active > 0; ++pass) {
      for (std::size_t i = 0; i < active;) {
        Tail& t = tail[i];
        const Node* n = t.node;
        const Node* next;
        if (cmp(*t.key, n->key)) {
          next = n->left;
        } else if (cmp(n->key, *t.key)) {
          next = n->right;
        } else {
          t.out->value = n->value;
          next = nullptr;
        }
        if (next == nullptr) {  // resolved (or ran off a leaf): retire
          t.stats->nodes_visited += pass;
          t.stats->per_key_nodes += pass;
          tail[i] = tail[--active];
        } else {
          __builtin_prefetch(next);
          t.node = next;
          ++i;  // move on; next's cache line fills while others advance
        }
      }
    }
    count = 0;
  }
};

/// Read-side twin of apply_batch_rec for the internal binary trees: the
/// body of BinaryTree::park_sorted_batch (binary_tree.hpp), so it serves
/// the treap, AVL, weight-balanced and red-black trees alike.
/// keys[lo, hi) are partitioned around each node's key with the same binary
/// search the write sweep uses, so a key-sorted probe batch shares its
/// descent prefix and resolves in O(B + log n) visited nodes instead of
/// O(B log n). Subranges that narrow to a single key leave the partition
/// and are parked in `tails` for interleaved prefetched descents (see
/// ProbeTails). Pure reads: no builder, no copies, no allocation.
template <class Cmp, class Node, class K, class V>
void read_batch_partition(const Node* n, std::span<const K> keys,
                          std::span<ReadOutcome<V>> out, std::size_t lo,
                          std::size_t hi, ReadProbeStats& stats,
                          ProbeTails<Cmp, Node, K, V>& tails) {
  if (lo == hi || n == nullptr) return;
  if (hi - lo == 1) {  // nothing left to share: park for interleaved descent
    tails.push(n, keys[lo], out[lo], stats);
    return;
  }
  stats.nodes_visited += 1;
  stats.per_key_nodes += hi - lo;  // every probe key's own descent is here
  Cmp cmp;
  std::size_t a = lo, z = hi;
  while (a < z) {
    const std::size_t mid = a + (z - a) / 2;
    if (cmp(keys[mid], n->key)) {
      a = mid + 1;
    } else {
      z = mid;
    }
  }
  const bool has_eq = a < hi && !cmp(n->key, keys[a]);
  if (has_eq) out[a].value = n->value;
  read_batch_partition<Cmp>(n->left, keys, out, lo, a, stats, tails);
  read_batch_partition<Cmp>(n->right, keys, out, has_eq ? a + 1 : a, hi, stats,
                            tails);
}

/// Bounded pruned in-order emit over [lo, hi) for the internal binary
/// trees: the body of BinaryTree::scan(lo, hi, limit, out).
/// Stops as soon as `remaining` hits zero, so a limit-k scan over a huge
/// range touches O(k + log n) nodes.
template <class Cmp, class Node, class K, class V>
void scan_range_rec(const Node* n, const K& lo, const K& hi,
                    std::size_t& remaining,
                    std::vector<std::pair<K, V>>& out) {
  if (n == nullptr || remaining == 0) return;
  Cmp cmp;
  if (!cmp(n->key, lo)) {  // n->key >= lo: left subtree can intersect
    scan_range_rec<Cmp>(n->left, lo, hi, remaining, out);
    if (remaining == 0) return;
    if (cmp(n->key, hi)) {  // n->key in [lo, hi)
      out.emplace_back(n->key, n->value);
      if (--remaining == 0) return;
    }
  }
  if (cmp(n->key, hi)) {  // n->key < hi: right subtree can intersect
    scan_range_rec<Cmp>(n->right, lo, hi, remaining, out);
  }
}

}  // namespace detail

}  // namespace pathcopy::persist
