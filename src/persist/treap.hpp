// Persistent treap (Seidel & Aragon randomized search tree).
//
// The structure the paper evaluates. A treap is a binary search tree on
// keys that is simultaneously a max-heap on per-key priorities; with
// random priorities its height is O(log N) w.h.p. Priorities here are a
// splitmix64 hash of the key, which makes the tree shape a pure function
// of the key *set* — independent of operation order. That canonical-form
// property is exploited heavily by the tests (two histories with the same
// final set must produce structurally identical trees).
//
// All nodes are immutable. A Treap value is a root pointer; updates take a
// core::Builder, path-copy via split/merge, and return the handle of the
// new version, leaving *this valid and unchanged. Nodes are
// size-augmented, giving O(log N) rank/select and O(1) size().
//
// This file owns what is treap-specific: the priorities, split/merge and
// the single-pass insert/erase built on them, and the priority-driven
// batch sweep. Every read — lookups, rank/select, range visits, batched
// probes, scans, sharing and teardown — is the shared binary-tree core
// (persist/binary_tree.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "persist/batch.hpp"
#include "persist/binary_tree.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"

namespace pathcopy::persist {

template <class K, class V>
struct TreapNode : core::PNode {
  K key;
  V value;
  std::uint64_t prio;
  std::uint64_t size;  // nodes in this subtree, including this one
  const TreapNode* left;
  const TreapNode* right;

  TreapNode(const K& k, const V& v, std::uint64_t p, const TreapNode* l,
            const TreapNode* r)
      : key(k), value(v), prio(p),
        size(1 + detail::size_of(l) + detail::size_of(r)), left(l),
        right(r) {}
};

template <class K, class V, class Cmp = std::less<K>>
class Treap
    : public BinaryTree<Treap<K, V, Cmp>, TreapNode<K, V>, K, V, Cmp> {
  using Base = BinaryTree<Treap, TreapNode<K, V>, K, V, Cmp>;

 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using BatchOutcome = persist::BatchOutcome;
  using ReadOutcome = persist::ReadOutcome<V>;
  using Node = TreapNode<K, V>;

  /// Deterministic priority: the tree shape depends only on the key set.
  static std::uint64_t priority_of(const K& key) {
    return util::mix64(static_cast<std::uint64_t>(std::hash<K>{}(key)));
  }

  // ----- updates (path copying; *this is unchanged) -----

  /// Set-style insert: if the key is present the same version is returned
  /// (root pointer unchanged — the UC will skip its CAS). Single pass: the
  /// presence check rides the same descent that finds the insertion point,
  /// and no node is copied until the key is known to be absent.
  template <class B>
  Treap insert(B& b, const K& key, const V& value) const {
    bool inserted = false;
    const Node* nr =
        insert_rec(b, root_, key, value, priority_of(key), inserted);
    return inserted ? with_root(nr) : *this;
  }

  /// Map-style insert: overwrites the value when the key is present
  /// (always produces a new version in that case).
  template <class B>
  Treap insert_or_assign(B& b, const K& key, const V& value) const {
    if (this->contains(key)) {
      return with_root(assign_rec(b, root_, key, value));
    }
    return insert(b, key, value);
  }

  /// Removes the key; same-version no-op when absent. Single pass, with a
  /// priority cutoff: a subtree whose root priority is below the key's
  /// hash priority cannot contain the key, so absent keys turn around
  /// without reaching a leaf and nothing is copied.
  template <class B>
  Treap erase(B& b, const K& key) const {
    bool erased = false;
    const Node* nr = erase_rec(b, root_, key, priority_of(key), erased);
    return erased ? with_root(nr) : *this;
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs.
  /// Produces the same canonical shape as repeated insertion.
  template <class B, class It>
  static Treap from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    const std::size_t n = items.size();
    if (n == 0) return Treap{};
    check_sorted_items<Cmp>(items);
    // Cartesian-tree construction over the rightmost spine, on index
    // scaffolding first (nodes are immutable, so links are resolved
    // bottom-up in a second pass).
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::uint64_t> prio(n);
    std::vector<std::size_t> left(n, kNone), right(n, kNone), spine;
    for (std::size_t i = 0; i < n; ++i) prio[i] = priority_of(items[i].first);
    const std::size_t root_idx = cartesian_scaffold(
        n, [&](std::size_t i) { return prio[i]; }, left, right, spine);
    return with_root(build_rec(b, items, prio, left, right, root_idx));
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Equivalent to
  /// applying the ops one at a time in any order — the treap's canonical
  /// shape guarantees the same final tree — but the whole batch shares one
  /// copied spine: untouched subtrees are returned by pointer (zero
  /// copies), and each landing insert costs one split of an
  /// ever-shrinking subtree, for O(B + B·log(n/B)) fresh nodes whp
  /// instead of the O(B·log n) that B independent root-to-leaf copies
  /// would allocate. Ops must be strictly increasing by key (dedupe
  /// upstream; the combining UC collapses same-key chains to one
  /// effective op before calling this).
  template <class B>
  Treap apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                           std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return *this;
    check_sorted_batch<Cmp>(ops);
    util::SmallVec<std::uint64_t, detail::kInlineBatch> prio;
    prio.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      prio.push_back(priority_of(ops[i].key));
    }
    BatchCtx ctx{ops, outcomes, prio};
    return with_root(apply_batch_rec(b, root_, ctx, 0, ops.size()));
  }

  // ----- structural utilities -----

  /// Full invariant check: BST order, heap priorities, size augmentation,
  /// and published state on every node. O(n).
  bool check_invariants() const {
    return check_rec(root_, nullptr, nullptr, [](const Node* n) {
      return (n->left == nullptr || n->left->prio <= n->prio) &&
             (n->right == nullptr || n->right->prio <= n->prio);
    });
  }

 private:
  using Base::check_rec;
  using Base::root_;
  using Base::with_root;

  // Splits into ({< key}, {>= key}), path-copying the search path.
  template <class B>
  static std::pair<const Node*, const Node*> split_lt(B& b, const Node* n,
                                                      const K& key) {
    if (n == nullptr) return {nullptr, nullptr};
    Cmp cmp;
    if (cmp(n->key, key)) {
      auto [mid_lo, hi] = split_lt(b, n->right, key);
      b.supersede(n);
      const Node* copy =
          b.template create<Node>(n->key, n->value, n->prio, n->left, mid_lo);
      return {copy, hi};
    }
    auto [lo, mid_hi] = split_lt(b, n->left, key);
    b.supersede(n);
    const Node* copy =
        b.template create<Node>(n->key, n->value, n->prio, mid_hi, n->right);
    return {lo, copy};
  }

  template <class B>
  static const Node* merge_nodes(B& b, const Node* lo, const Node* hi) {
    if (lo == nullptr) return hi;
    if (hi == nullptr) return lo;
    if (lo->prio >= hi->prio) {
      const Node* new_right = merge_nodes(b, lo->right, hi);
      b.supersede(lo);
      return b.template create<Node>(lo->key, lo->value, lo->prio, lo->left,
                                     new_right);
    }
    const Node* new_left = merge_nodes(b, lo, hi->left);
    b.supersede(hi);
    return b.template create<Node>(hi->key, hi->value, hi->prio, new_left,
                                   hi->right);
  }

  // Single-pass insert. Descends while the subtree root outranks the new
  // key's priority, checking for the key on the way; the first node with a
  // strictly lower priority proves the key absent (its node would carry
  // exactly `prio`, and the max-heap order would force it at or above this
  // point), so only then does the split-and-link copying start. When the
  // key is found instead, the untouched subtree is returned and `inserted`
  // stays false — zero allocations for the no-op case.
  template <class B>
  static const Node* insert_rec(B& b, const Node* n, const K& key,
                                const V& value, std::uint64_t prio,
                                bool& inserted) {
    if (n == nullptr) {
      inserted = true;
      return b.template create<Node>(key, value, prio, nullptr, nullptr);
    }
    if (n->prio < prio) {
      inserted = true;
      auto [lo, hi] = split_lt(b, n, key);
      return b.template create<Node>(key, value, prio, lo, hi);
    }
    Cmp cmp;
    if (cmp(key, n->key)) {
      const Node* l = insert_rec(b, n->left, key, value, prio, inserted);
      if (!inserted) return n;
      b.supersede(n);
      return b.template create<Node>(n->key, n->value, n->prio, l, n->right);
    }
    if (cmp(n->key, key)) {
      const Node* r = insert_rec(b, n->right, key, value, prio, inserted);
      if (!inserted) return n;
      b.supersede(n);
      return b.template create<Node>(n->key, n->value, n->prio, n->left, r);
    }
    return n;  // present: same version, nothing copied
  }

  // Single-pass erase with the same priority cutoff: n->prio < prio means
  // the key cannot be in this subtree, so absent-key erases turn around
  // early and copy nothing.
  template <class B>
  static const Node* erase_rec(B& b, const Node* n, const K& key,
                               std::uint64_t prio, bool& erased) {
    if (n == nullptr || n->prio < prio) return n;
    Cmp cmp;
    if (cmp(key, n->key)) {
      const Node* l = erase_rec(b, n->left, key, prio, erased);
      if (!erased) return n;
      b.supersede(n);
      return b.template create<Node>(n->key, n->value, n->prio, l, n->right);
    }
    if (cmp(n->key, key)) {
      const Node* r = erase_rec(b, n->right, key, prio, erased);
      if (!erased) return n;
      b.supersede(n);
      return b.template create<Node>(n->key, n->value, n->prio, n->left, r);
    }
    erased = true;
    b.supersede(n);
    return merge_nodes(b, n->left, n->right);
  }

  struct BatchCtx {
    std::span<const BatchOp> ops;
    std::span<BatchOutcome> out;
    const util::SmallVec<std::uint64_t, detail::kInlineBatch>& prio;
  };

  // Core of apply_sorted_batch: applies ops[lo, hi) to subtree n. The
  // recursion mirrors treap union — whichever of (subtree root, highest-
  // priority batch op) outranks the other becomes the root of the result,
  // so the output is the canonical treap of the final key set.
  template <class B>
  static const Node* apply_batch_rec(B& b, const Node* n, BatchCtx& ctx,
                                     std::size_t lo, std::size_t hi) {
    if (lo == hi) return n;  // untouched subtree: shared, zero copies
    if (n == nullptr) return build_batch_inserts(b, ctx, lo, hi);
    // Argmax of op priority over [lo, hi). Linear scan: batch sizes are
    // small (≤ combiner slots) and the recursion splits the range, so the
    // expected total is O(B log B) comparisons — noise next to allocation.
    std::size_t m = lo;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (ctx.prio[i] > ctx.prio[m]) m = i;
    }
    Cmp cmp;
    if (n->prio >= ctx.prio[m]) {
      // n outranks every batched key: it stays the range's root. Partition
      // the ops around n->key (binary search — ops are sorted).
      std::size_t a = lo, z = hi;
      while (a < z) {
        const std::size_t mid = a + (z - a) / 2;
        if (cmp(ctx.ops[mid].key, n->key)) {
          a = mid + 1;
        } else {
          z = mid;
        }
      }
      const bool has_eq = a < hi && !cmp(n->key, ctx.ops[a].key);
      const Node* l = apply_batch_rec(b, n->left, ctx, lo, a);
      const Node* r =
          apply_batch_rec(b, n->right, ctx, has_eq ? a + 1 : a, hi);
      if (has_eq) {
        const BatchOp& op = ctx.ops[a];
        switch (op.kind) {
          case BatchOpKind::kErase:
            ctx.out[a] = BatchOutcome::kErased;
            b.supersede(n);
            return merge_nodes(b, l, r);
          case BatchOpKind::kAssign:
            ctx.out[a] = BatchOutcome::kAssigned;
            b.supersede(n);
            return b.template create<Node>(n->key, *op.value, n->prio, l, r);
          case BatchOpKind::kInsert:
            ctx.out[a] = BatchOutcome::kNoop;  // set-style: value kept
            break;
        }
      }
      if (l == n->left && r == n->right) return n;  // children untouched
      b.supersede(n);
      return b.template create<Node>(n->key, n->value, n->prio, l, r);
    }
    // The top-priority op outranks the whole subtree. Its key cannot be
    // present here (a node holding it would carry exactly ctx.prio[m] and
    // the heap order would place it at or above n).
    const BatchOp& op = ctx.ops[m];
    if (op.kind == BatchOpKind::kErase) {
      // Erase of an absent key: drop it and keep going with both halves.
      ctx.out[m] = BatchOutcome::kNoop;
      const Node* t = apply_batch_rec(b, n, ctx, lo, m);
      return apply_batch_rec(b, t, ctx, m + 1, hi);
    }
    // Landing insert/assign: one split of the (shrinking) subtree, and
    // the halves absorb the rest of the batch beneath the new root.
    auto [tl, th] = split_lt(b, n, op.key);
    ctx.out[m] = BatchOutcome::kInserted;
    return b.template create<Node>(op.key, *op.value, ctx.prio[m],
                                   apply_batch_rec(b, tl, ctx, lo, m),
                                   apply_batch_rec(b, th, ctx, m + 1, hi));
  }

  // Batch tail that ran off the tree: erases are no-ops, the surviving
  // inserts/assigns build their canonical subtree directly (same
  // cartesian-tree scaffolding as from_sorted).
  template <class B>
  static const Node* build_batch_inserts(B& b, BatchCtx& ctx, std::size_t lo,
                                         std::size_t hi) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    detail::BatchIndexVec land;  // ops that insert
    detail::split_landing_ops(ctx.ops, ctx.out, lo, hi,
                              [&](std::size_t i) { land.push_back(i); });
    if (land.empty()) return nullptr;
    const std::size_t n = land.size();
    detail::BatchIndexVec left(n, kNone), right(n, kNone), spine;
    const std::size_t root_idx = cartesian_scaffold(
        n, [&](std::size_t i) { return ctx.prio[land[i]]; }, left, right,
        spine);
    return build_batch_rec(b, ctx, land, left, right, root_idx);
  }

  // Monotonic-stack cartesian-tree scaffolding shared by from_sorted and
  // the batch-tail builder: fills left/right child indices for items
  // 0..n (keys already in order, priorities from prio_at) and returns
  // the root index. left/right must be pre-sized to n with kNone; spine
  // is caller-supplied scratch so each call site keeps its allocation
  // strategy.
  template <class PrioAt, class IndexVec>
  static std::size_t cartesian_scaffold(std::size_t n, PrioAt&& prio_at,
                                        IndexVec& left, IndexVec& right,
                                        IndexVec& spine) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t last_popped = kNone;
      while (!spine.empty() && prio_at(spine.back()) < prio_at(i)) {
        last_popped = spine.back();
        spine.pop_back();
      }
      left[i] = last_popped;
      if (!spine.empty()) right[spine.back()] = i;
      spine.push_back(i);
    }
    return spine.front();
  }

  template <class B>
  static const Node* build_batch_rec(B& b, const BatchCtx& ctx,
                                     const detail::BatchIndexVec& land,
                                     const detail::BatchIndexVec& left,
                                     const detail::BatchIndexVec& right,
                                     std::size_t i) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    const Node* l = left[i] == kNone
                        ? nullptr
                        : build_batch_rec(b, ctx, land, left, right, left[i]);
    const Node* r = right[i] == kNone
                        ? nullptr
                        : build_batch_rec(b, ctx, land, left, right, right[i]);
    const BatchOp& op = ctx.ops[land[i]];
    return b.template create<Node>(op.key, *op.value, ctx.prio[land[i]], l, r);
  }

  template <class B>
  static const Node* assign_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    PC_DASSERT(n != nullptr, "assign_rec past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return b.template create<Node>(n->key, n->value, n->prio,
                                     assign_rec(b, n->left, key, value),
                                     n->right);
    }
    if (cmp(n->key, key)) {
      return b.template create<Node>(n->key, n->value, n->prio, n->left,
                                     assign_rec(b, n->right, key, value));
    }
    return b.template create<Node>(n->key, value, n->prio, n->left, n->right);
  }

  template <class B>
  static const Node* build_rec(B& b, const std::vector<std::pair<K, V>>& items,
                               const std::vector<std::uint64_t>& prio,
                               const std::vector<std::size_t>& left,
                               const std::vector<std::size_t>& right,
                               std::size_t i) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    const Node* l =
        left[i] == kNone ? nullptr : build_rec(b, items, prio, left, right, left[i]);
    const Node* r = right[i] == kNone
                        ? nullptr
                        : build_rec(b, items, prio, left, right, right[i]);
    return b.template create<Node>(items[i].first, items[i].second, prio[i], l, r);
  }
};

}  // namespace pathcopy::persist
