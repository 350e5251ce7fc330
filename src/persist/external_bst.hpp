// Persistent external (leaf-oriented) binary search tree.
//
// This is the structure the paper's analytical model assumes (Appendix A):
// data lives only in leaves, internal nodes carry routing keys. An insert
// replaces one leaf with a router-plus-two-leaves triple and path-copies
// up to the root; an erase splices the sibling into the grandparent.
// There is no rebalancing — with uniformly random keys the expected
// height is O(log N), matching the model's assumption.
//
// Routing convention: an internal node's key equals the smallest key of
// its right subtree; searches go left on cmp(k, router) and right
// otherwise. Duplicate-key inserts and missing-key erases return the same
// version without allocating a single node.
//
// Supports the sorted-batch protocol (persist/batch.hpp): ops partition
// at each router (no balancing, so no join machinery at all) and every
// leaf absorbs its op run by rebuilding a balanced router-plus-leaves
// subtree over the survivors in place — untouched subtrees are shared by
// pointer, erased leaves splice their sibling up, and an all-noop batch
// returns the same root with zero allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "persist/batch.hpp"
#include "util/assert.hpp"

namespace pathcopy::persist {

template <class K, class V, class Cmp = std::less<K>>
class ExternalBst {
 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using BatchOutcome = persist::BatchOutcome;
  struct Node : core::PNode {
    K key;         // leaf: element key; internal: routing key
    V value;       // meaningful for leaves only
    std::uint64_t size;  // leaves in this subtree
    const Node* left;
    const Node* right;  // leaf iff both children are null

    // Leaf constructor.
    Node(const K& k, const V& v)
        : key(k), value(v), size(1), left(nullptr), right(nullptr) {}
    // Internal constructor.
    Node(const K& router, const Node* l, const Node* r)
        : key(router), value(), size(l->size + r->size), left(l), right(r) {}

    bool is_leaf() const noexcept { return left == nullptr; }
  };

  ExternalBst() noexcept = default;

  static ExternalBst from_root(const void* root) noexcept {
    return ExternalBst{static_cast<const Node*>(root)};
  }
  const void* root_ptr() const noexcept { return root_; }
  const Node* root_node() const noexcept { return root_; }

  std::size_t size() const noexcept { return root_ == nullptr ? 0 : root_->size; }
  bool empty() const noexcept { return root_ == nullptr; }

  // ----- queries -----

  const V* find(const K& key) const {
    const Node* leaf = locate(key);
    if (leaf != nullptr && equal(leaf->key, key)) return &leaf->value;
    return nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  const Node* min_leaf() const {
    const Node* n = root_;
    while (n != nullptr && !n->is_leaf()) n = n->left;
    return n;
  }

  const Node* max_leaf() const {
    const Node* n = root_;
    while (n != nullptr && !n->is_leaf()) n = n->right;
    return n;
  }

  /// Number of element keys strictly less than key.
  std::size_t rank(const K& key) const {
    std::size_t r = 0;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr && !n->is_leaf()) {
      if (cmp(key, n->key)) {
        n = n->left;
      } else {
        r += n->left->size;
        n = n->right;
      }
    }
    if (n != nullptr && cmp(n->key, key)) ++r;
    return r;
  }

  /// The i-th smallest leaf (0-based); nullptr when i >= size().
  const Node* kth(std::size_t i) const {
    if (root_ == nullptr || i >= root_->size) return nullptr;
    const Node* n = root_;
    while (!n->is_leaf()) {
      const std::size_t ls = n->left->size;
      if (i < ls) {
        n = n->left;
      } else {
        i -= ls;
        n = n->right;
      }
    }
    return n;
  }

  template <class F>
  void for_each(F&& f) const {
    for_each_rec(root_, f);
  }

  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  /// In-order visit restricted to [lo, hi), leaf-aware: an internal
  /// router splits the key space at n->key (left < router <= right), so a
  /// side is pruned exactly when the interval cannot cross it; elements
  /// live only at leaves, tested directly there. O(hits + log n).
  template <class F>
  void for_each_range(const K& lo, const K& hi, F&& f) const {
    for_each_range_rec(root_, lo, hi, f);
  }

  /// Bounded range scan; see BinaryTree::scan.
  std::size_t scan(const K& lo, const K& hi, std::size_t limit,
                   std::vector<std::pair<K, V>>& out) const {
    std::size_t remaining = limit;
    scan_range_rec(root_, lo, hi, remaining, out);
    return limit - remaining;
  }

  /// The root-to-leaf search path for key (model instrumentation).
  std::vector<const Node*> path_to(const K& key) const {
    std::vector<const Node*> path;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      path.push_back(n);
      if (n->is_leaf()) break;
      n = cmp(key, n->key) ? n->left : n->right;
    }
    return path;
  }

  // ----- updates -----

  template <class B>
  ExternalBst insert(B& b, const K& key, const V& value) const {
    if (root_ == nullptr) {
      return ExternalBst{b.template create<Node>(key, value)};
    }
    bool added = false;
    const Node* nr = insert_rec(b, root_, key, value, added);
    return added ? ExternalBst{nr} : *this;
  }

  template <class B>
  ExternalBst insert_or_assign(B& b, const K& key, const V& value) const {
    if (contains(key)) {
      return ExternalBst{assign_rec(b, root_, key, value)};
    }
    return insert(b, key, value);
  }

  template <class B>
  ExternalBst erase(B& b, const K& key) const {
    if (root_ == nullptr) return *this;
    if (root_->is_leaf()) {
      if (!equal(root_->key, key)) return *this;
      b.supersede(root_);
      return ExternalBst{};
    }
    bool removed = false;
    const Node* nr = erase_rec(b, root_, key, removed);
    return removed ? ExternalBst{nr} : *this;
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs:
  /// the midpoint build places every pair in a leaf and every router at
  /// the min key of its right subtree, giving the minimal-height external
  /// tree (2n - 1 nodes).
  template <class B, class It>
  static ExternalBst from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    check_sorted_items<Cmp>(items);
    if (items.empty()) return ExternalBst{};
    return ExternalBst{build_sorted_rec(b, items, 0, items.size())};
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Contents are
  /// exactly those of applying the ops one at a time; ops partition at
  /// routers, untouched subtrees are shared by pointer (an all-noop batch
  /// returns the same root with zero allocations), and each touched leaf
  /// is replaced by a balanced subtree over its surviving run.
  template <class B>
  ExternalBst apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                                 std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return *this;
    check_sorted_batch<Cmp>(ops);
    BatchCtx ctx{ops, outcomes};
    if (root_ == nullptr) {
      return ExternalBst{build_batch_inserts(b, ctx, 0, ops.size())};
    }
    return ExternalBst{apply_batch_rec(b, root_, ctx, 0, ops.size())};
  }

  // ----- structural utilities -----

  bool check_invariants() const {
    if (root_ == nullptr) return true;
    return check_rec(root_, nullptr, nullptr).ok;
  }

  std::size_t height() const { return height_rec(root_); }

  static std::size_t shared_nodes(const ExternalBst& a, const ExternalBst& b) {
    std::unordered_set<const Node*> seen;
    collect(a.root_, seen);
    std::size_t shared = 0;
    count_shared(b.root_, seen, shared);
    return shared;
  }

  template <class Backend>
  static void destroy(const Node* n, Backend& backend) {
    if (n == nullptr) return;
    destroy(n->left, backend);
    destroy(n->right, backend);
    n->~Node();
    backend.free_bytes(const_cast<Node*>(n), sizeof(Node), alignof(Node));
  }

 private:
  explicit ExternalBst(const Node* root) noexcept : root_(root) {}

  static bool equal(const K& a, const K& b) {
    Cmp cmp;
    return !cmp(a, b) && !cmp(b, a);
  }

  /// Descends to the leaf whose range covers key (nullptr on empty tree).
  const Node* locate(const K& key) const {
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr && !n->is_leaf()) {
      n = cmp(key, n->key) ? n->left : n->right;
    }
    return n;
  }

  template <class B>
  static const Node* insert_rec(B& b, const Node* n, const K& key,
                                const V& value, bool& added) {
    Cmp cmp;
    if (n->is_leaf()) {
      if (equal(n->key, key)) {
        added = false;
        return n;
      }
      added = true;
      const Node* fresh = b.template create<Node>(key, value);
      // Router = smaller of the two goes left; router key is the right
      // child's key (= min of right subtree).
      if (cmp(key, n->key)) {
        return b.template create<Node>(n->key, fresh, n);
      }
      return b.template create<Node>(key, n, fresh);
    }
    if (cmp(key, n->key)) {
      const Node* nl = insert_rec(b, n->left, key, value, added);
      if (!added) return n;
      b.supersede(n);
      return b.template create<Node>(n->key, nl, n->right);
    }
    const Node* nr = insert_rec(b, n->right, key, value, added);
    if (!added) return n;
    b.supersede(n);
    return b.template create<Node>(n->key, n->left, nr);
  }

  template <class B>
  static const Node* assign_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    Cmp cmp;
    b.supersede(n);
    if (n->is_leaf()) {
      PC_DASSERT(equal(n->key, key), "assign_rec reached a foreign leaf");
      return b.template create<Node>(key, value);
    }
    if (cmp(key, n->key)) {
      return b.template create<Node>(n->key, assign_rec(b, n->left, key, value),
                                     n->right);
    }
    return b.template create<Node>(n->key, n->left,
                                   assign_rec(b, n->right, key, value));
  }

  // Pre: n is internal. Removes the leaf for key underneath n; when the
  // removed leaf's parent is n itself, returns the (shared) sibling.
  template <class B>
  static const Node* erase_rec(B& b, const Node* n, const K& key,
                               bool& removed) {
    Cmp cmp;
    const bool go_left = cmp(key, n->key);
    const Node* child = go_left ? n->left : n->right;
    const Node* sibling = go_left ? n->right : n->left;
    if (child->is_leaf()) {
      if (!equal(child->key, key)) {
        removed = false;
        return n;
      }
      removed = true;
      b.supersede(n);
      b.supersede(child);
      return sibling;  // shared splice: no copy of the surviving subtree
    }
    const Node* nc = erase_rec(b, child, key, removed);
    if (!removed) return n;
    b.supersede(n);
    if (go_left) {
      return b.template create<Node>(n->key, nc, n->right);
    }
    return b.template create<Node>(n->key, n->left, nc);
  }

  // ----- bulk construction and sorted-batch application -----

  /// Midpoint build over [lo, hi): a leaf per pair, routers at the min
  /// key of their right half. Pre: hi > lo.
  template <class B>
  static const Node* build_sorted_rec(B& b,
                                      const std::vector<std::pair<K, V>>& items,
                                      std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      return b.template create<Node>(items[lo].first, items[lo].second);
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_sorted_rec(b, items, lo, mid);
    const Node* r = build_sorted_rec(b, items, mid, hi);
    return b.template create<Node>(items[mid].first, l, r);
  }

  struct BatchCtx {
    std::span<const BatchOp> ops;
    std::span<BatchOutcome> out;
  };

  // Core of apply_sorted_batch: applies ops[lo, hi) to subtree n. Ops
  // partition at each router exactly as searches route (key < router
  // goes left), so every op lands on the one leaf whose range covers its
  // key; untouched subtrees return their pointer, an erased side splices
  // its sibling up, and a touched leaf rebuilds its surviving run.
  template <class B>
  static const Node* apply_batch_rec(B& b, const Node* n, BatchCtx& ctx,
                                     std::size_t lo, std::size_t hi) {
    if (lo == hi) return n;  // untouched subtree: shared, zero copies
    if (n->is_leaf()) return apply_leaf_run(b, n, ctx, lo, hi);
    Cmp cmp;
    std::size_t a = lo, z = hi;
    while (a < z) {
      const std::size_t mid = a + (z - a) / 2;
      if (cmp(ctx.ops[mid].key, n->key)) {
        a = mid + 1;
      } else {
        z = mid;
      }
    }
    const Node* l = apply_batch_rec(b, n->left, ctx, lo, a);
    const Node* r = apply_batch_rec(b, n->right, ctx, a, hi);
    if (l == n->left && r == n->right) return n;  // children untouched
    b.supersede(n);
    if (l == nullptr) return r;  // sibling splice (r may be null too)
    if (r == nullptr) return l;
    return b.template create<Node>(n->key, l, r);
  }

  /// Replaces leaf n with a balanced subtree over the survivors of its
  /// op run: the leaf's own pair (unless erased/reassigned) merged with
  /// every landing insert. Returns n unchanged when nothing lands.
  template <class B>
  static const Node* apply_leaf_run(B& b, const Node* n, BatchCtx& ctx,
                                    std::size_t lo, std::size_t hi) {
    Cmp cmp;
    bool alive = true;    // the leaf's own key survives
    V value = n->value;   // possibly reassigned
    bool changed = false;
    std::vector<std::pair<K, V>> run;
    run.reserve(hi - lo + 1);
    bool placed = false;  // leaf pair already merged into the run
    for (std::size_t i = lo; i < hi; ++i) {
      const BatchOp& op = ctx.ops[i];
      if (!cmp(op.key, n->key) && !cmp(n->key, op.key)) {
        switch (op.kind) {
          case BatchOpKind::kInsert:
            ctx.out[i] = BatchOutcome::kNoop;  // set-style: value kept
            break;
          case BatchOpKind::kErase:
            ctx.out[i] = BatchOutcome::kErased;
            alive = false;
            changed = true;
            break;
          case BatchOpKind::kAssign:
            ctx.out[i] = BatchOutcome::kAssigned;
            value = *op.value;
            changed = true;
            break;
        }
        continue;
      }
      if (op.kind == BatchOpKind::kErase) {
        ctx.out[i] = BatchOutcome::kNoop;  // absent key
        continue;
      }
      ctx.out[i] = BatchOutcome::kInserted;
      changed = true;
      if (!placed && alive && cmp(n->key, op.key)) {
        run.emplace_back(n->key, value);
        placed = true;
      }
      run.emplace_back(op.key, *op.value);
    }
    if (!changed) return n;
    if (alive && !placed) {
      // The leaf's key sorts after every landing insert seen so far —
      // or before all of them; find its slot (the run is sorted).
      std::size_t at = run.size();
      while (at > 0 && cmp(n->key, run[at - 1].first)) --at;
      run.insert(run.begin() + static_cast<std::ptrdiff_t>(at),
                 {n->key, value});
    }
    b.supersede(n);
    if (run.empty()) return nullptr;
    return build_sorted_rec(b, run, 0, run.size());
  }

  // Batch aimed at an empty tree: erases are no-ops, the surviving
  // inserts/assigns build the balanced external tree directly.
  template <class B>
  static const Node* build_batch_inserts(B& b, BatchCtx& ctx, std::size_t lo,
                                         std::size_t hi) {
    std::vector<std::pair<K, V>> run;
    run.reserve(hi - lo);
    detail::split_landing_ops(ctx.ops, ctx.out, lo, hi, [&](std::size_t i) {
      run.emplace_back(ctx.ops[i].key, *ctx.ops[i].value);
    });
    if (run.empty()) return nullptr;
    return build_sorted_rec(b, run, 0, run.size());
  }

  template <class F>
  static void for_each_rec(const Node* n, F& f) {
    if (n == nullptr) return;
    if (n->is_leaf()) {
      f(n->key, n->value);
      return;
    }
    for_each_rec(n->left, f);
    for_each_rec(n->right, f);
  }

  template <class F>
  static void for_each_range_rec(const Node* n, const K& lo, const K& hi,
                                 F& f) {
    if (n == nullptr) return;
    Cmp cmp;
    if (n->is_leaf()) {
      if (!cmp(n->key, lo) && cmp(n->key, hi)) f(n->key, n->value);
      return;
    }
    // Invariant: max(left) < router <= min(right).
    if (cmp(lo, n->key)) for_each_range_rec(n->left, lo, hi, f);
    if (cmp(n->key, hi)) for_each_range_rec(n->right, lo, hi, f);
  }

  static void scan_range_rec(const Node* n, const K& lo, const K& hi,
                             std::size_t& remaining,
                             std::vector<std::pair<K, V>>& out) {
    if (n == nullptr || remaining == 0) return;
    Cmp cmp;
    if (n->is_leaf()) {
      if (!cmp(n->key, lo) && cmp(n->key, hi)) {
        out.emplace_back(n->key, n->value);
        --remaining;
      }
      return;
    }
    if (cmp(lo, n->key)) scan_range_rec(n->left, lo, hi, remaining, out);
    if (cmp(n->key, hi)) scan_range_rec(n->right, lo, hi, remaining, out);
  }

  struct CheckResult {
    bool ok;
    std::uint64_t size;
  };

  // Invariant: max(left) < router <= min(right). Freshly inserted routers
  // equal min(right) exactly, but erase splices leaves out without
  // rewriting ancestor routers, so only the separator property survives;
  // it is enforced through the [lo, hi) bounds below.
  static CheckResult check_rec(const Node* n, const K* lo, const K* hi) {
    Cmp cmp;
    if (n->pc_state_ != core::NodeState::kPublished) return {false, 0};
    if (n->is_leaf()) {
      if (n->right != nullptr || n->size != 1) return {false, 0};
      if (lo != nullptr && cmp(n->key, *lo)) return {false, 0};
      if (hi != nullptr && !cmp(n->key, *hi)) return {false, 0};
      return {true, 1};
    }
    if (n->left == nullptr || n->right == nullptr) return {false, 0};
    const CheckResult l = check_rec(n->left, lo, &n->key);
    if (!l.ok) return {false, 0};
    const CheckResult r = check_rec(n->right, &n->key, hi);
    if (!r.ok) return {false, 0};
    if (n->size != l.size + r.size) return {false, 0};
    return {true, n->size};
  }

  static std::size_t height_rec(const Node* n) {
    if (n == nullptr) return 0;
    const std::size_t l = height_rec(n->left);
    const std::size_t r = height_rec(n->right);
    return 1 + (l > r ? l : r);
  }

  static void collect(const Node* n, std::unordered_set<const Node*>& out) {
    if (n == nullptr) return;
    out.insert(n);
    collect(n->left, out);
    collect(n->right, out);
  }

  static void count_shared(const Node* n,
                           const std::unordered_set<const Node*>& in,
                           std::size_t& shared) {
    if (n == nullptr) return;
    if (in.contains(n)) {
      shared += subtree_nodes(n);
      return;
    }
    count_shared(n->left, in, shared);
    count_shared(n->right, in, shared);
  }

  static std::size_t subtree_nodes(const Node* n) {
    // Total node count (internals + leaves) = 2 * leaves - 1 for a full
    // binary subtree, which external trees always are.
    return 2 * static_cast<std::size_t>(n->size) - 1;
  }

  const Node* root_ = nullptr;
};

}  // namespace pathcopy::persist
