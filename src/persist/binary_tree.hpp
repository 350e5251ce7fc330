// Read side of the size-augmented binary search trees.
//
// The treap, AVL, weight-balanced and red-black trees differ only in how
// an update keeps them balanced. Their nodes all carry key/value/left/
// right plus the subtree `size`, and every read over such a node is the
// same code: lookups, rank/select, ordered and range visits, the batched
// probe sweep, the bounded scan, sharing and teardown. BinaryTree holds
// that code once, as a CRTP base. A tree derives from
//
//   BinaryTree<Tree, Node, K, V, Cmp>
//
// and adds its node type, its updates and the per-node rule its
// check_invariants() passes to check_rec(). A handle is a single root
// pointer to immutable nodes, so every read runs on one version with no
// builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "persist/batch.hpp"
#include "util/assert.hpp"

namespace pathcopy::persist {

namespace detail {

/// Nodes in the subtree rooted at n (0 for the empty tree).
template <class Node>
std::uint64_t size_of(const Node* n) noexcept {
  return n == nullptr ? 0 : n->size;
}

}  // namespace detail

template <class Tree, class Node, class K, class V, class Cmp>
class BinaryTree {
 public:
  /// Rebinds a handle to a root loaded from an Atom (type-erased there).
  static Tree from_root(const void* root) noexcept {
    return with_root(static_cast<const Node*>(root));
  }
  const void* root_ptr() const noexcept { return root_; }
  const Node* root_node() const noexcept { return root_; }

  std::size_t size() const noexcept { return detail::size_of(root_); }
  bool empty() const noexcept { return root_ == nullptr; }

  // ----- queries (no builder, run on the immutable version) -----

  const V* find(const K& key) const {
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(key, n->key)) {
        n = n->left;
      } else if (cmp(n->key, key)) {
        n = n->right;
      } else {
        return &n->value;
      }
    }
    return nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  const Node* min_node() const {
    const Node* n = root_;
    while (n != nullptr && n->left != nullptr) n = n->left;
    return n;
  }

  const Node* max_node() const {
    const Node* n = root_;
    while (n != nullptr && n->right != nullptr) n = n->right;
    return n;
  }

  /// Largest key <= key, or nullptr.
  const Node* floor_node(const K& key) const {
    const Node* n = root_;
    const Node* best = nullptr;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(key, n->key)) {
        n = n->left;
      } else {
        best = n;  // n->key <= key
        n = n->right;
      }
    }
    return best;
  }

  /// Smallest key >= key, or nullptr.
  const Node* ceiling_node(const K& key) const {
    const Node* n = root_;
    const Node* best = nullptr;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(n->key, key)) {
        n = n->right;
      } else {
        best = n;  // n->key >= key
        n = n->left;
      }
    }
    return best;
  }

  /// Number of keys strictly less than key.
  std::size_t rank(const K& key) const {
    std::size_t r = 0;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      if (cmp(n->key, key)) {
        r += 1 + detail::size_of(n->left);
        n = n->right;
      } else {
        n = n->left;
      }
    }
    return r;
  }

  /// The i-th smallest key (0-based); nullptr when i >= size().
  const Node* kth(std::size_t i) const {
    const Node* n = root_;
    while (n != nullptr) {
      const std::size_t ls = detail::size_of(n->left);
      if (i < ls) {
        n = n->left;
      } else if (i == ls) {
        return n;
      } else {
        i -= ls + 1;
        n = n->right;
      }
    }
    return nullptr;
  }

  /// Keys in the half-open interval [lo, hi).
  std::size_t count_range(const K& lo, const K& hi) const {
    const std::size_t a = rank(lo);
    const std::size_t b = rank(hi);
    return b > a ? b - a : 0;
  }

  /// In-order visit of (key, value).
  template <class F>
  void for_each(F&& f) const {
    for_each_rec(root_, f);
  }

  /// In-order visit restricted to [lo, hi): subtrees wholly outside the
  /// interval are pruned at their root, so the visit costs O(hits + log n)
  /// — what makes tablet extraction proportional to the moved slice.
  template <class F>
  void for_each_range(const K& lo, const K& hi, F&& f) const {
    for_each_range_rec(root_, lo, hi, f);
  }

  /// A tail buffer that may hold the parked tails of several snapshots'
  /// sweeps (see detail::ProbeTails).
  using ProbeTails = detail::ProbeTails<Cmp, Node, K, V>;

  /// Resolves a key-sorted, key-unique probe batch against this snapshot
  /// in one descent-sharing sweep: out[i] answers keys[i]. Read-only —
  /// zero allocation, no builder — and returns the exact shared-vs-per-key
  /// node accounting (see ReadProbeStats).
  ReadProbeStats get_sorted_batch(std::span<const K> keys,
                                  std::span<ReadOutcome<V>> out) const {
    ReadProbeStats stats;
    ProbeTails tails;
    park_sorted_batch(keys, out, stats, tails);
    tails.flush();
    return stats;
  }

  /// get_sorted_batch's sweep step: the descent-sharing partition, with
  /// every single-key tail parked in `tails` rather than descended. The
  /// parked keys' answers, and their nodes in `stats`, land when `tails`
  /// is flushed, so keys, out and stats must stay valid, and this
  /// snapshot pinned, until then.
  void park_sorted_batch(std::span<const K> keys,
                         std::span<ReadOutcome<V>> out, ReadProbeStats& stats,
                         ProbeTails& tails) const {
    PC_ASSERT(out.size() >= keys.size(),
              "get_sorted_batch outcome span too small");
    check_sorted_keys<Cmp, K>(keys);
    detail::read_batch_partition<Cmp>(root_, keys, out, 0, keys.size(), stats,
                                      tails);
  }

  /// Bounded range scan: appends up to `limit` (key, value) pairs from
  /// [lo, hi) in key order onto `out`; returns the number emitted. Early
  /// exit makes a limit-k scan O(k + log n) regardless of range width.
  std::size_t scan(const K& lo, const K& hi, std::size_t limit,
                   std::vector<std::pair<K, V>>& out) const {
    std::size_t remaining = limit;
    detail::scan_range_rec<Cmp, Node, K, V>(root_, lo, hi, remaining, out);
    return limit - remaining;
  }

  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  // ----- structural utilities -----

  /// Nodes on the longest root-to-leaf path (0 for the empty tree). O(n).
  std::size_t height() const { return height_rec(root_); }

  /// Number of nodes reachable from both versions — quantifies the
  /// structural sharing that drives the paper's cache argument (Fig. 1).
  static std::size_t shared_nodes(const Tree& a, const Tree& b) {
    std::unordered_set<const Node*> seen;
    collect(a.root_node(), seen);
    std::size_t shared = 0;
    count_shared(b.root_node(), seen, shared);
    return shared;
  }

  /// Collects the addresses of nodes on the search path to key (used by
  /// the cache-model instrumentation and sharing experiments).
  std::vector<const Node*> path_to(const K& key) const {
    std::vector<const Node*> path;
    const Node* n = root_;
    Cmp cmp;
    while (n != nullptr) {
      path.push_back(n);
      if (cmp(key, n->key)) {
        n = n->left;
      } else if (cmp(n->key, key)) {
        n = n->right;
      } else {
        break;
      }
    }
    return path;
  }

  /// Teardown-only: frees every node of this version through the
  /// allocator backend. Caller guarantees exclusive ownership (i.e. all
  /// other versions have already been reclaimed).
  template <class Backend>
  static void destroy(const Node* n, Backend& backend) {
    if (n == nullptr) return;
    destroy(n->left, backend);
    destroy(n->right, backend);
    n->~Node();
    backend.free_bytes(const_cast<Node*>(n), sizeof(Node), alignof(Node));
  }

 protected:
  static Tree with_root(const Node* root) noexcept {
    Tree t;
    t.BinaryTree::root_ = root;  // Tree redeclares root_ private
    return t;
  }

  /// The checks every tree's check_invariants() shares: BST order within
  /// (lo, hi), published builder state and size augmentation on every
  /// node, plus the tree's own per-node rule `local(n)`, which runs after
  /// both of n's subtrees have passed and so may trust their fields. O(n)
  /// plus the cost of `local`.
  template <class Local>
  static bool check_rec(const Node* n, const K* lo, const K* hi,
                        const Local& local) {
    if (n == nullptr) return true;
    Cmp cmp;
    if (lo != nullptr && !cmp(*lo, n->key)) return false;
    if (hi != nullptr && !cmp(n->key, *hi)) return false;
    if (n->pc_state_ != core::NodeState::kPublished) return false;
    return check_rec(n->left, lo, &n->key, local) &&
           check_rec(n->right, &n->key, hi, local) &&
           n->size ==
               1 + detail::size_of(n->left) + detail::size_of(n->right) &&
           local(n);
  }

  const Node* root_ = nullptr;

 private:
  template <class F>
  static void for_each_rec(const Node* n, F& f) {
    if (n == nullptr) return;
    for_each_rec(n->left, f);
    f(n->key, n->value);
    for_each_rec(n->right, f);
  }

  template <class F>
  static void for_each_range_rec(const Node* n, const K& lo, const K& hi,
                                 F& f) {
    if (n == nullptr) return;
    Cmp cmp;
    if (cmp(n->key, lo)) {  // entire left subtree < lo as well
      for_each_range_rec(n->right, lo, hi, f);
      return;
    }
    if (!cmp(n->key, hi)) {  // n->key >= hi
      for_each_range_rec(n->left, lo, hi, f);
      return;
    }
    for_each_range_rec(n->left, lo, hi, f);
    f(n->key, n->value);
    for_each_range_rec(n->right, lo, hi, f);
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
      // Everything below a shared node is shared as well (nodes are
      // immutable, so a shared parent implies shared children).
      shared += n->size;
      return;
    }
    count_shared(n->left, in, shared);
    count_shared(n->right, in, shared);
  }
};

}  // namespace pathcopy::persist
