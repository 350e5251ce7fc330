// Rotation-balanced persistent binary tree: the one body behind the AVL
// and weight-balanced trees.
//
// Both trees keep a balance invariant between sibling subtrees and
// restore it on the copied path with single or double rotations; they
// differ only in the measure the invariant compares (height vs weight).
// Following "Just Join for Parallel Ordered Sets" (Blelloch, Ferizovic,
// Sun, SPAA 2016), everything else is shared: path-copying insert/
// assign/erase, the rotation step, the join that stitches subtrees of
// any size difference back together, the midpoint bulk builders and the
// sorted-batch sweep policy. A Rule type supplies the rest:
//
//   template <class K, class V> struct Node;  // key/value/size/left/right
//                                             // + augmentation; (k, v, l, r)
//   static bool too_heavy(const Node* a, const Node* b);
//       // a is too heavy against its sibling b
//   static bool single_rotation(const Node* outer, const Node* inner);
//       // for a too-heavy child: rotating it up alone rebalances, given
//       // its grandchild on the outside and on the inside
//   static bool local_ok(const Node* n);
//       // n's augmentation and balance hold, given that its children's do
//
// avl.hpp and wbt.hpp hold the two rules. Reads come from the shared
// binary-tree core (persist/binary_tree.hpp).
//
// Supports the sorted-batch protocol (persist/batch.hpp): the sweep is
// driven by the existing tree — ops are partitioned around each node's
// key — and arbitrary size changes from landing ops are repaired by the
// path-copying join, so the result is a valid tree whose *contents* (not
// shape — both trees are history-dependent) match per-op application.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "persist/batch.hpp"
#include "persist/binary_tree.hpp"
#include "util/assert.hpp"

namespace pathcopy::persist {

template <class Rule, class K, class V, class Cmp = std::less<K>>
class RotationTree
    : public BinaryTree<RotationTree<Rule, K, V, Cmp>,
                        typename Rule::template Node<K, V>, K, V, Cmp> {
  using Base = BinaryTree<RotationTree, typename Rule::template Node<K, V>,
                          K, V, Cmp>;

 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using BatchOutcome = persist::BatchOutcome;
  using ReadOutcome = persist::ReadOutcome<V>;
  using Node = typename Rule::template Node<K, V>;

  // ----- updates -----

  template <class B>
  RotationTree insert(B& b, const K& key, const V& value) const {
    if (this->contains(key)) return *this;
    return with_root(insert_rec(b, root_, key, value));
  }

  template <class B>
  RotationTree insert_or_assign(B& b, const K& key, const V& value) const {
    if (this->contains(key)) {
      return with_root(assign_rec(b, root_, key, value));
    }
    return with_root(insert_rec(b, root_, key, value));
  }

  template <class B>
  RotationTree erase(B& b, const K& key) const {
    if (!this->contains(key)) return *this;
    return with_root(erase_rec(b, root_, key));
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs.
  /// The midpoint build yields a perfectly size-balanced tree (subtree
  /// sizes differ by at most 1 at every node), which satisfies either
  /// balance rule by construction.
  template <class B, class It>
  static RotationTree from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    check_sorted_items<Cmp>(items);
    return with_root(build_sorted_rec(b, items, 0, items.size()));
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Contents are
  /// exactly those of applying the ops one at a time; the whole batch
  /// shares one copied spine — untouched subtrees are returned by pointer
  /// (an all-noop batch returns the same root with zero allocations) and
  /// subtrees reshaped by landing ops are repaired with join steps
  /// proportional to the imbalance instead of one root-to-leaf copy per
  /// op.
  template <class B>
  RotationTree apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                                  std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return *this;
    check_sorted_batch<Cmp>(ops);
    return with_root(detail::apply_batch_rec<BatchSweep>(b, root_, ops,
                                                         outcomes, 0,
                                                         ops.size()));
  }

  // ----- structural utilities -----

  /// Full invariant check: BST order, size augmentation, published state
  /// and the rule's balance invariant on every node. O(n).
  bool check_invariants() const {
    return check_rec(root_, nullptr, nullptr,
                     [](const Node* n) { return Rule::local_ok(n); });
  }

 private:
  using Base::check_rec;
  using Base::root_;
  using Base::with_root;

  template <class B>
  static const Node* mk(B& b, const K& k, const V& v, const Node* l,
                        const Node* r) {
    return b.template create<Node>(k, v, l, r);
  }

  /// Builds a balanced node (k, v, l, r), restoring the invariant with at
  /// most two rotations. l and r are valid subtrees that differ from
  /// balanced by at most one inserted/removed element (the standard
  /// local-repair precondition).
  template <class B>
  static const Node* balance(B& b, const K& k, const V& v, const Node* l,
                             const Node* r) {
    if (Rule::too_heavy(l, r)) {
      // Left-heavy. l is non-null.
      if (Rule::single_rotation(l->left, l->right)) {
        // Single right rotation: l becomes the root.
        b.supersede(l);
        return mk(b, l->key, l->value, l->left, mk(b, k, v, l->right, r));
      }
      // Left-right double rotation: l->right becomes the root.
      const Node* lr = l->right;
      b.supersede(l);
      b.supersede(lr);
      return mk(b, lr->key, lr->value,
                mk(b, l->key, l->value, l->left, lr->left),
                mk(b, k, v, lr->right, r));
    }
    if (Rule::too_heavy(r, l)) {
      // Right-heavy. r is non-null.
      if (Rule::single_rotation(r->right, r->left)) {
        b.supersede(r);
        return mk(b, r->key, r->value, mk(b, k, v, l, r->left), r->right);
      }
      const Node* rl = r->left;
      b.supersede(r);
      b.supersede(rl);
      return mk(b, rl->key, rl->value, mk(b, k, v, l, rl->left),
                mk(b, r->key, r->value, rl->right, r->right));
    }
    return mk(b, k, v, l, r);
  }

  template <class B>
  static const Node* insert_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    if (n == nullptr) return mk(b, key, value, nullptr, nullptr);
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return balance(b, n->key, n->value, insert_rec(b, n->left, key, value),
                     n->right);
    }
    PC_DASSERT(cmp(n->key, key), "insert_rec on a present key");
    return balance(b, n->key, n->value, n->left,
                   insert_rec(b, n->right, key, value));
  }

  template <class B>
  static const Node* assign_rec(B& b, const Node* n, const K& key,
                                const V& value) {
    PC_DASSERT(n != nullptr, "assign_rec past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return mk(b, n->key, n->value, assign_rec(b, n->left, key, value),
                n->right);
    }
    if (cmp(n->key, key)) {
      return mk(b, n->key, n->value, n->left,
                assign_rec(b, n->right, key, value));
    }
    return mk(b, n->key, value, n->left, n->right);
  }

  template <class B>
  static const Node* erase_rec(B& b, const Node* n, const K& key) {
    PC_DASSERT(n != nullptr, "erase_rec past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(key, n->key)) {
      return balance(b, n->key, n->value, erase_rec(b, n->left, key), n->right);
    }
    if (cmp(n->key, key)) {
      return balance(b, n->key, n->value, n->left, erase_rec(b, n->right, key));
    }
    if (n->left == nullptr) return n->right;
    if (n->right == nullptr) return n->left;
    // Two children: pull up the in-order successor.
    auto [min_key, min_value, nr] = pop_min(b, n->right);
    return balance(b, min_key, min_value, n->left, nr);
  }

  /// Removes the minimum of subtree n; returns (key, value, new subtree).
  template <class B>
  static std::tuple<K, V, const Node*> pop_min(B& b, const Node* n) {
    b.supersede(n);
    if (n->left == nullptr) return {n->key, n->value, n->right};
    auto [k, v, nl] = pop_min(b, n->left);
    return {k, v, balance(b, n->key, n->value, nl, n->right)};
  }

  template <class B>
  static const Node* build_sorted_rec(B& b,
                                      const std::vector<std::pair<K, V>>& items,
                                      std::size_t lo, std::size_t hi) {
    if (lo == hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_sorted_rec(b, items, lo, mid);
    const Node* r = build_sorted_rec(b, items, mid + 1, hi);
    return mk(b, items[mid].first, items[mid].second, l, r);
  }

  // --- sorted-batch application ---

  /// Joins l < (k, v) < r where l and r may differ in size arbitrarily
  /// (the batch recursion hands back reshaped subtrees). Descends the
  /// heavier side's inner spine (heavier by the rule's measure) until
  /// neither side is too heavy against the other, then links; every
  /// unwind step is a balance() that restores the rule one level up, so
  /// the result is valid in copies proportional to the height difference
  /// (for weight balance this is Adams' `link`).
  template <class B>
  static const Node* join(B& b, const K& k, const V& v, const Node* l,
                          const Node* r) {
    if (Rule::too_heavy(l, r)) {
      b.supersede(l);
      return balance(b, l->key, l->value, l->left, join(b, k, v, l->right, r));
    }
    if (Rule::too_heavy(r, l)) {
      b.supersede(r);
      return balance(b, r->key, r->value, join(b, k, v, l, r->left), r->right);
    }
    return mk(b, k, v, l, r);
  }

  /// Joins l < r without a middle key (the batch erased it): pulls up r's
  /// minimum as the new pivot.
  template <class B>
  static const Node* join2(B& b, const Node* l, const Node* r) {
    if (r == nullptr) return l;
    auto [k, v, nr] = pop_min(b, r);
    return join(b, k, v, l, nr);
  }

  /// Policy for the shared tree-driven sweep (persist/batch.hpp): the
  /// partition recursion lives there; the join discipline and the
  /// off-tree bulk build live here.
  struct BatchSweep {
    using Node = RotationTree::Node;
    using KeyCompare = Cmp;
    template <class B>
    static const Node* join(B& b, const K& k, const V& v, const Node* l,
                            const Node* r) {
      return RotationTree::join(b, k, v, l, r);
    }
    template <class B>
    static const Node* join2(B& b, const Node* l, const Node* r) {
      return RotationTree::join2(b, l, r);
    }
    template <class B>
    static const Node* build_inserts(B& b, std::span<const BatchOp> ops,
                                     std::span<BatchOutcome> out,
                                     std::size_t lo, std::size_t hi) {
      return RotationTree::build_batch_inserts(b, ops, out, lo, hi);
    }
  };

  // Batch tail that ran off the tree: erases are no-ops, the surviving
  // inserts/assigns build their balanced subtree directly via the same
  // midpoint scheme as from_sorted.
  template <class B>
  static const Node* build_batch_inserts(B& b, std::span<const BatchOp> ops,
                                         std::span<BatchOutcome> out,
                                         std::size_t lo, std::size_t hi) {
    detail::BatchIndexVec land;  // ops that insert
    detail::split_landing_ops(ops, out, lo, hi,
                              [&](std::size_t i) { land.push_back(i); });
    if (land.empty()) return nullptr;
    return build_land_rec(b, ops, land, 0, land.size());
  }

  template <class B>
  static const Node* build_land_rec(B& b, std::span<const BatchOp> ops,
                                    const detail::BatchIndexVec& land,
                                    std::size_t lo, std::size_t hi) {
    if (lo == hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_land_rec(b, ops, land, lo, mid);
    const Node* r = build_land_rec(b, ops, land, mid + 1, hi);
    const BatchOp& op = ops[land[mid]];
    return mk(b, op.key, *op.value, l, r);
  }
};

}  // namespace pathcopy::persist
