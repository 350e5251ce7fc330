// Persistent red-black tree.
//
// Third balanced-tree instance for the universal construction (alongside
// AVL and the weight-balanced tree). Insertion is Okasaki's rotation-free
// rebalancing; deletion follows the Coq MSetRBT formulation (Appel /
// Filliâtre / Letouzey): `append` fuses the two subtrees of the deleted
// node, and the `lbalS`/`rbalS` smart constructors repair a subtree whose
// black height dropped by one. That algorithm is machine-checked in Coq,
// which makes it a trustworthy donor for a from-scratch transcription —
// the test suite re-verifies the red/black invariants after every
// mutation anyway.
//
// Compared to the treap, a red-black update copies a slightly longer
// prefix of the path (recoloring cascades), but guarantees height
// <= 2·log2(N+1) deterministically. The structure ablation (E8) measures
// the resulting copy-cost difference.
//
// This file owns the red-black machinery: Okasaki insertion, MSetRBT
// deletion, the black-height join, the leveled-coloring bulk builders
// and the virtual-leaf probe for the combining gate. Reads — lookups,
// rank/select, range visits, batched probes, scans, sharing and
// teardown — are the shared binary-tree core (persist/binary_tree.hpp),
// so rank/kth/count_range are O(log N) and a handle is a single root
// pointer, as for every structure here.
//
// Supports the sorted-batch protocol (persist/batch.hpp): the sweep is
// tree-driven like the AVL port — ops partition around each node's key —
// and subtrees reshaped by landing ops are stitched back with a
// black-height-aware join (descend the taller side's spine to equal
// height, attach red, repair red-red on unwind — the "just join"
// formulation), so the result honors the full red/black contract while
// untouched subtrees are shared by pointer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/node_base.hpp"
#include "persist/batch.hpp"
#include "persist/binary_tree.hpp"
#include "util/assert.hpp"

namespace pathcopy::persist {

enum class RbColor : std::uint8_t { kRed = 0, kBlack = 1 };

template <class K, class V>
struct RbNode : core::PNode {
  K key;
  V value;
  RbColor color;
  std::uint64_t size;
  const RbNode* left;
  const RbNode* right;

  RbNode(RbColor c, const RbNode* l, const K& k, const V& v, const RbNode* r)
      : key(k), value(v), color(c),
        size(1 + detail::size_of(l) + detail::size_of(r)),
        left(l), right(r) {}
};

template <class K, class V, class Cmp = std::less<K>>
class RbTree : public BinaryTree<RbTree<K, V, Cmp>, RbNode<K, V>, K, V, Cmp> {
  using Base = BinaryTree<RbTree, RbNode<K, V>, K, V, Cmp>;

 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using BatchOutcome = persist::BatchOutcome;
  using ReadOutcome = persist::ReadOutcome<V>;
  using Color = RbColor;
  using Node = RbNode<K, V>;

  // ----- combining-gate clustering probe (core/combining.hpp) -----
  //
  // A red-black tree has no wide leaves, but its sorted-batch sweep has
  // an analogous fixed cost per *touched region*: the partition recursion
  // plus black-height joins (one recoloring rotation per unwind level)
  // that a landing op only amortizes when neighbors share them — the
  // join-machinery overhead behind the uniform-key batch loss measured in
  // bench_batch_combining. The probe prices a batch in "virtual leaves":
  // the maximal subtrees of at most kBatchVirtualLeaf keys, found by a
  // size-bounded descent (the size augmentation is already in every
  // node), mirroring the B-tree's physical-leaf probe. A batch that puts
  // ~one op per virtual leaf pays the join machinery per op and loses to
  // the per-op loop; a clustered batch shares it and wins.

  /// Size bound of one virtual leaf — the cost-model constant the gate
  /// consumes (kBatchFanout advertises it to the ReportsBatchFanout
  /// concept; kBatchMinOpsPerLeaf is the matching density demand).
  static constexpr unsigned kBatchVirtualLeaf = 8;
  static constexpr unsigned kBatchFanout = kBatchVirtualLeaf;
  /// Ops that must share a touched virtual leaf, on average, for the
  /// sorted sweep to beat per-op application (below it, join rebalancing
  /// dominates — the ~0.6x uniform-key cell).
  static constexpr unsigned kBatchMinOpsPerLeaf = 2;

  /// Number of distinct virtual leaves a key-sorted, key-unique batch
  /// would touch. Sampling contract as BTree::count_leaf_runs: at most
  /// max_runs descents, *ops_covered reports how many leading ops the
  /// counted leaves absorbed, covered/runs estimating the batch's mean
  /// clustering from a prefix.
  unsigned count_leaf_runs(std::span<const BatchOp> ops,
                           unsigned max_runs = ~0u,
                           std::size_t* ops_covered = nullptr) const {
    std::size_t covered = ops.size();
    unsigned runs = 0;
    if (!ops.empty() && this->size() <= kBatchVirtualLeaf) {
      runs = 1;
    } else if (!ops.empty()) {
      Cmp cmp;
      std::size_t i = 0;
      while (i < ops.size() && runs < max_runs) {
        ++runs;
        const Node* n = root_;
        const K* hi = nullptr;  // tightest upper bound along the descent
        while (n != nullptr && n->size > kBatchVirtualLeaf) {
          if (cmp(ops[i].key, n->key)) {
            hi = &n->key;
            n = n->left;
          } else {
            n = n->right;
          }
        }
        ++i;
        while (i < ops.size() && (hi == nullptr || cmp(ops[i].key, *hi))) ++i;
      }
      covered = i;
    }
    if (ops_covered != nullptr) *ops_covered = covered;
    return runs;
  }

  // ----- updates -----

  template <class B>
  RbTree insert(B& b, const K& key, const V& value) const {
    if (this->contains(key)) return *this;
    return with_root(make_black(b, ins(b, root_, key, value)));
  }

  template <class B>
  RbTree insert_or_assign(B& b, const K& key, const V& value) const {
    return with_root(make_black(b, ins(b, root_, key, value)));
  }

  template <class B>
  RbTree erase(B& b, const K& key) const {
    if (!this->contains(key)) return *this;
    return with_root(make_black(b, del(b, root_, key)));
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs.
  /// The midpoint build fills every level but the last, so coloring the
  /// bottommost level red and everything above black gives a uniform
  /// black height (every root-to-null path sees exactly the full-level
  /// blacks) with no red-red edge — a valid red-black tree.
  template <class B, class It>
  static RbTree from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    check_sorted_items<Cmp>(items);
    const std::size_t levels = levels_of(items.size());
    return with_root(build_sorted_rec(b, items, 0, items.size(), 1, levels));
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Contents are
  /// exactly those of applying the ops one at a time; untouched subtrees
  /// are returned by pointer (an all-noop batch returns the same root
  /// with zero allocations) and reshaped subtrees are stitched back with
  /// O(|bh difference|) join steps plus a bounded recolor cascade.
  template <class B>
  RbTree apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                            std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return *this;
    check_sorted_batch<Cmp>(ops);
    // The root is always black, so an untouched result stays shared and
    // a reshaped one is re-anchored for free (make_black on black = id).
    return with_root(make_black(
        b, detail::apply_batch_rec<BatchSweep>(b, root_, ops, outcomes, 0,
                                               ops.size())));
  }

  // ----- structural utilities -----

  /// Verifies the full red-black contract: BST order, black root, no
  /// red-red edge, uniform black height, correct size augmentation, and
  /// published builder state on every node.
  bool check_invariants() const {
    if (is_red(root_)) return false;
    return check_rec(root_, nullptr, nullptr, [](const Node* n) {
      return !(n->color == kRed && (is_red(n->left) || is_red(n->right))) &&
             black_height_of(n->left) == black_height_of(n->right);
    });
  }

  /// Black nodes on any root-to-leaf path (0 for the empty tree).
  std::size_t black_height() const { return black_height_of(root_); }

 private:
  using Base::check_rec;
  using Base::root_;
  using Base::with_root;

  static constexpr Color kRed = Color::kRed;
  static constexpr Color kBlack = Color::kBlack;

  static bool is_red(const Node* n) noexcept {
    return n != nullptr && n->color == kRed;
  }
  static bool is_black_node(const Node* n) noexcept {
    return n != nullptr && n->color == kBlack;
  }

  template <class B>
  static const Node* mk(B& b, Color c, const Node* l, const K& k, const V& v,
                        const Node* r) {
    return b.template create<Node>(c, l, k, v, r);
  }

  /// Returns a black-rooted equivalent of n (possibly n itself).
  template <class B>
  static const Node* make_black(B& b, const Node* n) {
    if (n == nullptr || n->color == kBlack) return n;
    b.supersede(n);
    return mk(b, kBlack, n->left, n->key, n->value, n->right);
  }

  /// Returns a red-rooted copy of n. Only called on non-null black nodes
  /// whose subtrees tolerate the recolor (lbalS/rbalS interior cases).
  template <class B>
  static const Node* make_red(B& b, const Node* n) {
    PC_DASSERT(n != nullptr, "make_red on empty tree");
    b.supersede(n);
    return mk(b, kRed, n->left, n->key, n->value, n->right);
  }

  // ----- insertion (Okasaki) -----

  /// Okasaki's balance for a black node whose *left* subtree may carry a
  /// red-red violation introduced by insertion.
  template <class B>
  static const Node* lbal(B& b, const Node* l, const K& k, const V& v,
                          const Node* r) {
    if (is_red(l)) {
      if (is_red(l->left)) {
        const Node* ll = l->left;
        b.supersede(l);
        b.supersede(ll);
        return mk(b, kRed,
                  mk(b, kBlack, ll->left, ll->key, ll->value, ll->right),
                  l->key, l->value, mk(b, kBlack, l->right, k, v, r));
      }
      if (is_red(l->right)) {
        const Node* lr = l->right;
        b.supersede(l);
        b.supersede(lr);
        return mk(b, kRed, mk(b, kBlack, l->left, l->key, l->value, lr->left),
                  lr->key, lr->value, mk(b, kBlack, lr->right, k, v, r));
      }
    }
    return mk(b, kBlack, l, k, v, r);
  }

  /// Mirror image of lbal for a violation in the right subtree.
  template <class B>
  static const Node* rbal(B& b, const Node* l, const K& k, const V& v,
                          const Node* r) {
    if (is_red(r)) {
      if (is_red(r->left)) {
        const Node* rl = r->left;
        b.supersede(r);
        b.supersede(rl);
        return mk(b, kRed, mk(b, kBlack, l, k, v, rl->left), rl->key,
                  rl->value,
                  mk(b, kBlack, rl->right, r->key, r->value, r->right));
      }
      if (is_red(r->right)) {
        const Node* rr = r->right;
        b.supersede(r);
        b.supersede(rr);
        return mk(b, kRed, mk(b, kBlack, l, k, v, r->left), r->key, r->value,
                  mk(b, kBlack, rr->left, rr->key, rr->value, rr->right));
      }
    }
    return mk(b, kBlack, l, k, v, r);
  }

  /// Insert-or-assign on the subtree rooted at n. May return a red-rooted
  /// tree with one red-red violation at the root; make_black repairs it.
  template <class B>
  static const Node* ins(B& b, const Node* n, const K& k, const V& v) {
    if (n == nullptr) return mk(b, kRed, nullptr, k, v, nullptr);
    Cmp cmp;
    b.supersede(n);
    if (cmp(k, n->key)) {
      if (n->color == kRed) {
        return mk(b, kRed, ins(b, n->left, k, v), n->key, n->value, n->right);
      }
      return lbal(b, ins(b, n->left, k, v), n->key, n->value, n->right);
    }
    if (cmp(n->key, k)) {
      if (n->color == kRed) {
        return mk(b, kRed, n->left, n->key, n->value, ins(b, n->right, k, v));
      }
      return rbal(b, n->left, n->key, n->value, ins(b, n->right, k, v));
    }
    return mk(b, n->color, n->left, k, v, n->right);
  }

  // ----- deletion (MSetRBT) -----

  /// lbal with the match arms flipped (the deletion rebalancers need the
  /// left-right case to win when both violations are present).
  template <class B>
  static const Node* lbal_prime(B& b, const Node* l, const K& k, const V& v,
                                const Node* r) {
    if (is_red(l)) {
      if (is_red(l->right)) {
        const Node* lr = l->right;
        b.supersede(l);
        b.supersede(lr);
        return mk(b, kRed, mk(b, kBlack, l->left, l->key, l->value, lr->left),
                  lr->key, lr->value, mk(b, kBlack, lr->right, k, v, r));
      }
      if (is_red(l->left)) {
        const Node* ll = l->left;
        b.supersede(l);
        b.supersede(ll);
        return mk(b, kRed,
                  mk(b, kBlack, ll->left, ll->key, ll->value, ll->right),
                  l->key, l->value, mk(b, kBlack, l->right, k, v, r));
      }
    }
    return mk(b, kBlack, l, k, v, r);
  }

  /// rbal preferring the right-right case.
  template <class B>
  static const Node* rbal_prime(B& b, const Node* l, const K& k, const V& v,
                                const Node* r) {
    if (is_red(r)) {
      if (is_red(r->right)) {
        const Node* rr = r->right;
        b.supersede(r);
        b.supersede(rr);
        return mk(b, kRed, mk(b, kBlack, l, k, v, r->left), r->key, r->value,
                  mk(b, kBlack, rr->left, rr->key, rr->value, rr->right));
      }
      if (is_red(r->left)) {
        const Node* rl = r->left;
        b.supersede(r);
        b.supersede(rl);
        return mk(b, kRed, mk(b, kBlack, l, k, v, rl->left), rl->key,
                  rl->value,
                  mk(b, kBlack, rl->right, r->key, r->value, r->right));
      }
    }
    return mk(b, kBlack, l, k, v, r);
  }

  /// Rebuilds (l, k, v, r) where subtree l's black height is one less than
  /// r's (a deletion on the left shrank it). Restores equal black heights,
  /// possibly returning a red root for the caller to absorb.
  template <class B>
  static const Node* lbalS(B& b, const Node* l, const K& k, const V& v,
                           const Node* r) {
    if (is_red(l)) {
      b.supersede(l);
      return mk(b, kRed, mk(b, kBlack, l->left, l->key, l->value, l->right),
                k, v, r);
    }
    PC_DASSERT(r != nullptr, "lbalS: right sibling cannot be empty");
    if (r->color == kBlack) {
      b.supersede(r);
      return rbal_prime(b, l, k, v,
                        mk(b, kRed, r->left, r->key, r->value, r->right));
    }
    // r red: its left child is black and non-null.
    const Node* rl = r->left;
    PC_DASSERT(is_black_node(rl), "lbalS: red sibling must have black child");
    b.supersede(r);
    b.supersede(rl);
    return mk(b, kRed, mk(b, kBlack, l, k, v, rl->left), rl->key, rl->value,
              rbal_prime(b, rl->right, r->key, r->value,
                         make_red(b, r->right)));
  }

  /// Mirror image: subtree r lost one black level.
  template <class B>
  static const Node* rbalS(B& b, const Node* l, const K& k, const V& v,
                           const Node* r) {
    if (is_red(r)) {
      b.supersede(r);
      return mk(b, kRed, l, k, v,
                mk(b, kBlack, r->left, r->key, r->value, r->right));
    }
    PC_DASSERT(l != nullptr, "rbalS: left sibling cannot be empty");
    if (l->color == kBlack) {
      b.supersede(l);
      return lbal_prime(b, mk(b, kRed, l->left, l->key, l->value, l->right),
                        k, v, r);
    }
    const Node* lr = l->right;
    PC_DASSERT(is_black_node(lr), "rbalS: red sibling must have black child");
    b.supersede(l);
    b.supersede(lr);
    return mk(b, kRed,
              lbal_prime(b, make_red(b, l->left), l->key, l->value, lr->left),
              lr->key, lr->value, mk(b, kBlack, lr->right, k, v, r));
  }

  /// Fuses subtrees l and r (all keys of l < all keys of r) that have
  /// equal black height — the two children of a deleted node.
  template <class B>
  static const Node* append(B& b, const Node* l, const Node* r) {
    if (l == nullptr) return r;
    if (r == nullptr) return l;
    if (l->color == kRed && r->color == kRed) {
      b.supersede(l);
      b.supersede(r);
      const Node* m = append(b, l->right, r->left);
      if (is_red(m)) {
        b.supersede(m);
        return mk(b, kRed, mk(b, kRed, l->left, l->key, l->value, m->left),
                  m->key, m->value,
                  mk(b, kRed, m->right, r->key, r->value, r->right));
      }
      return mk(b, kRed, l->left, l->key, l->value,
                mk(b, kRed, m, r->key, r->value, r->right));
    }
    if (l->color == kBlack && r->color == kBlack) {
      b.supersede(l);
      b.supersede(r);
      const Node* m = append(b, l->right, r->left);
      if (is_red(m)) {
        b.supersede(m);
        return mk(b, kRed, mk(b, kBlack, l->left, l->key, l->value, m->left),
                  m->key, m->value,
                  mk(b, kBlack, m->right, r->key, r->value, r->right));
      }
      return lbalS(b, l->left, l->key, l->value,
                   mk(b, kBlack, m, r->key, r->value, r->right));
    }
    if (r->color == kRed) {  // l black
      b.supersede(r);
      return mk(b, kRed, append(b, l, r->left), r->key, r->value, r->right);
    }
    // l red, r black.
    b.supersede(l);
    return mk(b, kRed, l->left, l->key, l->value, append(b, l->right, r));
  }

  /// Deletes key k (known present) from subtree n. The result's black
  /// height is one less than n's iff n is black; make_black at the root
  /// re-anchors the contract.
  template <class B>
  static const Node* del(B& b, const Node* n, const K& k) {
    PC_DASSERT(n != nullptr, "del past a leaf");
    Cmp cmp;
    b.supersede(n);
    if (cmp(k, n->key)) {
      if (is_black_node(n->left)) {
        return lbalS(b, del(b, n->left, k), n->key, n->value, n->right);
      }
      return mk(b, kRed, del(b, n->left, k), n->key, n->value, n->right);
    }
    if (cmp(n->key, k)) {
      if (is_black_node(n->right)) {
        return rbalS(b, n->left, n->key, n->value, del(b, n->right, k));
      }
      return mk(b, kRed, n->left, n->key, n->value, del(b, n->right, k));
    }
    return append(b, n->left, n->right);
  }

  // ----- bulk construction and sorted-batch application -----

  /// Levels of the midpoint-built tree of n nodes (bit_width(n)): every
  /// level but the last is full, which is what the coloring rule rides.
  static std::size_t levels_of(std::size_t n) noexcept {
    std::size_t lv = 0;
    while (n != 0) {
      ++lv;
      n >>= 1;
    }
    return lv;
  }

  template <class B>
  static const Node* build_sorted_rec(B& b,
                                      const std::vector<std::pair<K, V>>& items,
                                      std::size_t lo, std::size_t hi,
                                      std::size_t depth, std::size_t levels) {
    if (lo == hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_sorted_rec(b, items, lo, mid, depth + 1, levels);
    const Node* r = build_sorted_rec(b, items, mid + 1, hi, depth + 1, levels);
    const Color c = (depth == levels && levels > 1) ? kRed : kBlack;
    return mk(b, c, l, items[mid].first, items[mid].second, r);
  }

  /// Blacks on the left spine — the black height of any valid subtree.
  static std::size_t black_height_of(const Node* n) noexcept {
    std::size_t h = 0;
    for (; n != nullptr; n = n->left) {
      if (n->color == kBlack) ++h;
    }
    return h;
  }

  /// Descends l's right spine to the black node of r's black height,
  /// attaches (k, v) red there, and repairs any red-red pair on unwind
  /// with one recoloring left rotation per level. Pre: bh(l) >= bh(r),
  /// both roots black.
  template <class B>
  static const Node* join_right(B& b, const Node* l, const K& k, const V& v,
                                const Node* r, std::size_t bl, std::size_t br) {
    if (bl == br && !is_red(l)) return mk(b, kRed, l, k, v, r);
    b.supersede(l);
    const Node* t = join_right(b, l->right, k, v, r,
                               bl - (l->color == kBlack ? 1 : 0), br);
    if (l->color == kBlack && is_red(t) && is_red(t->right)) {
      const Node* tr = t->right;
      b.supersede(t);
      b.supersede(tr);
      return mk(b, kRed, mk(b, kBlack, l->left, l->key, l->value, t->left),
                t->key, t->value,
                mk(b, kBlack, tr->left, tr->key, tr->value, tr->right));
    }
    return mk(b, l->color, l->left, l->key, l->value, t);
  }

  /// Mirror image: descends r's left spine. Pre: bh(r) >= bh(l).
  template <class B>
  static const Node* join_left(B& b, const Node* l, const K& k, const V& v,
                               const Node* r, std::size_t bl, std::size_t br) {
    if (bl == br && !is_red(r)) return mk(b, kRed, l, k, v, r);
    b.supersede(r);
    const Node* t = join_left(b, l, k, v, r->left, bl,
                              br - (r->color == kBlack ? 1 : 0));
    if (r->color == kBlack && is_red(t) && is_red(t->left)) {
      const Node* tl = t->left;
      b.supersede(t);
      b.supersede(tl);
      return mk(b, kRed, mk(b, kBlack, tl->left, tl->key, tl->value, tl->right),
                t->key, t->value,
                mk(b, kBlack, t->right, r->key, r->value, r->right));
    }
    return mk(b, r->color, t, r->key, r->value, r->right);
  }

  /// Joins l < (k, v) < r where l and r are standalone valid red-black
  /// subtrees of arbitrary black height (the batch recursion hands back
  /// reshaped trees). Result is a valid black-rooted tree.
  template <class B>
  static const Node* join(B& b, const K& k, const V& v, const Node* l,
                          const Node* r) {
    l = make_black(b, l);
    r = make_black(b, r);
    const std::size_t bl = black_height_of(l);
    const std::size_t br = black_height_of(r);
    if (bl == br) return mk(b, kBlack, l, k, v, r);
    const Node* t = bl > br ? join_right(b, l, k, v, r, bl, br)
                            : join_left(b, l, k, v, r, bl, br);
    return make_black(b, t);
  }

  /// Joins l < r without a middle key (the batch erased it): pops r's
  /// minimum through the deletion machinery and reuses it as the pivot.
  template <class B>
  static const Node* join2(B& b, const Node* l, const Node* r) {
    if (r == nullptr) return l;
    if (l == nullptr) return r;
    const Node* rb = make_black(b, r);
    const Node* mn = rb;
    while (mn->left != nullptr) mn = mn->left;
    const K pk = mn->key;
    const V pv = mn->value;
    const Node* rest = make_black(b, del(b, rb, pk));
    return join(b, pk, pv, l, rest);
  }

  /// Policy for the shared tree-driven sweep (persist/batch.hpp): the
  /// partition recursion lives there; only the join discipline and the
  /// off-tree bulk build are red-black-specific.
  struct BatchSweep {
    using Node = RbTree::Node;
    using KeyCompare = Cmp;
    template <class B>
    static const Node* join(B& b, const K& k, const V& v, const Node* l,
                            const Node* r) {
      return RbTree::join(b, k, v, l, r);
    }
    template <class B>
    static const Node* join2(B& b, const Node* l, const Node* r) {
      return RbTree::join2(b, l, r);
    }
    template <class B>
    static const Node* build_inserts(B& b, std::span<const BatchOp> ops,
                                     std::span<BatchOutcome> out,
                                     std::size_t lo, std::size_t hi) {
      return RbTree::build_batch_inserts(b, ops, out, lo, hi);
    }
  };

  // Batch tail that ran off the tree: erases are no-ops, the surviving
  // inserts/assigns build their balanced subtree directly via the same
  // leveled-coloring midpoint scheme as from_sorted.
  template <class B>
  static const Node* build_batch_inserts(B& b, std::span<const BatchOp> ops,
                                         std::span<BatchOutcome> out,
                                         std::size_t lo, std::size_t hi) {
    detail::BatchIndexVec land;  // ops that insert
    detail::split_landing_ops(ops, out, lo, hi,
                              [&](std::size_t i) { land.push_back(i); });
    if (land.empty()) return nullptr;
    return build_land_rec(b, ops, land, 0, land.size(), 1,
                          levels_of(land.size()));
  }

  template <class B>
  static const Node* build_land_rec(B& b, std::span<const BatchOp> ops,
                                    const detail::BatchIndexVec& land,
                                    std::size_t lo, std::size_t hi,
                                    std::size_t depth, std::size_t levels) {
    if (lo == hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Node* l = build_land_rec(b, ops, land, lo, mid, depth + 1, levels);
    const Node* r = build_land_rec(b, ops, land, mid + 1, hi, depth + 1, levels);
    const BatchOp& op = ops[land[mid]];
    const Color c = (depth == levels && levels > 1) ? kRed : kBlack;
    return mk(b, c, l, op.key, *op.value, r);
  }
};

}  // namespace pathcopy::persist
