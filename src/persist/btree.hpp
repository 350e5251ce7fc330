// Persistent B+tree.
//
// The structure behind the multi-version indexes the paper cites as prior
// art (Sun et al., VLDB'19): all entries live in leaves, internal nodes
// route with separator keys, and path copying copies exactly one node per
// level. With fanout F the path is log_F(N) nodes — much shorter than a
// binary tree's log_2(N) — but each copied node carries F keys/pointers,
// so an update writes more bytes per level. The branching ablation bench
// sweeps F to show how the paper's cache effect responds: fewer, fatter
// uncached loads per retry versus the treap's many thin ones.
//
// Implementation notes:
//   * Nodes embed fixed std::array payloads sized by the fanout, so K and
//     V must be default-constructible and copyable (trailing slots hold
//     value-initialized elements). This keeps every node a single
//     Builder-allocatable object.
//   * Insert splits bottom-up (returning an optional split to the
//     parent); erase rebalances bottom-up (returning an underflow flag
//     that the parent repairs by borrowing from or merging with a
//     sibling). Borrow and merge copy the touched sibling — persistence
//     means siblings are never mutated in place.
//   * Size-augmented for O(log N) rank/kth/count_range, like every other
//     structure in src/persist/.
//   * Supports the sorted-batch protocol (persist/batch.hpp): ops
//     partition at separator keys and recurse; each touched node comes
//     back as a run of same-height valid nodes ("pieces") — split leaves
//     or internal nodes — that the parent stitches into its child array,
//     repairing underfull pieces with the same borrow/merge primitives
//     the point erase uses and splitting itself when the array overflows.
//     Untouched subtrees are shared by pointer; an all-noop batch returns
//     the same root with zero allocations.
#pragma once

#include <array>
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

template <class K, class V, unsigned Fanout = 8, class Cmp = std::less<K>>
class BTree {
  static_assert(Fanout >= 3, "B+tree needs at least 3-way branching");

 public:
  using KeyType = K;
  using ValueType = V;
  using KeyCompare = Cmp;
  using BatchOp = persist::BatchOp<K, V>;
  using BatchOpKind = persist::BatchOpKind;
  using ReadOutcome = persist::ReadOutcome<V>;
  using BatchOutcome = persist::BatchOutcome;
  static constexpr unsigned kMaxChildren = Fanout;
  static constexpr unsigned kMaxKeys = Fanout - 1;       // internal nodes
  static constexpr unsigned kMinChildren = (Fanout + 1) / 2;
  static constexpr unsigned kMinKeys = kMinChildren - 1;
  static constexpr unsigned kLeafCap = Fanout;           // entries per leaf
  static constexpr unsigned kLeafMin = (Fanout + 1) / 2;
  /// Advertised to the combining UC's fanout gate (ReportsBatchFanout):
  /// a landing op rewrites a whole kLeafCap-wide leaf, so unclustered
  /// batches on wide trees are priced via count_leaf_runs before the
  /// sorted sweep is taken.
  static constexpr unsigned kBatchFanout = Fanout;

  struct Node : core::PNode {
    bool is_leaf;
    std::uint16_t count;   // keys in this node
    std::uint64_t size;    // entries in this subtree
    Node(bool leaf, std::uint16_t c, std::uint64_t s)
        : is_leaf(leaf), count(c), size(s) {}
  };

  struct LeafNode : Node {
    std::array<K, kLeafCap> keys;
    std::array<V, kLeafCap> values;
    LeafNode(const K* ks, const V* vs, unsigned n)
        : Node(true, static_cast<std::uint16_t>(n), n) {
      for (unsigned i = 0; i < n; ++i) {
        keys[i] = ks[i];
        values[i] = vs[i];
      }
    }
  };

  struct InternalNode : Node {
    std::array<K, kMaxKeys> keys;                 // separators
    std::array<const Node*, kMaxChildren> child;  // count+1 children
    InternalNode(const K* ks, const Node* const* ch, unsigned nkeys)
        : Node(false, static_cast<std::uint16_t>(nkeys), 0) {
      child.fill(nullptr);
      for (unsigned i = 0; i < nkeys; ++i) keys[i] = ks[i];
      for (unsigned i = 0; i <= nkeys; ++i) {
        child[i] = ch[i];
        this->size += ch[i]->size;
      }
    }
  };

  BTree() noexcept = default;

  static BTree from_root(const void* root) noexcept {
    return BTree{static_cast<const Node*>(root)};
  }
  const void* root_ptr() const noexcept { return root_; }
  const Node* root_node() const noexcept { return root_; }

  std::size_t size() const noexcept { return root_ == nullptr ? 0 : root_->size; }
  bool empty() const noexcept { return root_ == nullptr; }

  // ----- queries -----

  const V* find(const K& key) const {
    const Node* n = root_;
    if (n == nullptr) return nullptr;
    Cmp cmp;
    while (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      n = in->child[child_index(in, key)];
    }
    const auto* leaf = static_cast<const LeafNode*>(n);
    for (unsigned i = 0; i < leaf->count; ++i) {
      if (!cmp(leaf->keys[i], key) && !cmp(key, leaf->keys[i])) {
        return &leaf->values[i];
      }
    }
    return nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Number of distinct leaves a key-sorted, key-unique batch would
  /// touch — the combining UC's clustering probe (see ReportsBatchFanout
  /// in core/combining.hpp, advertised via kBatchFanout below). Read-only,
  /// one descent per counted leaf, then a linear skip of every further
  /// batch key below that leaf's upper separator (child i of an internal
  /// node owns keys < keys[i], so the tightest such separator along the
  /// descent bounds the leaf's range).
  ///
  /// Each descent is ~height cold pointer chases, so an exact count of an
  /// unclustered batch would cost a sizeable fraction of the per-op pass
  /// it is meant to veto. max_runs caps the probe: counting stops after
  /// that many descents and *ops_covered reports how many leading batch
  /// ops the counted leaves absorbed — covered/runs estimates the batch's
  /// mean ops-per-leaf from a prefix sample, which is what the combiner's
  /// gate actually consumes. With the default cap the count is exact over
  /// the whole batch.
  unsigned count_leaf_runs(std::span<const BatchOp> ops,
                           unsigned max_runs = ~0u,
                           std::size_t* ops_covered = nullptr) const {
    std::size_t covered = ops.size();
    unsigned runs = 0;
    if (!ops.empty() && (root_ == nullptr || root_->is_leaf)) {
      runs = 1;
    } else if (!ops.empty()) {
      Cmp cmp;
      std::size_t i = 0;
      while (i < ops.size() && runs < max_runs) {
        ++runs;
        const Node* n = root_;
        const K* hi = nullptr;
        while (!n->is_leaf) {
          const auto* in = static_cast<const InternalNode*>(n);
          const unsigned c = child_index(in, ops[i].key);
          if (c < in->count) hi = &in->keys[c];
          n = in->child[c];
        }
        ++i;
        while (i < ops.size() && (hi == nullptr || cmp(ops[i].key, *hi))) ++i;
      }
      covered = i;
    }
    if (ops_covered != nullptr) *ops_covered = covered;
    return runs;
  }

  /// Smallest key, or nullptr when empty.
  const K* min_key() const {
    const Node* n = root_;
    if (n == nullptr) return nullptr;
    while (!n->is_leaf) n = static_cast<const InternalNode*>(n)->child[0];
    return &static_cast<const LeafNode*>(n)->keys[0];
  }

  /// Largest key, or nullptr when empty.
  const K* max_key() const {
    const Node* n = root_;
    if (n == nullptr) return nullptr;
    while (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      n = in->child[in->count];
    }
    const auto* leaf = static_cast<const LeafNode*>(n);
    return &leaf->keys[leaf->count - 1];
  }

  /// Number of keys strictly less than key.
  std::size_t rank(const K& key) const {
    std::size_t r = 0;
    const Node* n = root_;
    if (n == nullptr) return 0;
    Cmp cmp;
    while (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      const unsigned idx = child_index(in, key);
      for (unsigned i = 0; i < idx; ++i) r += in->child[i]->size;
      n = in->child[idx];
    }
    const auto* leaf = static_cast<const LeafNode*>(n);
    for (unsigned i = 0; i < leaf->count && cmp(leaf->keys[i], key); ++i) ++r;
    return r;
  }

  /// The i-th smallest key (0-based), or nullptr when i >= size().
  const K* kth_key(std::size_t i) const {
    const Node* n = root_;
    if (n == nullptr || i >= n->size) return nullptr;
    while (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      unsigned c = 0;
      while (i >= in->child[c]->size) {
        i -= in->child[c]->size;
        ++c;
      }
      n = in->child[c];
    }
    return &static_cast<const LeafNode*>(n)->keys[i];
  }

  /// Largest key <= key, or nullptr.
  const K* floor_key(const K& key) const {
    const std::size_t r = rank(key);  // keys strictly below `key`
    if (contains(key)) return kth_key(r);
    return r == 0 ? nullptr : kth_key(r - 1);
  }

  /// Smallest key >= key, or nullptr.
  const K* ceiling_key(const K& key) const { return kth_key(rank(key)); }

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

  /// In-order visit restricted to [lo, hi): children wholly outside the
  /// interval are pruned at their separator, so the visit costs
  /// O(hits + fanout · depth) — what makes tablet extraction proportional
  /// to the moved slice.
  template <class F>
  void for_each_range(const K& lo, const K& hi, F&& f) const {
    for_each_range_rec(root_, lo, hi, f);
  }

  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size());
    for_each([&](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  /// Descent-sharing batched lookup (see BinaryTree::get_sorted_batch): the
  /// probe range is partitioned across children at each internal node and
  /// resolved by a linear merge against the sorted entries at each leaf.
  ReadProbeStats get_sorted_batch(std::span<const K> keys,
                                  std::span<ReadOutcome> out) const {
    PC_ASSERT(out.size() >= keys.size(),
              "get_sorted_batch outcome span too small");
    check_sorted_keys<Cmp, K>(keys);
    ReadProbeStats stats;
    read_batch_rec(root_, keys, out, 0, keys.size(), stats);
    return stats;
  }

  /// Bounded range scan; see BinaryTree::scan.
  std::size_t scan(const K& lo, const K& hi, std::size_t limit,
                   std::vector<std::pair<K, V>>& out) const {
    std::size_t remaining = limit;
    scan_range_rec(root_, lo, hi, remaining, out);
    return limit - remaining;
  }

  // ----- updates -----

  template <class B>
  BTree insert(B& b, const K& key, const V& value) const {
    if (contains(key)) return *this;
    return BTree{insert_root(b, key, value)};
  }

  template <class B>
  BTree insert_or_assign(B& b, const K& key, const V& value) const {
    return BTree{insert_root(b, key, value)};
  }

  template <class B>
  BTree erase(B& b, const K& key) const {
    if (!contains(key)) return *this;
    bool underflow = false;
    const Node* n = erase_rec(b, root_, key, &underflow);
    return BTree{collapse_root(b, n)};
  }

  /// O(n) bulk construction from strictly increasing (key, value) pairs:
  /// packs the run into balanced leaves, then builds internal levels on
  /// top. Balanced packing keeps every node within [min, max] occupancy
  /// (only a single-node root may be smaller).
  template <class B, class It>
  static BTree from_sorted(B& b, It first, It last) {
    std::vector<std::pair<K, V>> items(first, last);
    check_sorted_items<Cmp>(items);
    if (items.empty()) return BTree{};
    std::vector<const Node*> nodes;
    std::vector<K> seps;
    pack_leaves(b, items, nodes, seps);
    return BTree{build_levels(b, nodes, seps)};
  }

  /// Applies a key-sorted, key-unique op batch in one path-copying sweep
  /// and reports a per-op outcome (aligned with `ops`). Contents are
  /// exactly those of applying the ops one at a time; ops partition at
  /// separator keys, untouched subtrees are shared by pointer (an
  /// all-noop batch returns the same root with zero allocations), and
  /// only the contested nodes are rebuilt — one leaf rewrite absorbs an
  /// entire op run instead of one root-to-leaf copy per op.
  template <class B>
  BTree apply_sorted_batch(B& b, std::span<const BatchOp> ops,
                           std::span<BatchOutcome> outcomes) const {
    PC_ASSERT(outcomes.size() >= ops.size(),
              "apply_sorted_batch outcome span too small");
    if (ops.empty()) return *this;
    check_sorted_batch<Cmp>(ops);
    BatchCtx ctx{ops, outcomes};
    if (root_ == nullptr) {
      return BTree{build_batch_inserts(b, ctx, 0, ops.size())};
    }
    BatchResult r = apply_rec(b, root_, ctx, 0, ops.size(), height());
    if (!r.changed) return *this;  // same version, zero allocations
    if (r.pieces.empty()) return BTree{};
    if (r.pieces.size() == 1) {
      return BTree{collapse_root(b, r.pieces.front())};
    }
    return BTree{build_levels(b, r.pieces, r.seps)};
  }

  // ----- structural utilities -----

  bool check_invariants() const {
    if (root_ == nullptr) return true;
    const CheckResult r = check_rec(root_, nullptr, nullptr, /*is_root=*/true);
    return r.ok;
  }

  std::size_t height() const {
    std::size_t h = 0;
    for (const Node* n = root_; n != nullptr;
         n = n->is_leaf ? nullptr
                        : static_cast<const InternalNode*>(n)->child[0]) {
      ++h;
    }
    return h;
  }

  static std::size_t shared_nodes(const BTree& a, const BTree& b) {
    std::unordered_set<const Node*> seen;
    collect(a.root_, seen);
    std::size_t shared = 0;
    count_shared(b.root_, seen, shared);
    return shared;
  }

  template <class Backend>
  static void destroy(const Node* n, Backend& backend) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      leaf->~LeafNode();
      backend.free_bytes(const_cast<LeafNode*>(leaf), sizeof(LeafNode),
                         alignof(LeafNode));
      return;
    }
    const auto* in = static_cast<const InternalNode*>(n);
    for (unsigned i = 0; i <= in->count; ++i) destroy(in->child[i], backend);
    in->~InternalNode();
    backend.free_bytes(const_cast<InternalNode*>(in), sizeof(InternalNode),
                       alignof(InternalNode));
  }

 private:
  explicit BTree(const Node* root) noexcept : root_(root) {}

  /// Supersedes through the node's dynamic kind: retire records carry
  /// the static type's size, so a base-typed supersede would hand the
  /// allocator sizeof(Node) for a LeafNode/InternalNode-sized block —
  /// sized-delete UB on malloc, the wrong size class on pools.
  template <class B>
  static void supersede_node(B& b, const Node* n) {
    if (n->is_leaf) {
      b.supersede(static_cast<const LeafNode*>(n));
    } else {
      b.supersede(static_cast<const InternalNode*>(n));
    }
  }

  /// Height collapse shared by the point erase and the batch apply: an
  /// internal root with a single child hands the root role down (the
  /// child is already a committed-version or fresh node — either way it
  /// is the new root), and an emptied root leaf yields the empty tree.
  template <class B>
  static const Node* collapse_root(B& b, const Node* n) {
    while (n != nullptr && !n->is_leaf && n->count == 0) {
      const auto* in = static_cast<const InternalNode*>(n);
      const Node* only = in->child[0];
      b.supersede(in);
      n = only;
    }
    if (n != nullptr && n->is_leaf && n->count == 0) {
      b.supersede(static_cast<const LeafNode*>(n));
      return nullptr;
    }
    return n;
  }

  /// Index of the child subtree that may contain `key`: the number of
  /// separators <= key (separator keys[i] is the minimum of child[i+1]).
  static unsigned child_index(const InternalNode* n, const K& key) {
    Cmp cmp;
    unsigned i = 0;
    while (i < n->count && !cmp(key, n->keys[i])) ++i;
    return i;
  }

  struct Split {
    const Node* left;
    const Node* right;  // nullptr when no split happened
    K sep;              // min key of right
  };

  template <class B>
  const Node* insert_root(B& b, const K& key, const V& value) const {
    if (root_ == nullptr) {
      return b.template create<LeafNode>(&key, &value, 1u);
    }
    const Split s = insert_rec(b, root_, key, value);
    if (s.right == nullptr) return s.left;
    const K sep = s.sep;
    const Node* ch[2] = {s.left, s.right};
    return b.template create<InternalNode>(&sep, ch, 1u);
  }

  template <class B>
  static Split insert_rec(B& b, const Node* n, const K& key, const V& value) {
    Cmp cmp;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      b.supersede(leaf);
      K ks[kLeafCap + 1];
      V vs[kLeafCap + 1];
      unsigned m = 0;
      bool placed = false;
      for (unsigned i = 0; i < leaf->count; ++i) {
        const bool eq =
            !cmp(leaf->keys[i], key) && !cmp(key, leaf->keys[i]);
        if (eq) {
          // insert_or_assign on a present key: overwrite in place.
          ks[m] = key;
          vs[m] = value;
          ++m;
          placed = true;
          continue;
        }
        if (!placed && cmp(key, leaf->keys[i])) {
          ks[m] = key;
          vs[m] = value;
          ++m;
          placed = true;
        }
        ks[m] = leaf->keys[i];
        vs[m] = leaf->values[i];
        ++m;
      }
      if (!placed) {
        ks[m] = key;
        vs[m] = value;
        ++m;
      }
      if (m <= kLeafCap) {
        return {b.template create<LeafNode>(ks, vs, m), nullptr, K{}};
      }
      const unsigned lh = (m + 1) / 2;
      const Node* left = b.template create<LeafNode>(ks, vs, lh);
      const Node* right =
          b.template create<LeafNode>(ks + lh, vs + lh, m - lh);
      return {left, right, ks[lh]};
    }
    const auto* in = static_cast<const InternalNode*>(n);
    const unsigned idx = child_index(in, key);
    const Split cs = insert_rec(b, in->child[idx], key, value);
    b.supersede(in);
    K ks[kMaxKeys + 1];
    const Node* ch[kMaxKeys + 2];
    unsigned nk = 0;
    for (unsigned i = 0; i < in->count; ++i) ks[nk++] = in->keys[i];
    for (unsigned i = 0; i <= in->count; ++i) ch[i] = in->child[i];
    ch[idx] = cs.left;
    if (cs.right != nullptr) {
      // Shift to make room for the new separator and right sibling.
      for (unsigned i = nk; i > idx; --i) ks[i] = ks[i - 1];
      for (unsigned i = nk + 1; i > idx + 1; --i) ch[i] = ch[i - 1];
      ks[idx] = cs.sep;
      ch[idx + 1] = cs.right;
      ++nk;
    }
    if (nk <= kMaxKeys) {
      return {b.template create<InternalNode>(ks, ch, nk), nullptr, K{}};
    }
    // Overflow: promote the middle separator.
    const unsigned mid = nk / 2;
    const Node* left = b.template create<InternalNode>(ks, ch, mid);
    const Node* right = b.template create<InternalNode>(
        ks + mid + 1, ch + mid + 1, nk - mid - 1);
    return {left, right, ks[mid]};
  }

  /// Erases `key` (known present) from subtree n. Sets *underflow when
  /// the returned node is below its minimum fill and needs a parent fix.
  template <class B>
  static const Node* erase_rec(B& b, const Node* n, const K& key,
                               bool* underflow) {
    Cmp cmp;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      b.supersede(leaf);
      K ks[kLeafCap];
      V vs[kLeafCap];
      unsigned m = 0;
      for (unsigned i = 0; i < leaf->count; ++i) {
        const bool eq =
            !cmp(leaf->keys[i], key) && !cmp(key, leaf->keys[i]);
        if (eq) continue;
        ks[m] = leaf->keys[i];
        vs[m] = leaf->values[i];
        ++m;
      }
      *underflow = m < kLeafMin;
      return b.template create<LeafNode>(ks, vs, m);
    }
    const auto* in = static_cast<const InternalNode*>(n);
    const unsigned idx = child_index(in, key);
    bool child_uf = false;
    const Node* nc = erase_rec(b, in->child[idx], key, &child_uf);
    b.supersede(in);
    K ks[kMaxKeys + 1];
    const Node* ch[kMaxKeys + 2];
    unsigned nk = in->count;
    for (unsigned i = 0; i < nk; ++i) ks[i] = in->keys[i];
    for (unsigned i = 0; i <= nk; ++i) ch[i] = in->child[i];
    ch[idx] = nc;
    if (child_uf) {
      fix_underflow(b, ks, ch, nk, idx);
    }
    *underflow = nk < kMinKeys;
    return b.template create<InternalNode>(ks, ch, nk);
  }

  /// Repairs ch[idx] (below minimum fill) by borrowing from a sibling or
  /// merging with one. Mutates the scratch arrays; may decrement nk.
  template <class B>
  static void fix_underflow(B& b, K* ks, const Node** ch, unsigned& nk,
                            unsigned idx) {
    // Try borrowing from the left sibling.
    if (idx > 0 && can_lend(ch[idx - 1])) {
      borrow_from_left(b, ks, ch, idx);
      return;
    }
    // Then from the right sibling.
    if (idx < nk && can_lend(ch[idx + 1])) {
      borrow_from_right(b, ks, ch, idx);
      return;
    }
    // Merge with a sibling (prefer left).
    if (idx > 0) {
      merge_children(b, ks, ch, nk, idx - 1);
    } else {
      merge_children(b, ks, ch, nk, idx);
    }
  }

  static bool can_lend(const Node* sib) {
    return sib->is_leaf ? sib->count > kLeafMin : sib->count > kMinKeys;
  }

  /// Moves the left sibling's last entry/child into the front of ch[idx].
  template <class B>
  static void borrow_from_left(B& b, K* ks, const Node** ch, unsigned idx) {
    const Node* sib = ch[idx - 1];
    const Node* cur = ch[idx];
    supersede_node(b, sib);
    supersede_node(b, cur);
    if (cur->is_leaf) {
      const auto* sl = static_cast<const LeafNode*>(sib);
      const auto* cl = static_cast<const LeafNode*>(cur);
      ch[idx - 1] = b.template create<LeafNode>(sl->keys.data(),
                                                sl->values.data(),
                                                sl->count - 1u);
      K cks[kLeafCap];
      V cvs[kLeafCap];
      cks[0] = sl->keys[sl->count - 1];
      cvs[0] = sl->values[sl->count - 1];
      for (unsigned i = 0; i < cl->count; ++i) {
        cks[i + 1] = cl->keys[i];
        cvs[i + 1] = cl->values[i];
      }
      ch[idx] = b.template create<LeafNode>(cks, cvs, cl->count + 1u);
      ks[idx - 1] = cks[0];  // separator = new min of ch[idx]
      return;
    }
    const auto* si = static_cast<const InternalNode*>(sib);
    const auto* ci = static_cast<const InternalNode*>(cur);
    // Rotate through the separator: sib's last child moves over, the old
    // separator drops into the front of cur, sib's last key replaces it.
    {
      const Node* sch[kMaxChildren];
      for (unsigned i = 0; i < si->count; ++i) sch[i] = si->child[i];
      ch[idx - 1] = b.template create<InternalNode>(si->keys.data(), sch,
                                                    si->count - 1u);
    }
    {
      K cks[kMaxKeys + 1];
      const Node* cch[kMaxChildren + 1];
      cks[0] = ks[idx - 1];
      cch[0] = si->child[si->count];
      for (unsigned i = 0; i < ci->count; ++i) cks[i + 1] = ci->keys[i];
      for (unsigned i = 0; i <= ci->count; ++i) cch[i + 1] = ci->child[i];
      ch[idx] = b.template create<InternalNode>(cks, cch, ci->count + 1u);
    }
    ks[idx - 1] = si->keys[si->count - 1];
  }

  /// Moves the right sibling's first entry/child onto the back of ch[idx].
  template <class B>
  static void borrow_from_right(B& b, K* ks, const Node** ch, unsigned idx) {
    const Node* sib = ch[idx + 1];
    const Node* cur = ch[idx];
    supersede_node(b, sib);
    supersede_node(b, cur);
    if (cur->is_leaf) {
      const auto* sl = static_cast<const LeafNode*>(sib);
      const auto* cl = static_cast<const LeafNode*>(cur);
      K cks[kLeafCap];
      V cvs[kLeafCap];
      for (unsigned i = 0; i < cl->count; ++i) {
        cks[i] = cl->keys[i];
        cvs[i] = cl->values[i];
      }
      cks[cl->count] = sl->keys[0];
      cvs[cl->count] = sl->values[0];
      ch[idx] = b.template create<LeafNode>(cks, cvs, cl->count + 1u);
      ch[idx + 1] = b.template create<LeafNode>(sl->keys.data() + 1,
                                                sl->values.data() + 1,
                                                sl->count - 1u);
      ks[idx] = sl->keys[1];  // new min of the (shrunk) right sibling
      return;
    }
    const auto* si = static_cast<const InternalNode*>(sib);
    const auto* ci = static_cast<const InternalNode*>(cur);
    {
      K cks[kMaxKeys + 1];
      const Node* cch[kMaxChildren + 1];
      for (unsigned i = 0; i < ci->count; ++i) cks[i] = ci->keys[i];
      for (unsigned i = 0; i <= ci->count; ++i) cch[i] = ci->child[i];
      cks[ci->count] = ks[idx];
      cch[ci->count + 1] = si->child[0];
      ch[idx] = b.template create<InternalNode>(cks, cch, ci->count + 1u);
    }
    {
      const Node* sch[kMaxChildren];
      for (unsigned i = 1; i <= si->count; ++i) sch[i - 1] = si->child[i];
      ch[idx + 1] = b.template create<InternalNode>(si->keys.data() + 1, sch,
                                                    si->count - 1u);
    }
    ks[idx] = si->keys[0];
  }

  /// Merges ch[at] and ch[at+1] (with the separator between them, for
  /// internal children) into one node; closes the gap in ks/ch.
  template <class B>
  static void merge_children(B& b, K* ks, const Node** ch, unsigned& nk,
                             unsigned at) {
    const Node* l = ch[at];
    const Node* r = ch[at + 1];
    supersede_node(b, l);
    supersede_node(b, r);
    if (l->is_leaf) {
      const auto* ll = static_cast<const LeafNode*>(l);
      const auto* rl = static_cast<const LeafNode*>(r);
      K mks[kLeafCap];
      V mvs[kLeafCap];
      unsigned m = 0;
      for (unsigned i = 0; i < ll->count; ++i) {
        mks[m] = ll->keys[i];
        mvs[m] = ll->values[i];
        ++m;
      }
      for (unsigned i = 0; i < rl->count; ++i) {
        mks[m] = rl->keys[i];
        mvs[m] = rl->values[i];
        ++m;
      }
      ch[at] = b.template create<LeafNode>(mks, mvs, m);
    } else {
      const auto* li = static_cast<const InternalNode*>(l);
      const auto* ri = static_cast<const InternalNode*>(r);
      K mks[kMaxKeys + 1];
      const Node* mch[kMaxChildren + 1];
      unsigned m = 0;
      for (unsigned i = 0; i < li->count; ++i) mks[m++] = li->keys[i];
      mks[m++] = ks[at];  // separator drops down between the halves
      for (unsigned i = 0; i < ri->count; ++i) mks[m++] = ri->keys[i];
      for (unsigned i = 0; i <= li->count; ++i) mch[i] = li->child[i];
      for (unsigned i = 0; i <= ri->count; ++i) {
        mch[li->count + 1 + i] = ri->child[i];
      }
      ch[at] = b.template create<InternalNode>(mks, mch, m);
    }
    // Close the gap: separator ks[at] and slot ch[at+1] disappear.
    for (unsigned i = at; i + 1 < nk; ++i) ks[i] = ks[i + 1];
    for (unsigned i = at + 1; i + 1 <= nk; ++i) ch[i] = ch[i + 1];
    --nk;
  }

  // ----- bulk construction and sorted-batch application -----

  struct BatchCtx {
    std::span<const BatchOp> ops;
    std::span<BatchOutcome> out;
  };

  /// Result of applying a sub-batch to one subtree: `pieces` are nodes of
  /// uniform height `height` (<= the input subtree's height — mass erases
  /// collapse levels), fully valid below their top level; only the top of
  /// a single-piece result may be underfull (the parent repairs it by
  /// grafting/merging, and at the root it is legal outright — multi-piece
  /// runs are always repaired before being returned). `seps[i]` separates
  /// pieces[i] and pieces[i+1]. `changed == false` means the subtree is
  /// shared untouched (pieces == {n}, nothing allocated).
  struct BatchResult {
    std::vector<const Node*> pieces;
    std::vector<K> seps;
    std::size_t height = 0;
    bool changed = false;
  };

  /// One or two same-height nodes (b == nullptr when one) — what a spine
  /// graft hands back to its caller level.
  struct MiniRun {
    const Node* a;
    const Node* b;
    K sep;
  };

  static bool below_min(const Node* n) noexcept {
    return n->is_leaf ? n->count < kLeafMin : n->count < kMinKeys;
  }

  /// Packs sorted entries into ceil(m / kLeafCap) balanced leaves; every
  /// leaf lands in [kLeafMin, kLeafCap] whenever m >= kLeafMin (balanced
  /// distribution arithmetic), so only a lone tiny run yields an
  /// underfull (single) piece.
  template <class B>
  static void pack_leaves(B& b, const std::vector<std::pair<K, V>>& items,
                          std::vector<const Node*>& nodes,
                          std::vector<K>& seps) {
    const std::size_t m = items.size();
    const std::size_t groups = (m + kLeafCap - 1) / kLeafCap;
    const std::size_t base = m / groups;
    const std::size_t extra = m % groups;
    std::size_t at = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t take = base + (g < extra ? 1 : 0);
      K ks[kLeafCap];
      V vs[kLeafCap];
      for (std::size_t j = 0; j < take; ++j) {
        ks[j] = items[at + j].first;
        vs[j] = items[at + j].second;
      }
      if (g > 0) seps.push_back(items[at].first);
      nodes.push_back(
          b.template create<LeafNode>(ks, vs, static_cast<unsigned>(take)));
      at += take;
    }
  }

  /// Packs a same-height child run (with separators between children)
  /// into one internal level; boundary separators between groups are
  /// promoted into `seps`. A single output node may be underfull — the
  /// single-piece exception again.
  template <class B>
  static void pack_internals(B& b, const std::vector<K>& ks,
                             const std::vector<const Node*>& ch,
                             std::vector<const Node*>& nodes,
                             std::vector<K>& seps) {
    const std::size_t m = ch.size();
    const std::size_t groups = (m + kMaxChildren - 1) / kMaxChildren;
    const std::size_t base = m / groups;
    const std::size_t extra = m % groups;
    std::size_t at = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t take = base + (g < extra ? 1 : 0);
      if (g > 0) seps.push_back(ks[at - 1]);
      nodes.push_back(b.template create<InternalNode>(
          ks.data() + at, ch.data() + at, static_cast<unsigned>(take - 1)));
      at += take;
    }
  }

  /// Stacks internal levels on top of same-height `nodes` until one root
  /// remains. Consumes its arguments.
  template <class B>
  static const Node* build_levels(B& b, std::vector<const Node*>& nodes,
                                  std::vector<K>& seps) {
    while (nodes.size() > 1) {
      std::vector<const Node*> up;
      std::vector<K> up_seps;
      pack_internals(b, seps, nodes, up, up_seps);
      nodes = std::move(up);
      seps = std::move(up_seps);
    }
    return nodes.empty() ? nullptr : nodes.front();
  }

  /// Repairs underfull pieces in a child run with the point-erase
  /// borrow/merge primitives until every piece meets its minimum or a
  /// single piece remains. Borrow strictly shrinks the total deficiency
  /// and merge shrinks the run, so the loop terminates.
  template <class B>
  static void fix_pieces(B& b, std::vector<K>& ks,
                         std::vector<const Node*>& ch) {
    bool again = ch.size() > 1;
    while (again) {
      again = false;
      for (std::size_t i = 0; i < ch.size() && ch.size() > 1; ++i) {
        if (!below_min(ch[i])) continue;
        unsigned nk = static_cast<unsigned>(ks.size());
        fix_underflow(b, ks.data(), ch.data(), nk, static_cast<unsigned>(i));
        if (nk < ks.size()) {
          ks.pop_back();
          ch.pop_back();
        }
        again = true;
        break;
      }
    }
  }

  /// Attaches subtree P (d levels shorter than N, valid below its
  /// possibly-underfull top) to the right edge of N, separated by `s`:
  /// N's right spine is path-copied, P joins as the last child of the
  /// spine node one level above it, underfull tops are repaired against
  /// their new left sibling, and an overflowing level splits — returning
  /// one or two nodes at N's height.
  template <class B>
  static MiniRun attach_right(B& b, const Node* n, const K& s, const Node* p,
                              std::size_t d) {
    const auto* in = static_cast<const InternalNode*>(n);
    b.supersede(in);
    K ks[kMaxKeys + 2];
    const Node* ch[kMaxChildren + 2];
    unsigned nk = in->count;
    for (unsigned i = 0; i < nk; ++i) ks[i] = in->keys[i];
    for (unsigned i = 0; i <= nk; ++i) ch[i] = in->child[i];
    if (d == 1) {
      ks[nk] = s;
      ch[nk + 1] = p;
      ++nk;
      // Repair the grafted child (and any merge fallout) at the edge;
      // each borrow shrinks its deficiency, each merge absorbs it into a
      // valid sibling, so the loop is bounded.
      while (nk > 0 && below_min(ch[nk])) {
        fix_underflow(b, ks, ch, nk, nk);
      }
    } else {
      const MiniRun sub = attach_right(b, ch[nk], s, p, d - 1);
      ch[nk] = sub.a;
      if (sub.b != nullptr) {
        ks[nk] = sub.sep;
        ch[nk + 1] = sub.b;
        ++nk;
      }
    }
    if (nk <= kMaxKeys) {
      return {b.template create<InternalNode>(ks, ch, nk), nullptr, K{}};
    }
    const unsigned mid = nk / 2;
    const Node* left = b.template create<InternalNode>(ks, ch, mid);
    const Node* right = b.template create<InternalNode>(ks + mid + 1,
                                                        ch + mid + 1,
                                                        nk - mid - 1);
    return {left, right, ks[mid]};
  }

  /// Mirror image: attaches P to the left edge of N.
  template <class B>
  static MiniRun attach_left(B& b, const Node* n, const K& s, const Node* p,
                             std::size_t d) {
    const auto* in = static_cast<const InternalNode*>(n);
    b.supersede(in);
    K ks[kMaxKeys + 2];
    const Node* ch[kMaxChildren + 2];
    unsigned nk = in->count;
    for (unsigned i = 0; i < nk; ++i) ks[i + 1] = in->keys[i];
    for (unsigned i = 0; i <= nk; ++i) ch[i + 1] = in->child[i];
    if (d == 1) {
      ks[0] = s;
      ch[0] = p;
      ++nk;
      while (nk > 0 && below_min(ch[0])) {
        fix_underflow(b, ks, ch, nk, 0);
      }
    } else {
      const MiniRun sub = attach_left(b, ch[1], s, p, d - 1);
      if (sub.b != nullptr) {
        ch[0] = sub.a;
        ks[0] = sub.sep;
        ch[1] = sub.b;
        ++nk;
      } else {
        // No split: shift back down into the original layout.
        for (unsigned i = 0; i < nk; ++i) ks[i] = ks[i + 1];
        for (unsigned i = 0; i <= nk; ++i) ch[i] = ch[i + 1];
        ch[0] = sub.a;
      }
    }
    if (nk <= kMaxKeys) {
      return {b.template create<InternalNode>(ks, ch, nk), nullptr, K{}};
    }
    const unsigned mid = nk / 2;
    const Node* left = b.template create<InternalNode>(ks, ch, mid);
    const Node* right = b.template create<InternalNode>(ks + mid + 1,
                                                        ch + mid + 1,
                                                        nk - mid - 1);
    return {left, right, ks[mid]};
  }

  template <class B>
  static BatchResult apply_rec(B& b, const Node* n, BatchCtx& ctx,
                               std::size_t lo, std::size_t hi,
                               std::size_t height) {
    if (n->is_leaf) {
      return apply_leaf(b, static_cast<const LeafNode*>(n), ctx, lo, hi);
    }
    return apply_internal(b, static_cast<const InternalNode*>(n), ctx, lo, hi,
                          height);
  }

  /// Merge-joins the leaf's entries with its op run, reporting outcomes;
  /// an untouched leaf is shared, a touched one is repacked into
  /// balanced leaves.
  template <class B>
  static BatchResult apply_leaf(B& b, const LeafNode* leaf, BatchCtx& ctx,
                                std::size_t lo, std::size_t hi) {
    Cmp cmp;
    std::vector<std::pair<K, V>> merged;
    merged.reserve(leaf->count + (hi - lo));
    bool changed = false;
    unsigned e = 0;
    std::size_t i = lo;
    while (e < leaf->count || i < hi) {
      if (i == hi) {
        merged.emplace_back(leaf->keys[e], leaf->values[e]);
        ++e;
        continue;
      }
      const BatchOp& op = ctx.ops[i];
      if (e == leaf->count || cmp(op.key, leaf->keys[e])) {
        // The op's key is absent from the leaf.
        if (op.kind == BatchOpKind::kErase) {
          ctx.out[i] = BatchOutcome::kNoop;
        } else {
          ctx.out[i] = BatchOutcome::kInserted;
          merged.emplace_back(op.key, *op.value);
          changed = true;
        }
        ++i;
        continue;
      }
      if (cmp(leaf->keys[e], op.key)) {
        merged.emplace_back(leaf->keys[e], leaf->values[e]);
        ++e;
        continue;
      }
      switch (op.kind) {  // op.key present at entry e
        case BatchOpKind::kInsert:
          ctx.out[i] = BatchOutcome::kNoop;  // set-style: value kept
          merged.emplace_back(leaf->keys[e], leaf->values[e]);
          break;
        case BatchOpKind::kErase:
          ctx.out[i] = BatchOutcome::kErased;
          changed = true;
          break;
        case BatchOpKind::kAssign:
          ctx.out[i] = BatchOutcome::kAssigned;
          merged.emplace_back(op.key, *op.value);
          changed = true;
          break;
      }
      ++e;
      ++i;
    }
    BatchResult res;
    res.changed = changed;
    res.height = 1;
    if (!changed) {
      res.pieces.push_back(leaf);
      return res;
    }
    b.supersede(leaf);
    if (merged.empty()) {
      res.height = 0;
    } else {
      pack_leaves(b, merged, res.pieces, res.seps);
    }
    return res;
  }

  /// Partitions the op run at the separators, recurses per child, and
  /// stitches the piece runs back together: old separators survive
  /// between pieces of different children (all new content stays inside
  /// its old routing range), split separators arrive with the pieces,
  /// and height-collapsed results are grafted onto a taller neighbor's
  /// spine instead of being wrapped in hollow nodes.
  template <class B>
  static BatchResult apply_internal(B& b, const InternalNode* in,
                                    BatchCtx& ctx, std::size_t lo,
                                    std::size_t hi, std::size_t height) {
    Cmp cmp;
    std::array<std::size_t, kMaxChildren + 1> pos;
    pos[0] = lo;
    for (unsigned c = 0; c < in->count; ++c) {
      // First op with key >= keys[c] (such keys route right of child c).
      std::size_t a = pos[c], z = hi;
      while (a < z) {
        const std::size_t mid = a + (z - a) / 2;
        if (cmp(ctx.ops[mid].key, in->keys[c])) {
          a = mid + 1;
        } else {
          z = mid;
        }
      }
      pos[c + 1] = a;
    }
    pos[in->count + 1] = hi;

    std::array<BatchResult, kMaxChildren> results;  // touched children only
    bool any_changed = false;
    for (unsigned c = 0; c <= in->count; ++c) {
      if (pos[c] != pos[c + 1]) {
        results[c] =
            apply_rec(b, in->child[c], ctx, pos[c], pos[c + 1], height - 1);
        any_changed |= results[c].changed;
      }
    }
    BatchResult res;
    res.height = height;
    if (!any_changed) {
      res.pieces.push_back(in);
      return res;
    }
    res.changed = true;
    b.supersede(in);

    // Assemble left to right at a running height, grafting the shorter
    // side onto the taller side's edge whenever heights disagree.
    // Untouched children contribute themselves directly (no run is
    // materialized for them).
    std::vector<const Node*> run;
    std::vector<K> run_seps;
    std::size_t run_h = 0;
    for (unsigned c = 0; c <= in->count; ++c) {
      const Node* self = in->child[c];  // shared as-is when untouched
      const Node* const* nodes = &self;
      const K* seps = nullptr;
      std::size_t count = 1;
      std::size_t hc = height - 1;
      if (pos[c] != pos[c + 1]) {
        const BatchResult& rc = results[c];
        if (rc.pieces.empty()) continue;  // child fully erased
        nodes = rc.pieces.data();
        seps = rc.seps.data();
        count = rc.pieces.size();
        hc = rc.height;
      }
      if (run.empty()) {
        run.assign(nodes, nodes + count);
        run_seps.assign(seps, seps + (count > 1 ? count - 1 : 0));
        run_h = hc;
        continue;
      }
      const K sep = in->keys[c - 1];  // routing bound between old children
      if (run_h < hc) {
        // The accumulated run is shorter than the incoming pieces: raise
        // it level by level (only ever wrapping repaired multi-runs — a
        // lone piece with an underfull top must never be wrapped) until
        // it matches or collapses to a single graftable node.
        while (run.size() > 1 && run_h < hc) {
          fix_pieces(b, run_seps, run);
          if (run.size() == 1) break;
          std::vector<const Node*> up;
          std::vector<K> up_seps;
          pack_internals(b, run_seps, run, up, up_seps);
          run = std::move(up);
          run_seps = std::move(up_seps);
          ++run_h;
        }
        if (run_h < hc) {
          const MiniRun m =
              attach_left(b, nodes[0], sep, run.front(), hc - run_h);
          run.clear();
          run_seps.clear();
          run.push_back(m.a);
          if (m.b != nullptr) {
            run_seps.push_back(m.sep);
            run.push_back(m.b);
          }
          for (std::size_t j = 1; j < count; ++j) {
            run_seps.push_back(seps[j - 1]);
            run.push_back(nodes[j]);
          }
          run_h = hc;
          continue;
        }
      }
      if (run_h == hc) {
        run_seps.push_back(sep);
        for (std::size_t j = 0; j < count; ++j) {
          if (j > 0) run_seps.push_back(seps[j - 1]);
          run.push_back(nodes[j]);
        }
      } else {
        // Incoming collapsed below the run: a single piece to graft onto
        // the run's right edge.
        const MiniRun m = attach_right(b, run.back(), sep, nodes[0],
                                       run_h - hc);
        run.back() = m.a;
        if (m.b != nullptr) {
          run_seps.push_back(m.sep);
          run.push_back(m.b);
        }
      }
    }
    if (run.empty()) {
      res.height = 0;
      return res;  // the whole subtree vanished
    }
    // Normalize back up to this node's height; stop early if the run
    // collapses to one node — that is the height-dropped result the
    // parent grafts (or the root adopts).
    while (run_h < height && run.size() > 1) {
      fix_pieces(b, run_seps, run);
      if (run.size() == 1) break;
      std::vector<const Node*> up;
      std::vector<K> up_seps;
      pack_internals(b, run_seps, run, up, up_seps);
      run = std::move(up);
      run_seps = std::move(up_seps);
      ++run_h;
    }
    if (run.size() > 1) fix_pieces(b, run_seps, run);
    res.pieces = std::move(run);
    res.seps = std::move(run_seps);
    res.height = run_h;
    return res;
  }

  // Batch aimed at an empty tree: erases are no-ops, the surviving
  // inserts/assigns bulk-build their tree through the same packers as
  // from_sorted.
  template <class B>
  static const Node* build_batch_inserts(B& b, BatchCtx& ctx, std::size_t lo,
                                         std::size_t hi) {
    std::vector<std::pair<K, V>> run;
    run.reserve(hi - lo);
    detail::split_landing_ops(ctx.ops, ctx.out, lo, hi, [&](std::size_t i) {
      run.emplace_back(ctx.ops[i].key, *ctx.ops[i].value);
    });
    if (run.empty()) return nullptr;
    std::vector<const Node*> nodes;
    std::vector<K> seps;
    pack_leaves(b, run, nodes, seps);
    return build_levels(b, nodes, seps);
  }

  template <class F>
  static void for_each_rec(const Node* n, F& f) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      for (unsigned i = 0; i < leaf->count; ++i) {
        f(leaf->keys[i], leaf->values[i]);
      }
      return;
    }
    const auto* in = static_cast<const InternalNode*>(n);
    for (unsigned i = 0; i <= in->count; ++i) for_each_rec(in->child[i], f);
  }

  // Read-side twin of apply_sorted_batch's partition walk: probe keys
  // strictly below separator keys[c] belong to child c (equal-to-separator
  // descends rightward, matching child_index), found by binary search so
  // the fan-out split costs O(fanout · log B) per internal node. Leaves
  // resolve their slice with one linear merge of two sorted runs. The
  // per_key_nodes counter follows the same exactness argument as the
  // binary-tree sweep: key k's own descent visits node n iff k lies in
  // n's partition range.
  static void read_batch_rec(const Node* n, std::span<const K> keys,
                             std::span<ReadOutcome> out, std::size_t lo,
                             std::size_t hi, ReadProbeStats& stats) {
    if (lo == hi || n == nullptr) return;
    stats.nodes_visited += 1;
    stats.per_key_nodes += hi - lo;
    Cmp cmp;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      unsigned i = 0;
      for (std::size_t k = lo; k < hi; ++k) {
        while (i < leaf->count && cmp(leaf->keys[i], keys[k])) ++i;
        if (i < leaf->count && !cmp(keys[k], leaf->keys[i])) {
          out[k].value = leaf->values[i];
        }
      }
      return;
    }
    const auto* in = static_cast<const InternalNode*>(n);
    std::size_t k = lo;
    for (unsigned c = 0; c <= in->count && k < hi; ++c) {
      std::size_t e = hi;
      if (c < in->count) {
        std::size_t a = k, z = hi;
        while (a < z) {
          const std::size_t mid = a + (z - a) / 2;
          if (cmp(keys[mid], in->keys[c])) {
            a = mid + 1;
          } else {
            z = mid;
          }
        }
        e = a;
      }
      read_batch_rec(in->child[c], keys, out, k, e, stats);
      k = e;
    }
  }

  // Bounded variant of for_each_range_rec: same separator pruning, but
  // stops dead once `remaining` hits zero.
  static void scan_range_rec(const Node* n, const K& lo, const K& hi,
                             std::size_t& remaining,
                             std::vector<std::pair<K, V>>& out) {
    if (n == nullptr || remaining == 0) return;
    Cmp cmp;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      for (unsigned i = 0; i < leaf->count && remaining > 0; ++i) {
        if (cmp(leaf->keys[i], lo)) continue;
        if (!cmp(leaf->keys[i], hi)) return;
        out.emplace_back(leaf->keys[i], leaf->values[i]);
        --remaining;
      }
      return;
    }
    const auto* in = static_cast<const InternalNode*>(n);
    for (unsigned i = 0; i <= in->count && remaining > 0; ++i) {
      if (i > 0 && !cmp(in->keys[i - 1], hi)) return;       // child >= hi
      if (i < in->count && !cmp(lo, in->keys[i])) continue;  // child <= lo
      scan_range_rec(in->child[i], lo, hi, remaining, out);
    }
  }

  // Child i serves [keys[i-1], keys[i]) (descent sends a key equal to a
  // separator rightward), so a child is skippable exactly when its upper
  // separator is <= lo or its lower separator is >= hi.
  template <class F>
  static void for_each_range_rec(const Node* n, const K& lo, const K& hi,
                                 F& f) {
    if (n == nullptr) return;
    Cmp cmp;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      for (unsigned i = 0; i < leaf->count; ++i) {
        if (cmp(leaf->keys[i], lo)) continue;
        if (!cmp(leaf->keys[i], hi)) return;
        f(leaf->keys[i], leaf->values[i]);
      }
      return;
    }
    const auto* in = static_cast<const InternalNode*>(n);
    for (unsigned i = 0; i <= in->count; ++i) {
      if (i > 0 && !cmp(in->keys[i - 1], hi)) return;       // child >= hi
      if (i < in->count && !cmp(lo, in->keys[i])) continue;  // child <= lo
      for_each_range_rec(in->child[i], lo, hi, f);
    }
  }

  struct CheckResult {
    bool ok;
    std::uint64_t size;
    std::size_t depth;  // uniform leaf depth
  };

  static CheckResult check_rec(const Node* n, const K* lo, const K* hi,
                               bool is_root) {
    Cmp cmp;
    if (n->pc_state_ != core::NodeState::kPublished) return {false, 0, 0};
    if (n->is_leaf) {
      const auto* leaf = static_cast<const LeafNode*>(n);
      if (!is_root && leaf->count < kLeafMin) return {false, 0, 0};
      if (leaf->count > kLeafCap || (is_root && leaf->count == 0)) {
        return {false, 0, 0};
      }
      for (unsigned i = 0; i < leaf->count; ++i) {
        if (i > 0 && !cmp(leaf->keys[i - 1], leaf->keys[i])) {
          return {false, 0, 0};
        }
        if (lo != nullptr && cmp(leaf->keys[i], *lo)) return {false, 0, 0};
        if (hi != nullptr && !cmp(leaf->keys[i], *hi)) return {false, 0, 0};
      }
      if (leaf->size != leaf->count) return {false, 0, 0};
      return {true, leaf->size, 1};
    }
    const auto* in = static_cast<const InternalNode*>(n);
    if (!is_root && in->count < kMinKeys) return {false, 0, 0};
    if (is_root && in->count == 0) return {false, 0, 0};
    if (in->count > kMaxKeys) return {false, 0, 0};
    std::uint64_t total = 0;
    std::size_t depth = 0;
    for (unsigned i = 0; i <= in->count; ++i) {
      if (i > 0 && i < in->count && !cmp(in->keys[i - 1], in->keys[i])) {
        return {false, 0, 0};
      }
      const K* clo = i == 0 ? lo : &in->keys[i - 1];
      const K* chi = i == in->count ? hi : &in->keys[i];
      const CheckResult r = check_rec(in->child[i], clo, chi, false);
      if (!r.ok) return {false, 0, 0};
      if (i == 0) {
        depth = r.depth;
      } else if (r.depth != depth) {
        return {false, 0, 0};
      }
      total += r.size;
    }
    if (total != in->size) return {false, 0, 0};
    return {true, total, depth + 1};
  }

  static void collect(const Node* n, std::unordered_set<const Node*>& out) {
    if (n == nullptr) return;
    out.insert(n);
    if (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      for (unsigned i = 0; i <= in->count; ++i) collect(in->child[i], out);
    }
  }

  static void count_shared(const Node* n,
                           const std::unordered_set<const Node*>& in_set,
                           std::size_t& shared) {
    if (n == nullptr) return;
    if (in_set.contains(n)) {
      shared += n->size;
      return;
    }
    if (!n->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(n);
      for (unsigned i = 0; i <= in->count; ++i) {
        count_shared(in->child[i], in_set, shared);
      }
    }
  }

  const Node* root_ = nullptr;
};

}  // namespace pathcopy::persist
