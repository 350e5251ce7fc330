// Persistent weight-balanced tree (BB[alpha] / bounded-balance tree).
//
// The balancing scheme behind the classic functional-language ordered
// maps (Adams' trees, Haskell's Data.Map): each node keeps its subtree
// weight w = size + 1, and the invariant w(sibling) <= Delta * w(other)
// is restored by single/double rotations chosen by the Gamma criterion.
// Parameters <Delta=3, Gamma=2> are the integer pair proven correct by
// Hirai & Yamamoto (JFP 2011).
//
// Compared to the AVL tree this needs no height field (the size field
// that the rank/select API wants anyway doubles as the balance metric),
// and rotations are rarer for insert-heavy workloads — another data point
// for the structure ablation.
//
// This file owns only the weight-balance rule. Updates, rotations, the
// join behind the sorted-batch sweep (Adams' `link`, with the same
// <Delta, Gamma> criterion as the point updates) and the bulk builders
// are the rotation-balanced body shared with the AVL tree
// (persist/rotation_tree.hpp); reads are the shared binary-tree core
// (persist/binary_tree.hpp).
#pragma once

#include <cstdint>
#include <functional>

#include "core/node_base.hpp"
#include "persist/binary_tree.hpp"
#include "persist/rotation_tree.hpp"

namespace pathcopy::persist {

/// Weight-balance rule for RotationTree.
struct WbRule {
  static constexpr std::uint64_t kDelta = 3;  // sibling weight ratio bound
  static constexpr std::uint64_t kGamma = 2;  // single-vs-double rotation

  template <class K, class V>
  struct Node : core::PNode {
    K key;
    V value;
    std::uint64_t size;
    const Node* left;
    const Node* right;

    Node(const K& k, const V& v, const Node* l, const Node* r)
        : key(k), value(v),
          size(1 + detail::size_of(l) + detail::size_of(r)),
          left(l), right(r) {}
  };

  // Weight: size + 1, so empty subtrees participate in the ratio test.
  template <class N>
  static std::uint64_t weight(const N* n) noexcept {
    return detail::size_of(n) + 1;
  }

  template <class N>
  static bool too_heavy(const N* a, const N* b) noexcept {
    return weight(a) > kDelta * weight(b);
  }

  // Single rotation unless the inner grandchild is too heavy (Gamma
  // criterion), then double.
  template <class N>
  static bool single_rotation(const N* outer, const N* inner) noexcept {
    return weight(inner) < kGamma * weight(outer);
  }

  template <class N>
  static bool local_ok(const N* n) noexcept {
    return !too_heavy(n->left, n->right) && !too_heavy(n->right, n->left);
  }
};

template <class K, class V, class Cmp = std::less<K>>
using WbTree = RotationTree<WbRule, K, V, Cmp>;

}  // namespace pathcopy::persist
