// Persistent AVL tree.
//
// Demonstrates that the universal construction is agnostic to the
// sequential structure underneath: any path-copying tree plugs in. AVL
// gives worst-case O(log N) height (the treap's bound is probabilistic),
// at the price of rotations on the copied path — each rotation copies one
// extra node, which the structure ablation (E8) quantifies.
//
// This file owns only the AVL balance rule: the height augmentation and
// "sibling heights differ by at most one". Updates, rotations, the
// "just join" repair behind the sorted-batch sweep and the bulk builders
// are the rotation-balanced body shared with the weight-balanced tree
// (persist/rotation_tree.hpp); reads are the shared binary-tree core
// (persist/binary_tree.hpp). Erase pulls up the in-order successor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "core/node_base.hpp"
#include "persist/binary_tree.hpp"
#include "persist/rotation_tree.hpp"

namespace pathcopy::persist {

/// Height-balance rule for RotationTree.
struct AvlRule {
  template <class K, class V>
  struct Node : core::PNode {
    K key;
    V value;
    std::uint32_t height;
    std::uint64_t size;
    const Node* left;
    const Node* right;

    Node(const K& k, const V& v, const Node* l, const Node* r)
        : key(k), value(v),
          height(1 + std::max(height_of(l), height_of(r))),
          size(1 + detail::size_of(l) + detail::size_of(r)),
          left(l), right(r) {}
  };

  template <class N>
  static std::uint32_t height_of(const N* n) noexcept {
    return n == nullptr ? 0 : n->height;
  }

  template <class N>
  static bool too_heavy(const N* a, const N* b) noexcept {
    return height_of(a) > height_of(b) + 1;
  }

  template <class N>
  static bool single_rotation(const N* outer, const N* inner) noexcept {
    return height_of(outer) >= height_of(inner);
  }

  template <class N>
  static bool local_ok(const N* n) noexcept {
    return n->height ==
               1 + std::max(height_of(n->left), height_of(n->right)) &&
           !too_heavy(n->left, n->right) && !too_heavy(n->right, n->left);
  }
};

template <class K, class V, class Cmp = std::less<K>>
using AvlTree = RotationTree<AvlRule, K, V, Cmp>;

}  // namespace pathcopy::persist
