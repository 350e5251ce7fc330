// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "alloc/arena_alloc.hpp"
#include "alloc/malloc_alloc.hpp"
#include "core/builder.hpp"
#include "persist/batch.hpp"
#include "reclaim/retired.hpp"
#include "util/rng.hpp"

namespace pathcopy::test {

/// Standalone builder session for constructing persistent values outside
/// an Atom: commit the attempt and free the superseded nodes immediately
/// (safe single-threaded — there are no concurrent readers in tests that
/// use this).
template <class Alloc>
void commit_and_free(core::Builder<Alloc>& b) {
  b.seal();
  std::vector<reclaim::Retired> retired = b.commit();
  reclaim::run_all(retired);
}

/// Applies one structural update outside an Atom: f(builder) -> new value.
/// Superseded nodes are freed immediately.
template <class Alloc, class F>
auto apply(Alloc& alloc, F&& f) {
  core::Builder<Alloc> b(alloc);
  auto result = f(b);
  commit_and_free(b);
  return result;
}

// ----- shared sorted-batch oracle harness -----
//
// The property every SupportsSortedBatch structure is held to, written
// once (DS = persist::X<int64, int64>): a key-sorted, key-unique batch
// applied in one sweep must leave exactly the contents of applying the
// ops one at a time, report the per-op outcomes the point API would
// return, and keep the structure's own invariants (check_invariants
// audits the discipline-specific contract: treap heap order, AVL
// heights, red/black, weight balance, B-tree occupancy/depth,
// external-BST leaf/router separation).

/// Key patterns for batch generation: uniform over the whole key range
/// vs clustered runs (a few tight key neighborhoods), the regime where
/// the shared spine actually pays.
enum class BatchKeyPattern { kUniform, kClustered };

template <class DS>
typename DS::BatchOp batch_ins(std::int64_t k, std::int64_t v) {
  return typename DS::BatchOp{DS::BatchOpKind::kInsert, k, v};
}
template <class DS>
typename DS::BatchOp batch_era(std::int64_t k) {
  return typename DS::BatchOp{DS::BatchOpKind::kErase, k, std::nullopt};
}
template <class DS>
typename DS::BatchOp batch_asg(std::int64_t k, std::int64_t v) {
  return typename DS::BatchOp{DS::BatchOpKind::kAssign, k, v};
}

/// A starting version and a key-sorted, key-unique batch to apply to it.
template <class DS>
struct BatchCase {
  DS start;
  std::vector<typename DS::BatchOp> ops;
};

/// A random BatchCase: the version holds 120 random inserts over a random
/// key range; the batch has up to 41 mixed ops whose keys are uniform
/// over that range or drawn from a few tight neighborhoods of it.
template <class DS, class Alloc>
BatchCase<DS> random_batch_case(Alloc& a, util::Xoshiro256& rng,
                                BatchKeyPattern pattern) {
  const std::int64_t key_range =
      1 + static_cast<std::int64_t>(rng.range(0, 400));
  std::vector<std::int64_t> cluster_bases;
  for (int c = 0; c < 4; ++c) {
    cluster_bases.push_back(rng.range(0, key_range));
  }
  const auto gen_key = [&]() -> std::int64_t {
    if (pattern == BatchKeyPattern::kUniform) {
      return rng.range(0, key_range);
    }
    const auto base = cluster_bases[rng.below(cluster_bases.size())];
    return base + rng.range(0, 12);
  };

  BatchCase<DS> c;
  for (int i = 0; i < 120; ++i) {
    const std::int64_t k = rng.range(0, key_range);
    c.start = apply(a, [&](auto& b) { return c.start.insert(b, k, k * 7); });
  }
  const int batch_size = 1 + static_cast<int>(rng.range(0, 40));
  std::set<std::int64_t> used;
  for (int i = 0; i < batch_size; ++i) {
    const std::int64_t k = gen_key();
    if (!used.insert(k).second) continue;
    const auto roll = rng.range(0, 2);
    if (roll == 0) {
      c.ops.push_back(batch_ins<DS>(k, k * 100 + 1));
    } else if (roll == 1) {
      c.ops.push_back(batch_era<DS>(k));
    } else {
      c.ops.push_back(batch_asg<DS>(k, k * 100 + 2));
    }
  }
  std::sort(c.ops.begin(), c.ops.end(),
            [](const typename DS::BatchOp& x, const typename DS::BatchOp& y) {
              return x.key < y.key;
            });
  return c;
}

/// Randomized rounds of random_batch_case, each checked against
/// sequential per-op application (contents + outcomes) and the
/// structure's invariant audit.
template <class DS>
void batch_oracle_random(std::uint64_t seed, int rounds,
                         BatchKeyPattern pattern) {
  util::Xoshiro256 rng(seed);
  for (int round = 0; round < rounds; ++round) {
    // Arena allocator: individual frees are no-ops, so the batch and the
    // sequential reference can both be applied to the same starting
    // version (each superseding its copy of the spine) without
    // invalidating the other.
    alloc::Arena a;
    const BatchCase<DS> c = random_batch_case<DS>(a, rng, pattern);
    const auto& ops = c.ops;
    std::vector<typename DS::BatchOutcome> out(ops.size());
    DS batch = apply(
        a, [&](auto& b) { return c.start.apply_sorted_batch(b, ops, out); });
    ASSERT_TRUE(batch.check_invariants()) << "round " << round;

    // Sequential reference + expected outcomes from per-op semantics.
    DS seq = c.start;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const typename DS::BatchOp& op = ops[i];
      const bool was_present = seq.contains(op.key);
      seq = apply(a, [&](auto& b) {
        switch (op.kind) {
          case DS::BatchOpKind::kInsert:
            return seq.insert(b, op.key, *op.value);
          case DS::BatchOpKind::kErase:
            return seq.erase(b, op.key);
          default:
            return seq.insert_or_assign(b, op.key, *op.value);
        }
      });
      typename DS::BatchOutcome expect;
      switch (op.kind) {
        case DS::BatchOpKind::kInsert:
          expect = was_present ? DS::BatchOutcome::kNoop
                               : DS::BatchOutcome::kInserted;
          break;
        case DS::BatchOpKind::kErase:
          expect = was_present ? DS::BatchOutcome::kErased
                               : DS::BatchOutcome::kNoop;
          break;
        default:
          expect = was_present ? DS::BatchOutcome::kAssigned
                               : DS::BatchOutcome::kInserted;
          break;
      }
      ASSERT_EQ(out[i], expect) << "round " << round << " op " << i;
    }
    ASSERT_EQ(batch.items(), seq.items()) << "round " << round;
  }
}

// ----- shared read-path oracle harness -----

/// get_sorted_batch must answer exactly like per-key find() — present and
/// absent keys alike — and its ReadProbeStats must be internally
/// consistent: the per-key counterfactual can never be cheaper than the
/// shared sweep, and a batch of B > 1 clustered keys must actually share
/// descent (strictly positive savings on a non-trivial tree).
template <class DS>
void read_batch_oracle_random(std::uint64_t seed, int rounds,
                              BatchKeyPattern pattern) {
  util::Xoshiro256 rng(seed);
  for (int round = 0; round < rounds; ++round) {
    alloc::Arena a;
    const std::int64_t key_range =
        64 + static_cast<std::int64_t>(rng.range(0, 400));
    std::vector<std::int64_t> cluster_bases;
    for (int c = 0; c < 4; ++c) {
      cluster_bases.push_back(rng.range(0, key_range));
    }
    const auto gen_key = [&]() -> std::int64_t {
      if (pattern == BatchKeyPattern::kUniform) {
        return rng.range(0, key_range);
      }
      const auto base = cluster_bases[rng.below(cluster_bases.size())];
      return base + rng.range(0, 12);
    };

    DS t;
    for (int i = 0; i < 150; ++i) {
      const std::int64_t k = rng.range(0, key_range);
      t = apply(a, [&](auto& b) { return t.insert(b, k, k * 7); });
    }

    std::set<std::int64_t> used;
    const int batch_size = 1 + static_cast<int>(rng.range(0, 48));
    for (int i = 0; i < batch_size; ++i) used.insert(gen_key());
    const std::vector<std::int64_t> keys(used.begin(), used.end());

    std::vector<typename DS::ReadOutcome> out(keys.size());
    const persist::ReadProbeStats st = t.get_sorted_batch(
        std::span<const std::int64_t>(keys),
        std::span<typename DS::ReadOutcome>(out));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t* v = t.find(keys[i]);
      ASSERT_EQ(out[i].present(), v != nullptr)
          << "round " << round << " key " << keys[i];
      if (v != nullptr) {
        ASSERT_EQ(*out[i].value, *v) << "round " << round << " key "
                                     << keys[i];
      }
    }
    ASSERT_GE(st.per_key_nodes, st.nodes_visited) << "round " << round;
    if (keys.size() > 1 && t.size() > 8 &&
        pattern == BatchKeyPattern::kClustered) {
      EXPECT_GT(st.nodes_saved(), 0u) << "round " << round;
    }
  }
}

}  // namespace pathcopy::test
