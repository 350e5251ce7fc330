// TabletRouter: the store's router — a sorted tablet table, i.e. the
// keyspace as T half-open intervals, each *assigned* to a shard, with any
// number of tablets per shard.
//
// One tablet per shard (uniform(), from_samples()) is the plain range
// partition. A tablet table decouples topology from placement,
// Bigtable-style: the *boundaries* say where intervals start, the
// *assignment* says who serves them. Balancing then becomes
//
//   * split   — refine a hot tablet's boundaries. Owners are unchanged,
//               so the routing function is pointwise identical: the flip
//               migrates ZERO keys (the diff below is empty).
//   * reassign— hand one tablet to another shard. Only that tablet's
//               resident keys move; every other tablet — in particular
//               the whole cold mass — stays put.
//
// Shard index need not be monotone in the key (two tablets of one shard
// may straddle another shard's tablet), so ordered cross-shard reads walk
// the table in key order and read each tablet's slice from its owner
// (ShardedMap::Session::for_each_ordered / scan): the output is sorted
// under any assignment, with no merge.
//
// diff() is the migration planner's primitive: walking two tables'
// merged boundaries yields the minimal set of moving segments (maximal
// key intervals whose owner changed, with source and destination), in
// ascending key order — which is exactly the order the per-destination
// migration watermarks need.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace pathcopy::store {

/// Visits snap's (key, value) pairs inside the tablet interval [lo, hi)
/// in key order; a null bound is unbounded on that side. The one home of
/// the unbounded last tablet: half-open traversal cannot name "past the
/// maximum key", so it sweeps [lo, max) and picks max itself up with a
/// find.
template <std::integral K, class Snap, class F>
void for_each_in_tablet(const Snap& snap, const K* lo, const K* hi, F&& f) {
  const K from = lo != nullptr ? *lo : std::numeric_limits<K>::min();
  if (hi != nullptr) {
    snap.for_each_range(from, *hi, f);
    return;
  }
  const K mx = std::numeric_limits<K>::max();
  snap.for_each_range(from, mx, f);
  if (const auto* v = snap.find(mx)) f(mx, *v);
}

/// One maximal interval whose owner changes between two tablet tables.
/// nullopt bounds mean "unbounded on that side" (the first tablet has no
/// lower bound, the last no upper bound). Keys in [lo, hi) move from
/// shard `src` to shard `dst`.
template <class K>
struct TabletSegment {
  std::optional<K> lo;
  std::optional<K> hi;
  std::size_t src = 0;
  std::size_t dst = 0;
};

template <class K, class Cmp = std::less<K>>
class TabletRouter {
 public:
  /// One unbounded tablet on shard 0 (single-shard maps).
  TabletRouter() : owners_(1, 0) {}

  /// T-1 strictly increasing boundaries + T owners: tablet t covers
  /// [bounds[t-1], bounds[t]) and routes to owners[t].
  TabletRouter(std::vector<K> bounds, std::vector<std::size_t> owners)
      : bounds_(std::move(bounds)), owners_(std::move(owners)) {
    PC_ASSERT(owners_.size() == bounds_.size() + 1,
              "a tablet table with B bounds has exactly B + 1 tablets");
    Cmp cmp;
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      PC_ASSERT(cmp(bounds_[i - 1], bounds_[i]),
                "tablet bounds must be strictly increasing");
    }
  }

  /// Equal-width tablets over [lo, hi), tablet i owned by shard i — the
  /// seed topology a rebalancer refines. Keys below lo route to shard 0,
  /// keys at or above hi to the last shard. The interval arithmetic runs
  /// in unsigned 64-bit (two's-complement wrap makes hi - lo the true
  /// width for any signed lo < hi), so full-range key spaces split
  /// without signed overflow.
  static TabletRouter uniform(K lo, K hi, std::size_t shards)
    requires std::integral<K>
  {
    PC_ASSERT(shards >= 1 && lo < hi, "uniform needs shards >= 1 and lo < hi");
    const std::uint64_t width =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    PC_ASSERT(width >= shards, "uniform needs at least one key per shard");
    std::vector<K> bounds;
    bounds.reserve(shards - 1);
    for (std::size_t i = 1; i < shards; ++i) {
      // floor(width * i / shards) without the 128-bit product: the
      // remainder term re-adds what the truncated quotient dropped.
      const std::uint64_t off =
          width / shards * i + width % shards * i / shards;
      bounds.push_back(static_cast<K>(static_cast<std::uint64_t>(lo) + off));
    }
    return one_per_shard(std::move(bounds));
  }

  /// One tablet per shard at the quantiles of a sampled key distribution:
  /// bound i is the i/shards-quantile of `sorted_samples`, so each shard
  /// sees ~the same share of the offered load the sample was drawn from
  /// (a static fit of a known workload). Duplicate quantiles (a heavy
  /// hitter spanning several quantile slots) are bumped just past the
  /// previous bound, which keeps the bounds strictly increasing at the
  /// price of some near-empty shards — the honest rendering of "one key
  /// carries > 1/S of the load".
  static TabletRouter from_samples(std::span<const K> sorted_samples,
                                   std::size_t shards)
    requires std::integral<K>
  {
    PC_ASSERT(shards >= 1, "from_samples needs shards >= 1");
    PC_ASSERT(!sorted_samples.empty() || shards == 1,
              "from_samples needs a non-empty sample");
    std::vector<K> bounds;
    bounds.reserve(shards - 1);
    const std::size_t n = sorted_samples.size();
    for (std::size_t i = 1; i < shards; ++i) {
      K q = sorted_samples[i * n / shards];
      if (!bounds.empty() && q <= bounds.back()) {
        PC_ASSERT(bounds.back() < std::numeric_limits<K>::max(),
                  "sample quantiles saturate the key type");
        q = bounds.back() + 1;
      }
      bounds.push_back(q);
    }
    return one_per_shard(std::move(bounds));
  }

  std::size_t operator()(const K& key, std::size_t shards) const {
    PC_DASSERT(compatible(shards), "router references an unknown shard");
    (void)shards;
    return owners_[tablet_of(key)];
  }

  /// Compatible with any shard count that covers every assignment.
  bool compatible(std::size_t shards) const {
    for (const std::size_t o : owners_) {
      if (o >= shards) return false;
    }
    return true;
  }

  /// Index of the tablet containing `key` (the number of bounds at or
  /// below key).
  std::size_t tablet_of(const K& key) const {
    std::size_t lo = 0, hi = bounds_.size();
    Cmp cmp;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cmp(key, bounds_[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  std::size_t tablet_count() const noexcept { return owners_.size(); }
  std::size_t owner(std::size_t t) const { return owners_[t]; }
  const std::vector<K>& bounds() const noexcept { return bounds_; }

  /// Tablet t's lower/upper boundary; nullptr = unbounded on that side.
  const K* tablet_lo(std::size_t t) const {
    return t == 0 ? nullptr : &bounds_[t - 1];
  }
  const K* tablet_hi(std::size_t t) const {
    return t + 1 == owners_.size() ? nullptr : &bounds_[t];
  }

  /// Tablet counts per shard (the ShardStatsBoard's tablets/shard row).
  std::vector<std::size_t> tablets_per_shard(std::size_t shards) const {
    std::vector<std::size_t> counts(shards, 0);
    for (const std::size_t o : owners_) {
      PC_ASSERT(o < shards, "tablet assigned past the shard count");
      ++counts[o];
    }
    return counts;
  }

  /// Copy with tablet t reassigned to `shard` — the single-tablet move
  /// the continuous rebalancer flips one at a time.
  TabletRouter with_owner(std::size_t t, std::size_t shard) const {
    PC_ASSERT(t < owners_.size(), "with_owner on an unknown tablet");
    TabletRouter next = *this;
    next.owners_[t] = shard;
    return next;
  }

  /// Copy with tablet t split at `cuts` (strictly increasing, strictly
  /// inside t's interval). Every piece keeps t's owner, so the result
  /// routes pointwise identically to *this: a split-only flip migrates
  /// zero keys.
  TabletRouter with_split(std::size_t t, std::span<const K> cuts) const {
    PC_ASSERT(t < owners_.size(), "with_split on an unknown tablet");
    PC_ASSERT(!cuts.empty(), "with_split needs at least one cut");
    Cmp cmp;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      PC_ASSERT(cmp(cuts[i - 1], cuts[i]),
                "split cuts must be strictly increasing");
    }
    if (const K* lo = tablet_lo(t)) {
      PC_ASSERT(cmp(*lo, cuts.front()), "split cut at or below the tablet");
    }
    if (const K* hi = tablet_hi(t)) {
      PC_ASSERT(cmp(cuts.back(), *hi), "split cut at or above the tablet");
    }
    TabletRouter next;
    next.bounds_.clear();
    next.owners_.clear();
    next.bounds_.reserve(bounds_.size() + cuts.size());
    next.owners_.reserve(owners_.size() + cuts.size());
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      next.owners_.push_back(owners_[i]);
      if (i == t) {
        for (const K& c : cuts) {
          next.bounds_.push_back(c);
          next.owners_.push_back(owners_[t]);
        }
      }
      if (i + 1 < owners_.size()) next.bounds_.push_back(bounds_[i]);
    }
    return next;
  }

  /// Copy with adjacent same-owner tablets merged — routes pointwise
  /// identically; keeps the table from growing without bound as the
  /// hotspot moves and old refinements go cold.
  TabletRouter coalesced() const {
    TabletRouter next;
    next.bounds_.clear();
    next.owners_.clear();
    next.owners_.push_back(owners_[0]);
    for (std::size_t i = 1; i < owners_.size(); ++i) {
      if (owners_[i] == next.owners_.back()) continue;
      next.bounds_.push_back(bounds_[i - 1]);
      next.owners_.push_back(owners_[i]);
    }
    return next;
  }

  /// The minimal moving set between two tables: maximal key intervals
  /// whose owner differs, in ascending key order. Walks the merged
  /// boundary list once — each elementary interval (between two adjacent
  /// boundaries of either table) has one owner per table; consecutive
  /// elementary intervals moving src→dst coalesce into one segment.
  /// Empty iff the tables route pointwise identically (in particular for
  /// any pure split/coalesce).
  static std::vector<TabletSegment<K>> diff(const TabletRouter& from,
                                            const TabletRouter& to) {
    std::vector<TabletSegment<K>> segs;
    Cmp cmp;
    const std::vector<K>& a = from.bounds_;
    const std::vector<K>& b = to.bounds_;
    std::size_t i = 0, j = 0;  // next unconsumed boundary in a / b
    std::optional<K> cur_lo;   // lower edge of the current elementary interval
    bool prev_moved = false;   // did the previous elementary interval move?
    const auto emit = [&](std::optional<K> hi) {
      const std::size_t src = from.owners_[i];
      const std::size_t dst = to.owners_[j];
      if (src != dst) {
        if (prev_moved && segs.back().src == src && segs.back().dst == dst) {
          segs.back().hi = hi;  // adjacent, same move: extend
        } else {
          segs.push_back(TabletSegment<K>{cur_lo, hi, src, dst});
        }
        prev_moved = true;
      } else {
        prev_moved = false;
      }
      cur_lo = hi;
    };
    while (i < a.size() || j < b.size()) {
      const bool take_a =
          i < a.size() && (j >= b.size() || !cmp(b[j], a[i]));
      const bool take_b =
          j < b.size() && (i >= a.size() || !cmp(a[i], b[j]));
      emit(take_a ? a[i] : b[j]);
      if (take_a) ++i;
      if (take_b) ++j;
    }
    emit(std::nullopt);
    return segs;
  }

 private:
  /// Tablet i (of bounds.size() + 1) owned by shard i.
  static TabletRouter one_per_shard(std::vector<K> bounds) {
    std::vector<std::size_t> owners(bounds.size() + 1);
    std::iota(owners.begin(), owners.end(), std::size_t{0});
    return TabletRouter{std::move(bounds), std::move(owners)};
  }

  std::vector<K> bounds_;
  std::vector<std::size_t> owners_;
};

}  // namespace pathcopy::store
