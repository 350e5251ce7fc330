// TabletRouter properties (store/tablet_router.hpp) and the continuous
// migration throttle (store/rebalancer.hpp).
//
// uniform() and from_samples() build one tablet per shard: a monotone,
// half-open partition (from_samples additionally fits the sample's
// quantiles).
//
// The router is the continuous rebalancer's planning substrate, so the
// properties under test are exactly what migration correctness leans on:
//   * every key routes to exactly one shard, inside the shard count;
//   * coverage is a half-open partition — tablet index is monotone in
//     the key and a boundary key belongs to the tablet on its right;
//   * split and coalesce preserve the partition pointwise (so a
//     boundary-only flip migrates zero keys — diff() must be empty);
//   * a single-tablet reassignment's diff covers exactly that tablet;
//   * diff() agrees with the pointwise owner comparison on arbitrary
//     table pairs (segments ascending, disjoint, minimal).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "store/rebalancer.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using TR = store::TabletRouter<std::int64_t>;
using Seg = store::TabletSegment<std::int64_t>;

constexpr std::int64_t kSpace = 1 << 20;

/// A random tablet table: strictly increasing bounds drawn from the
/// keyspace, owners drawn from [0, shards).
TR random_table(util::Xoshiro256& rng, std::size_t tablets,
                std::size_t shards) {
  std::vector<std::int64_t> bounds;
  std::int64_t prev = 0;
  for (std::size_t i = 1; i < tablets; ++i) {
    prev += 1 + rng.range(0, kSpace / static_cast<std::int64_t>(tablets));
    bounds.push_back(prev);
  }
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < tablets; ++i) {
    owners.push_back(static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(shards) - 1)));
  }
  return TR{std::move(bounds), std::move(owners)};
}

/// Does `key` fall inside segment sg?
bool in_segment(const Seg& sg, std::int64_t key) {
  if (sg.lo.has_value() && key < *sg.lo) return false;
  if (sg.hi.has_value() && key >= *sg.hi) return false;
  return true;
}

TEST(TabletRouter, DefaultRoutesEverythingToShardZero) {
  const TR r;
  EXPECT_EQ(r.tablet_count(), 1u);
  EXPECT_TRUE(r.compatible(1));
  EXPECT_TRUE(r.compatible(7));
  for (const std::int64_t k : {std::int64_t{-100}, std::int64_t{0},
                               std::int64_t{1} << 40}) {
    EXPECT_EQ(r(k, 1), 0u);
  }
}

/// One tablet per shard, tablet i on shard i: routing is monotone in the
/// key, every shard is reached, and bound i - 1 itself belongs to shard i
/// (half-open [bounds[i-1], bounds[i]); keys below the first bound go to
/// shard 0).
void expect_one_per_shard(const TR& r, std::size_t shards) {
  ASSERT_TRUE(r.compatible(shards));
  ASSERT_EQ(r.tablet_count(), shards);
  ASSERT_EQ(r.bounds().size(), shards - 1);
  for (std::size_t t = 0; t < shards; ++t) ASSERT_EQ(r.owner(t), t);
  for (std::size_t i = 1; i < r.bounds().size(); ++i) {
    ASSERT_LT(r.bounds()[i - 1], r.bounds()[i]);
  }
  if (shards == 1) return;
  ASSERT_EQ(r(r.bounds().front() - 1, shards), 0u);
  for (std::size_t s = 1; s < shards; ++s) {
    ASSERT_EQ(r(r.bounds()[s - 1], shards), s);
    ASSERT_EQ(r(r.bounds()[s - 1] - 1, shards), s - 1);
  }
}

TEST(TabletRouter, UniformIsMonotoneHalfOpenOneTabletPerShard) {
  const TR r = TR::uniform(0, kSpace, 8);
  expect_one_per_shard(r, 8);
  std::size_t prev = 0;
  std::array<bool, 8> hit{};
  for (std::int64_t k = -50; k < kSpace + 50; k += 97) {
    const std::size_t s = r(k, 8);
    ASSERT_GE(s, prev) << "uniform table must be monotone at key " << k;
    prev = s;
    hit[s] = true;
  }
  for (const bool h : hit) EXPECT_TRUE(h);
  // Equal widths: bound i sits at i/8 of the space.
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(r.bounds()[i - 1], static_cast<std::int64_t>(kSpace / 8 * i));
  }
}

TEST(TabletRouter, UniformSplitsFullWidthRangesWithoutOverflow) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const TR r = TR::uniform(kMin, kMax, 8);
  expect_one_per_shard(r, 8);
  EXPECT_EQ(r(kMin, 8), 0u);
  EXPECT_EQ(r(0, 8), 4u);  // midpoint lands in the middle shard
  EXPECT_EQ(r(kMax, 8), 7u);
}

// Fitted bounds must satisfy every invariant the uniform ones do — plus
// the fitting property (each shard draws ~an equal share of the sampled
// load) and graceful degeneration under heavy duplication.
TEST(TabletRouter, FromSamplesFitsQuantilesAndKeepsRouterInvariants) {
  util::Xoshiro256 rng(99);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    // A skewed sample: half the mass in [0, 100), the rest spread wide.
    std::vector<std::int64_t> sample;
    for (int i = 0; i < 4096; ++i) {
      sample.push_back(rng.chance(1, 2) ? rng.range(0, 99)
                                        : rng.range(100, 1 << 20));
    }
    std::sort(sample.begin(), sample.end());
    const TR r =
        TR::from_samples(std::span<const std::int64_t>(sample), shards);
    expect_one_per_shard(r, shards);
    std::vector<std::size_t> load(shards, 0);
    for (const std::int64_t k : sample) ++load[r(k, shards)];
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GE(load[s] * shards * 2, sample.size())
          << "shard " << s << " got far less than half its fair share";
      EXPECT_LE(load[s] * shards, 2 * sample.size())
          << "shard " << s << " got more than twice its fair share";
    }
  }
}

TEST(TabletRouter, FromSamplesSurvivesHeavyDuplication) {
  // One heavy hitter spanning every quantile: bounds are bumped past each
  // other, so the table stays a valid partition even though most shards
  // end up near-empty.
  std::vector<std::int64_t> sample(1000, 42);
  sample.push_back(1000);
  const TR r = TR::from_samples(std::span<const std::int64_t>(sample), 4);
  expect_one_per_shard(r, 4);
  EXPECT_EQ(r(42, 4), 1u);  // the heavy key opens shard 1's tablet
}

TEST(TabletRouter, FromSamplesSingleShardAndTinySamples) {
  const std::vector<std::int64_t> one{7};
  const TR r1 = TR::from_samples(std::span<const std::int64_t>(one), 1);
  expect_one_per_shard(r1, 1);
  EXPECT_EQ(r1(std::int64_t{-100}, 1), 0u);
  // Fewer distinct samples than shards: padding keeps the partition valid.
  const std::vector<std::int64_t> tiny{5, 5, 5};
  expect_one_per_shard(
      TR::from_samples(std::span<const std::int64_t>(tiny), 4), 4);
}

TEST(TabletRouter, ExactlyOneShardAndMonotoneHalfOpenCoverage) {
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t shards = 1 + static_cast<std::size_t>(rng.range(0, 7));
    const std::size_t tablets = 1 + static_cast<std::size_t>(rng.range(0, 23));
    const TR r = random_table(rng, tablets, shards);
    ASSERT_TRUE(r.compatible(shards));
    // Exactly one shard, in range, and consistent with tablet_of.
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t k = rng.range(0, kSpace + 1000);
      const std::size_t t = r.tablet_of(k);
      ASSERT_LT(r(k, shards), shards);
      ASSERT_EQ(r(k, shards), r.owner(t));
    }
    // Ordered probe: tablet index never decreases as keys ascend.
    std::size_t last = 0;
    for (std::int64_t k = 0; k <= kSpace; k += kSpace / 512) {
      const std::size_t t = r.tablet_of(k);
      ASSERT_GE(t, last);
      last = t;
    }
    // Half-open boundaries: a boundary key belongs to the right tablet,
    // its predecessor to the left.
    for (std::size_t b = 0; b < r.bounds().size(); ++b) {
      const std::int64_t edge = r.bounds()[b];
      EXPECT_EQ(r.tablet_of(edge), b + 1);
      EXPECT_EQ(r.tablet_of(edge - 1), b);
    }
  }
}

TEST(TabletRouter, SplitPreservesPartitionAndDiffsEmpty) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t shards = 4;
    const TR r = random_table(rng, 6, shards);
    // Pick a tablet wide enough to cut inside.
    for (std::size_t t = 0; t < r.tablet_count(); ++t) {
      const std::int64_t lo =
          r.tablet_lo(t) != nullptr ? *r.tablet_lo(t) : -kSpace;
      const std::int64_t hi =
          r.tablet_hi(t) != nullptr ? *r.tablet_hi(t) : 2 * kSpace;
      if (hi - lo < 10) continue;
      const std::int64_t c1 = lo + (hi - lo) / 3;
      const std::int64_t c2 = lo + 2 * (hi - lo) / 3;
      const std::vector<std::int64_t> cuts = {c1, c2};
      const TR split = r.with_split(t, cuts);
      ASSERT_EQ(split.tablet_count(), r.tablet_count() + 2);
      // Pointwise identical routing — a split-only flip moves zero keys.
      for (int i = 0; i < 2000; ++i) {
        const std::int64_t k = rng.range(-kSpace, 2 * kSpace);
        ASSERT_EQ(split(k, shards), r(k, shards)) << "key " << k;
      }
      EXPECT_TRUE(TR::diff(r, split).empty());
      EXPECT_TRUE(TR::diff(split, r).empty());
      break;
    }
  }
}

TEST(TabletRouter, CoalescePreservesPartitionAndDiffsEmpty) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    // Few shards over many tablets guarantees same-owner neighbors.
    const TR r = random_table(rng, 16, 2);
    const TR merged = r.coalesced();
    EXPECT_LE(merged.tablet_count(), r.tablet_count());
    for (int i = 0; i < 4000; ++i) {
      const std::int64_t k = rng.range(-kSpace, 2 * kSpace);
      ASSERT_EQ(merged(k, 2), r(k, 2)) << "key " << k;
    }
    EXPECT_TRUE(TR::diff(r, merged).empty());
    // Idempotent: no same-owner neighbors remain.
    EXPECT_EQ(merged.coalesced().tablet_count(), merged.tablet_count());
  }
}

TEST(TabletRouter, WithOwnerDiffCoversExactlyThatTablet) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t shards = 6;
    const TR r = random_table(rng, 9, shards);
    const std::size_t t =
        static_cast<std::size_t>(rng.range(0, 8));
    const std::size_t from = r.owner(t);
    const std::size_t to = (from + 1) % shards;
    const TR moved = r.with_owner(t, to);
    const std::vector<Seg> segs = TR::diff(r, moved);
    // Probe: exactly the keys inside tablet t moved, from -> to.
    for (int i = 0; i < 4000; ++i) {
      const std::int64_t k = rng.range(-kSpace, 2 * kSpace);
      const bool should_move = r.tablet_of(k) == t;
      bool covered = false;
      for (const Seg& sg : segs) {
        if (!in_segment(sg, k)) continue;
        covered = true;
        EXPECT_EQ(sg.src, from);
        EXPECT_EQ(sg.dst, to);
      }
      ASSERT_EQ(covered, should_move) << "key " << k;
    }
  }
}

TEST(TabletRouter, DiffMatchesPointwiseOwnerChange) {
  util::Xoshiro256 rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t shards = 5;
    const TR a = random_table(rng, 1 + static_cast<std::size_t>(rng.range(0, 11)),
                              shards);
    const TR b = random_table(rng, 1 + static_cast<std::size_t>(rng.range(0, 11)),
                              shards);
    const std::vector<Seg> segs = TR::diff(a, b);
    // Segments are ascending and disjoint.
    for (std::size_t i = 1; i < segs.size(); ++i) {
      ASSERT_TRUE(segs[i - 1].hi.has_value());
      ASSERT_TRUE(segs[i].lo.has_value());
      ASSERT_LE(*segs[i - 1].hi, *segs[i].lo);
    }
    // Minimality: a segment never straddles keys whose (src, dst) pair
    // disagrees with the segment's, and adjacent segments with touching
    // edges differ in their pair (else they would have coalesced).
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (*segs[i - 1].hi == *segs[i].lo) {
        ASSERT_TRUE(segs[i - 1].src != segs[i].src ||
                    segs[i - 1].dst != segs[i].dst);
      }
    }
    // Pointwise agreement.
    for (int i = 0; i < 4000; ++i) {
      const std::int64_t k = rng.range(-kSpace, 2 * kSpace);
      const std::size_t sa = a(k, shards);
      const std::size_t sb = b(k, shards);
      bool covered = false;
      for (const Seg& sg : segs) {
        if (!in_segment(sg, k)) continue;
        covered = true;
        ASSERT_EQ(sg.src, sa) << "key " << k;
        ASSERT_EQ(sg.dst, sb) << "key " << k;
      }
      ASSERT_EQ(covered, sa != sb) << "key " << k;
    }
  }
}

TEST(TabletRouter, TabletsPerShardCounts) {
  const TR r{{100, 200, 300}, {1, 0, 1, 2}};
  const std::vector<std::size_t> counts = r.tablets_per_shard(4);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_FALSE(r.compatible(2));  // owner 2 out of range
  EXPECT_TRUE(r.compatible(3));
}

// ----- MigrationThrottle -----

TEST(MigrationThrottle, AdmitsUpToBudgetThenDefers) {
  // A huge interval makes the test deterministic: no refill can happen.
  store::MigrationThrottle th(1000, std::chrono::milliseconds(60000));
  EXPECT_TRUE(th.admit(600));
  th.charge(600);
  EXPECT_TRUE(th.admit(400));
  th.charge(400);
  EXPECT_FALSE(th.admit(1));  // bucket dry
  EXPECT_EQ(th.peak_interval_keys(), 1000u);
  EXPECT_EQ(th.budget_keys(), 1000u);
}

TEST(MigrationThrottle, FullBucketAdmitsOversizeMoveOnce) {
  store::MigrationThrottle th(100, std::chrono::milliseconds(60000));
  // A tablet bigger than the whole budget must still be able to move —
  // but only off a full bucket, and the peak reports the overshoot.
  EXPECT_TRUE(th.admit(250));
  th.charge(250);
  EXPECT_FALSE(th.admit(250));
  EXPECT_FALSE(th.admit(1));
  EXPECT_EQ(th.peak_interval_keys(), 250u);
}

TEST(MigrationThrottle, RefillsAtIntervalBoundary) {
  store::MigrationThrottle th(100, std::chrono::milliseconds(20));
  EXPECT_TRUE(th.admit(100));
  th.charge(100);
  EXPECT_FALSE(th.admit(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(th.admit(100));  // new interval, fresh bucket
  th.charge(40);
  // The window restarted too: peak stays the old interval's 100.
  EXPECT_EQ(th.peak_interval_keys(), 100u);
}

}  // namespace
}  // namespace pathcopy
