// Rebalancer: continuous tablet rebalancing + live path-copying shard
// migration for a ShardedMap over a TabletRouter.
//
// A range-partitioned store is only as fast as its hottest shard: under
// a Zipfian or hot-range keyspace the static uniform() split sends most
// of the offered load to one shard, and the S-install-stream scaling
// story collapses back to the single-atom baseline. The Rebalancer
// closes the loop:
//
//   tick     — the planner: read the map's KeySketch (a reservoir sample
//              of offered keys) and measure the load imbalance under the
//              current epoch's tablet table; past the threshold take one
//              small step per call — split the hottest tablet down to
//              the coldest shard's deficit (a boundary-only flip: zero
//              keys move), or move exactly one tablet to the coldest
//              shard. Cold tablets keep their owner, so only the hot
//              head's resident keys pay migration. Moves are
//              admission-controlled by a MigrationThrottle
//              (keys-moved-per-interval budget) and deferred outright
//              while client ops are parking or lanes are deep.
//              Steady-state traffic never stalls behind a whole-store
//              re-fit; balance is reached as a stream of cheap
//              single-tablet flips.
//   migrate  — execute the epoch protocol from router_epoch.hpp:
//              publish + drain (begin_epoch), then, per moving segment
//              of the tablet diff, extract its keys from a pinned source
//              snapshot — the paper's trick doing systems work: a
//              path-copied root IS a free consistent image of the shard,
//              so the extraction runs on an immutable snapshot while
//              non-moving writers proceed — bulk-install them into the
//              new owner and erase them from the source (each a plain
//              batch through the shard's own install path), and finally
//              settle the epoch, releasing gated ops. migrate_to runs
//              the same flip for a caller-built table.
//
// Safety recap (the full argument lives in router_epoch.hpp): after the
// drain no operation routed by the old topology is in flight, ops on
// moving keys gate until their destination is ready, so the extracted
// snapshot is the complete and final content of every moving segment —
// nothing is lost, nothing is applied twice, and every per-op outcome is
// computed against a shard that holds exactly the data it owns.
//
// Threading: one Rebalancer per map, driven from one control thread
// (re-entry is serialized by an internal mutex, but plan quality assumes
// a single driver). Create after the map and destroy before it; like a
// Session it holds one reclaimer registration per shard.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "store/executor.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/assert.hpp"

namespace pathcopy::store {

struct RebalanceConfig {
  /// Don't plan off fewer sampled keys than this (quantiles of a tiny
  /// reservoir are noise).
  std::size_t min_samples = 512;

  // ----- continuous-mode migration throttle -----

  /// At most this many resident keys may start moving per interval.
  std::uint64_t budget_keys = 32 * 1024;
  std::chrono::milliseconds budget_interval{50};
};

/// Keys-moved-per-interval admission meter for continuous migration.
/// The bucket holds `budget_keys` tokens and refills *discretely* at
/// interval boundaries, so the *admitted estimates* inside one interval
/// never exceed what one full bucket grants — the per-interval bound
/// the CI smoke asserts (peak_interval_est). One exception keeps
/// progress possible: a full bucket admits even an over-budget move (a
/// tablet bigger than the whole budget could otherwise never migrate),
/// counted in oversize_escapes. The actual keys moved are tracked too
/// (peak_interval_keys) and may run past the estimate by whatever the
/// tablet gained between planning and the pinned extraction — reported
/// honestly, but not a policy violation.
class MigrationThrottle {
 public:
  using Clock = std::chrono::steady_clock;

  MigrationThrottle(std::uint64_t budget_keys,
                    std::chrono::milliseconds interval)
      : budget_(budget_keys),
        interval_(interval),
        tokens_(budget_keys),
        boundary_(Clock::now()) {}

  /// May a move of ~`estimated_keys` start now? A true return commits
  /// the caller to the move (tick() migrates immediately after), so the
  /// admitted estimate is accounted here — it is the policy-side window
  /// the CI smoke asserts against, immune to the plan-to-extraction
  /// drift of the actual key count.
  bool admit(std::uint64_t estimated_keys) {
    roll();
    const bool ok = tokens_ >= estimated_keys || tokens_ == budget_;
    if (ok) {
      if (estimated_keys > tokens_) ++oversize_escapes_;
      est_window_ += estimated_keys;
      est_peak_ = std::max(est_peak_, est_window_);
    }
    return ok;
  }

  /// Accounts a move that ran: drains tokens and tracks the window sum.
  void charge(std::uint64_t actual_keys) {
    roll();
    tokens_ -= std::min(tokens_, actual_keys);
    window_keys_ += actual_keys;
    peak_ = std::max(peak_, window_keys_);
  }

  std::uint64_t peak_interval_keys() const noexcept { return peak_; }
  /// Most *admitted estimate* keys in one interval. Exceeds the budget
  /// only via the full-bucket oversize escape; actual keys moved
  /// (peak_interval_keys) may additionally drift past the estimate by
  /// whatever the tablet gained between planning and the pinned
  /// extraction.
  std::uint64_t peak_interval_est() const noexcept { return est_peak_; }
  std::uint64_t oversize_escapes() const noexcept { return oversize_escapes_; }
  std::uint64_t budget_keys() const noexcept { return budget_; }

 private:
  void roll() {
    const Clock::time_point now = Clock::now();
    if (now - boundary_ >= interval_) {
      tokens_ = budget_;
      window_keys_ = 0;
      est_window_ = 0;
      boundary_ = now;
    }
  }

  const std::uint64_t budget_;
  const std::chrono::milliseconds interval_;
  std::uint64_t tokens_;
  std::uint64_t window_keys_ = 0;
  std::uint64_t est_window_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t est_peak_ = 0;
  std::uint64_t oversize_escapes_ = 0;
  Clock::time_point boundary_;
};

/// What one continuous-rebalancing step did.
enum class TickResult {
  kIdle,              // balanced, or not enough samples
  kSplit,             // boundary-only flip (split or coalesce), zero keys
  kMove,              // one tablet migrated to the coldest shard
  kDeferredBudget,    // a move was due but the throttle held it
  kDeferredPressure,  // client ops parking / lanes deep; try later
};

template <class Map>
class Rebalancer {
 public:
  using Uc = typename Map::Backend;
  using Key = typename Map::Key;
  using Value = typename Map::Value;
  using Structure = typename Map::Structure;
  using Ctx = typename Map::Ctx;
  using Alloc = typename Map::Alloc;
  using RouterT = typename Map::Router;
  using Epoch = typename Map::Epoch;
  using BatchRequest = typename Map::BatchRequest;
  using OpKind = typename Map::OpKind;
  using Exec = ShardExecutor<Uc>;

  Rebalancer(Map& map, Alloc& alloc, RebalanceConfig cfg = {})
      : map_(&map),
        cfg_(cfg),
        throttle_(cfg.budget_keys, cfg.budget_interval) {
    ctxs_.reserve(map.shard_count());
    for (std::size_t s = 0; s < map.shard_count(); ++s) {
      ctxs_.emplace_back(map.shard(s).reclaimer(), alloc);
    }
    // Sampling is opt-in by attachment: sessions start feeding the
    // sketch on their next op, and maps without a Rebalancer never pay.
    map.set_sketch_enabled(true);
    last_parked_ = map.parked_waits();
  }

  ~Rebalancer() {
    // Detach the sampling too: a map whose Rebalancer is gone should not
    // keep feeding a reservoir nobody will read.
    map_->set_sketch_enabled(false);
  }

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Executes one live migration to `next` (publish → drain → extract →
  /// install → erase → settle). Blocks until the flip is settled.
  void migrate_to(RouterT next) {
    flip_to(std::move(next));
    // Forget the pre-flip traffic: the next plan should be fitted to
    // what the store sees under the new topology.
    map_->sketch().reset();
  }

  /// One continuous-rebalancing step: defer under client pressure, else
  /// split the hottest tablet down to the coldest shard's deficit (zero
  /// keys), else move exactly one tablet there — if the throttle's key
  /// budget admits it. Call periodically from a control thread; each
  /// call does at most one cheap flip.
  TickResult tick() {
    if (under_pressure()) {
      ++stats_.pressure_deferrals;
      return TickResult::kDeferredPressure;
    }
    const std::vector<Key> samples = map_->sketch().sorted_sample();
    if (samples.size() < cfg_.min_samples) return TickResult::kIdle;
    const Epoch* e = map_->current_epoch();
    const std::size_t shards = map_->shard_count();
    const RouterT& cur = e->router;
    const std::vector<std::size_t> loads =
        tablet_loads(cur, std::span<const Key>(samples));
    std::vector<std::size_t> shard_load(shards, 0);
    for (std::size_t t = 0; t < loads.size(); ++t) {
      shard_load[cur.owner(t)] += loads[t];
    }
    ++stats_.plans;
    std::size_t h = 0, c = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (shard_load[s] > shard_load[h]) h = s;
      if (shard_load[s] < shard_load[c]) c = s;
    }
    const double ideal =
        static_cast<double>(samples.size()) / static_cast<double>(shards);
    stats_.last_imbalance = static_cast<double>(shard_load[h]) / ideal;
    if (stats_.last_imbalance < kImbalanceThreshold) {
      // Steady state: age the reservoir so the next plan is fitted to
      // the *current* workload. A full reservoir over a long run
      // freezes — the replacement probability decays with the offered
      // count — and a frozen sketch would blend every past hotspot into
      // a phantom balanced load while the live one goes unserved.
      map_->sketch().decay(1, 2);
      return TickResult::kIdle;
    }
    // Hottest tablet on the hottest shard.
    std::size_t t_hot = loads.size();
    for (std::size_t t = 0; t < loads.size(); ++t) {
      if (cur.owner(t) != h) continue;
      if (t_hot == loads.size() || loads[t] > loads[t_hot]) t_hot = t;
    }
    if (t_hot == loads.size() || loads[t_hot] == 0) return TickResult::kIdle;
    // Right-size before moving: a tablet much hotter than the coldest
    // shard's deficit would just relocate the hotspot, so carve a
    // deficit-sized piece first (boundary-only, zero keys migrated).
    const std::size_t want = static_cast<std::size_t>(
        std::max(1.0, ideal - static_cast<double>(shard_load[c])));
    const std::size_t max_tablets = kMaxTabletsPerShard * shards;
    if (static_cast<double>(loads[t_hot]) >
        static_cast<double>(want) * kMoveFit) {
      if (cur.tablet_count() + 2 > max_tablets) {
        const RouterT merged = cur.coalesced();
        if (merged.tablet_count() < cur.tablet_count()) {
          flip_to(merged);
          ++stats_.splits;
          after_flip();
          return TickResult::kSplit;
        }
      } else {
        const std::vector<Key> cuts =
            carve_cuts(cur, t_hot, std::span<const Key>(samples), want);
        if (!cuts.empty()) {
          flip_to(cur.with_split(t_hot, std::span<const Key>(cuts)));
          ++stats_.splits;
          after_flip();
          return TickResult::kSplit;
        }
      }
    }
    // Whole-tablet move — only if it strictly improves the hot/cold pair
    // (an unsplittable heavy tablet that fits nowhere stays put).
    if (shard_load[c] + loads[t_hot] >= shard_load[h]) {
      return TickResult::kIdle;
    }
    const std::uint64_t est = estimate_resident(cur, t_hot);
    if (!throttle_.admit(est)) {
      ++stats_.budget_deferrals;
      return TickResult::kDeferredBudget;
    }
    const std::uint64_t before = stats_.keys_moved;
    flip_to(cur.with_owner(t_hot, c));
    throttle_.charge(stats_.keys_moved - before);
    ++stats_.assignment_moves;
    after_flip();
    return TickResult::kMove;
  }

  /// This rebalancer's run so far, with the throttle's window peaks and
  /// the current tablet table filled in.
  RebalanceStats stats() const {
    RebalanceStats s = stats_;
    s.peak_interval_keys = throttle_.peak_interval_keys();
    s.peak_interval_est = throttle_.peak_interval_est();
    s.oversize_escapes = throttle_.oversize_escapes();
    s.budget_keys = throttle_.budget_keys();
    s.tablets_per_shard =
        map_->router().tablets_per_shard(map_->shard_count());
    return s;
  }

  /// Folds the per-shard migration counters into a stats accumulator
  /// (anything with add(shard, OpStats), e.g. ShardStatsBoard).
  template <class Board>
  void fold_into(Board& board) const {
    for (std::size_t s = 0; s < ctxs_.size(); ++s) {
      board.add(s, ctxs_[s].stats);
    }
  }

 private:
  /// Rebalance when the hottest shard's sampled-load share exceeds this
  /// multiple of the ideal (1/S) share.
  static constexpr double kImbalanceThreshold = 1.3;

  // ----- tablet planning -----

  /// Cap on table growth: at most this many tablets per shard on
  /// average before splits stop and a coalesce pass is tried instead.
  static constexpr std::size_t kMaxTabletsPerShard = 16;
  /// Don't carve a tablet represented by fewer sampled keys than this
  /// (the cut position would be noise).
  static constexpr std::size_t kMinSplitSamples = 32;
  /// tick() moves a whole tablet when its load fits the coldest shard's
  /// deficit within this factor; hotter tablets are split first so the
  /// eventual move is right-sized.
  static constexpr double kMoveFit = 1.25;
  /// tick() defers while any executor lane is deeper than this (client
  /// sub-batches are stacking up; a migration would stall them more).
  static constexpr std::size_t kMaxLaneDepth = 8;

  /// The flip engine shared by migrate_to and tick: publish + drain,
  /// migrate the moving tablets, settle. Does NOT touch the sketch —
  /// migrate_to resets it (caller-built topology), tick decays it (a
  /// single-tablet move invalidates little of the evidence).
  void flip_to(RouterT next) {
    // Tablet segments are extracted by pruned half-open traversal, in
    // O(moved + log n), with the key type's max as the unbounded edge.
    static_assert(std::integral<Key>, "tablet migration needs integral keys");
    static_assert(
        requires(const Structure s, const Key& k,
                 void (*f)(const Key&, const Value&)) {
          s.for_each_range(k, k, f);
        },
        "tablet migration needs the structure's for_each_range");
    const std::lock_guard<std::mutex> lock(mu_);
    Epoch* e = map_->begin_epoch(std::move(next));
    std::uint64_t moved = 0;
    migrate_tablets(e, moved);
    map_->settle_epoch(e);
    stats_.migrations += 1;
    stats_.keys_moved += moved;
  }

  /// Post-flip bookkeeping for tick(): age the sketch (the offered
  /// distribution is a property of the workload, not the topology — keep
  /// half the evidence instead of cold-restarting before every small
  /// move) and re-baseline the parked-wait counter so the parks our own
  /// flip caused don't read as client pressure next tick.
  void after_flip() {
    map_->sketch().decay(1, 2);
    last_parked_ = map_->parked_waits();
  }

  /// Client backpressure probe: ops parked on a gate since the last
  /// look, or any executor lane deeper than the configured cap. The
  /// lane probe is two relaxed loads on the ring indices — no lock, so
  /// probing every tick never serializes against submitting clients.
  bool under_pressure() {
    const std::uint64_t parked = map_->parked_waits();
    const bool rising = parked != last_parked_;
    last_parked_ = parked;
    if (rising) return true;
    if (Exec* exec = map_->executor(); exec != nullptr) {
      for (std::size_t s = 0; s < map_->shard_count(); ++s) {
        if (exec->queue_depth(s) > kMaxLaneDepth) return true;
      }
    }
    return false;
  }

  /// Sample-count load of every tablet (samples sorted ascending).
  static std::vector<std::size_t> tablet_loads(const RouterT& r,
                                               std::span<const Key> samples) {
    const std::vector<Key>& b = r.bounds();
    std::vector<std::size_t> loads(r.tablet_count(), 0);
    std::size_t prev = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t pos = static_cast<std::size_t>(
          std::lower_bound(samples.begin(), samples.end(), b[j], key_less) -
          samples.begin());
      loads[j] = pos - prev;
      prev = pos;
    }
    loads[b.size()] = samples.size() - prev;
    return loads;
  }

  /// [first, last) index range of tablet t's samples.
  static std::pair<std::size_t, std::size_t> tablet_slice(
      const RouterT& r, std::size_t t, std::span<const Key> samples) {
    const Key* lo = r.tablet_lo(t);
    const Key* hi = r.tablet_hi(t);
    const std::size_t first =
        lo == nullptr
            ? 0
            : static_cast<std::size_t>(
                  std::lower_bound(samples.begin(), samples.end(), *lo,
                                   key_less) -
                  samples.begin());
    const std::size_t last =
        hi == nullptr
            ? samples.size()
            : static_cast<std::size_t>(
                  std::lower_bound(samples.begin(), samples.end(), *hi,
                                   key_less) -
                  samples.begin());
    return {first, std::max(first, last)};
  }

  /// The cut(s) carving a ~`want`-sample piece out of tablet t, centered
  /// on the tablet's sample mass: a piece dense in samples spans little
  /// keyspace, so the carved tablet drags few cold resident keys along
  /// when it later moves. Empty when the tablet is too thinly sampled or
  /// has no interior key to cut at (a single heavy key cannot be split).
  std::vector<Key> carve_cuts(const RouterT& r, std::size_t t,
                              std::span<const Key> samples,
                              std::size_t want) const {
    const auto [first, last] = tablet_slice(r, t, samples);
    const std::size_t cnt = last - first;
    if (cnt < kMinSplitSamples) return {};
    want = std::clamp<std::size_t>(want, 1, cnt - 1);
    const std::size_t j = (cnt - want) / 2;
    const Key c1 = samples[first + j];
    const Key c2 = samples[first + j + want];
    const Key* lo = r.tablet_lo(t);
    const Key* hi = r.tablet_hi(t);
    std::vector<Key> cuts;
    if (lo == nullptr || key_less(*lo, c1)) cuts.push_back(c1);
    const Key* floor = cuts.empty() ? lo : &cuts.back();
    if ((hi == nullptr || key_less(c2, *hi)) &&
        (floor == nullptr || key_less(*floor, c2))) {
      cuts.push_back(c2);
    }
    return cuts;
  }

  /// Resident-key cost of moving tablet t, exact on every ordered map:
  /// keys below hi minus keys below lo (rank counts keys strictly below),
  /// so the unbounded last tablet needs no max-key edge case. O(log n) on
  /// the owner's current snapshot.
  std::uint64_t estimate_resident(const RouterT& r, std::size_t t) {
    const std::size_t s = r.owner(t);
    return map_->shard(s).read(
        ctxs_[s], [&](auto snap) -> std::uint64_t {
          const Key* lo = r.tablet_lo(t);
          const Key* hi = r.tablet_hi(t);
          return (hi != nullptr ? snap.rank(*hi) : snap.size()) -
                 (lo != nullptr ? snap.rank(*lo) : 0);
        });
  }

  // ----- migration executors -----

  /// Tablet migration: diff the two tables into maximal moving segments
  /// (ascending key order — empty for a pure split/coalesce), then per
  /// segment: pin the source, extract the segment's slice via the
  /// structure's pruned range traversal (O(moved + log n)), install it
  /// into the destination behind its watermark, and erase it from the
  /// source. A destination is ready the moment its last incoming
  /// segment lands, so unrelated traffic resumes segment by segment.
  void migrate_tablets(Epoch* e, std::uint64_t& moved) {
    const std::size_t shards = map_->shard_count();
    const std::vector<TabletSegment<Key>> segs =
        RouterT::diff(e->prev->router, e->router);
    std::vector<std::size_t> incoming(shards, 0);
    for (const TabletSegment<Key>& sg : segs) ++incoming[sg.dst];
    for (std::size_t d = 0; d < shards; ++d) {
      if (incoming[d] == 0) e->set_ready(d);
    }
    std::vector<BatchRequest> slice;
    std::vector<BatchRequest> erases;
    for (const TabletSegment<Key>& sg : segs) {
      slice.clear();
      erases.clear();
      {
        // The pinned root is a free consistent image of the shard; after
        // the drain the moving segment is frozen, so this snapshot holds
        // its complete final content even while non-moving writers keep
        // installing. In-order traversal keeps the slice sorted.
        const auto view = map_->shard(sg.src).pin_versioned(ctxs_[sg.src]);
        const auto collect = [&](const Key& k, const Value& v) {
          slice.push_back(BatchRequest{OpKind::kInsert, k, v});
          erases.push_back(BatchRequest{OpKind::kErase, k, std::nullopt});
          ++moved;
        };
        for_each_in_tablet(view.snapshot, sg.lo ? &*sg.lo : nullptr,
                           sg.hi ? &*sg.hi : nullptr, collect);
      }
      if (!slice.empty()) {
        ctxs_[sg.dst].stats.mig_keys_in += slice.size();
        run_chunked(sg.dst, slice, e);
      }
      if (--incoming[sg.dst] == 0) e->set_ready(sg.dst);
      if (!erases.empty()) {
        ctxs_[sg.src].stats.mig_keys_out += erases.size();
        run_chunked(sg.src, erases, nullptr);
      }
    }
  }

  static constexpr core::KeyLess<Structure> key_less{};

  /// Keys installed per watermark bump: small enough that parked traffic
  /// resumes every few milliseconds as the big cold-destination install
  /// advances, large enough that one sorted sweep still amortizes.
  static constexpr std::size_t kWatermarkChunk = 8192;

  /// Every migration op must land — inserts into territory the
  /// destination never owned, erases of keys the pinned snapshot proved
  /// present, with the moving ranges unreachable to clients meanwhile —
  /// which the debug build asserts.
  static void assert_all_landed(std::span<const BatchRequest> reqs,
                                const bool* results) {
#ifndef NDEBUG
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      PC_DASSERT(results[i],
                 "migration op was a no-op: a moving key escaped the "
                 "freeze or was double-applied");
    }
#else
    (void)reqs;
    (void)results;
#endif
  }

  /// Applies `reqs` (key-sorted, key-unique) to `shard` in
  /// kWatermarkChunk-sized pieces, each one plain batch task: on the
  /// shard's lane when an executor is attached (FIFO with client
  /// sub-batches, which it may coalesce with; no stop-the-world), else on
  /// this thread — either way through the backend's execute_batch. With
  /// a non-null `e` the pieces are an incoming install for destination
  /// `shard` and the watermark advances after each one; null = erase
  /// sweep, no watermark.
  void run_chunked(std::size_t shard, std::vector<BatchRequest>& reqs,
                   Epoch* e) {
    const auto results = std::make_unique<bool[]>(
        std::min(reqs.size(), kWatermarkChunk));
    typename Exec::TaskScratch scratch;
    std::size_t off = 0;
    while (off < reqs.size()) {
      const std::size_t n = std::min(kWatermarkChunk, reqs.size() - off);
      const std::span<const BatchRequest> chunk(reqs.data() + off, n);
      run_shard_tasks(
          *map_, std::span<Ctx>(ctxs_), scratch,
          [&](std::size_t s) { return s == shard; },
          [&](std::size_t) {
            typename Exec::Task task;
            task.reqs = chunk;
            task.results = results.get();
            return task;
          });
      assert_all_landed(chunk, results.get());
      off += n;
      if (e != nullptr) e->advance_watermark(shard, chunk.back().key);
    }
  }

  Map* map_;
  RebalanceConfig cfg_;
  std::vector<Ctx> ctxs_;
  RebalanceStats stats_;
  MigrationThrottle throttle_;
  std::uint64_t last_parked_ = 0;
  std::mutex mu_;
};

}  // namespace pathcopy::store
