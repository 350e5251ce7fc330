// Deterministic-scheduler model checking of the store's concurrency
// protocols (src/verify/sched/). Compiled only under
// -DPATHCOPY_MODELCHECK=ON, which turns the PC_YIELD points in the SUT
// into scheduler decision points.
//
// The suite has four layers:
//
//   1. Scheduler white-box: a decision trace fully determines the
//      execution — same seed same trace, replay reproduces observations.
//   2. The headline regression: the nullptr cut-token ABA. A 3-thread
//      kernel shows the legacy Atom's stability predicate (token
//      equality PLUS the version cross-check) claiming "unmoved" across
//      two real installs, found both exhaustively and by seeded random
//      walks; a scripted 4-thread schedule drives the full ConsistentCut
//      to certify a cut that matches NO instant of the ground-truth
//      timeline. Both replay against the fixed Atom (fresh tagged
//      sentinel per erase-to-empty) and the bug is gone — the probe
//      catches the moved shard on token identity alone.
//   3. Window sweeps: exhaustive bounded exploration of the install/bump
//      window (both UC backends, pending-aware linearizability via
//      ModelHistory), the combining funnel's multi-slot gather window,
//      the batch install loop's lost-CAS halving (a span longer than
//      the slot count racing a point insert, oracle-checked), the
//      Dekker announce/drain handshake (plus a broken-protocol
//      positive control), the parked-op migration gate, the executor
//      stop/submit race (including the lock-free lane's windows), the
//      shard lane itself: the ring's claim/publish window and the
//      park/wake handshake, each with a mutant positive control
//      (dropped slot-stamp check, dropped park re-read) the checker
//      must catch — and the batched read path: multi_get's single-pin
//      sweep racing atomic pair-flip installs (with a pin-per-key
//      mutant the search must tear), plus the read-ticket/stop race —
//      and the reclaimers' windows: the version-keyed retire/collect
//      window under both pin rules, and EBR's pin and retire/advance
//      windows (a reader's root must outlive its guard).
//   4. A seeded random-walk smoke (PATHCOPY_MC_SEED overrides the seed)
//      that scripts/check.sh runs time-boxed; any failure prints the
//      seed, and replay_seed reproduces the schedule from it alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_roots.hpp"
#include "reclaim/watermark.hpp"
#include "reclaim_canary.hpp"
#include "store/executor.hpp"
#include "store/shard_lane.hpp"
#include "store/router_epoch.hpp"
#include "store/tablet_router.hpp"
#include "store/sharded_map.hpp"
#include "store/version_vector.hpp"
#include "util/modelcheck.hpp"
#include "verify/history.hpp"
#include "verify/sched/model_check.hpp"
#include "verify/sched/model_history.hpp"
#include "verify/sched/virtual_scheduler.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using Epoch = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using FixedAtom = core::Atom<T, Epoch, MA>;
using LegacyAtom = core::Atom<T, Epoch, MA, /*LegacyNullEmptyRoot=*/true>;
using CombUc = core::CombiningAtom<T, Epoch, MA>;
using TabR = store::TabletRouter<std::int64_t>;
using verify::OpType;
using verify::sched::ExploreResult;
using verify::sched::ModelHistory;
using verify::sched::VirtualScheduler;

// ---------------------------------------------------------------------
// 1. Scheduler white-box: the trace is the execution.
// ---------------------------------------------------------------------

// Three logical threads, each appending tid*10+step around explicit
// yields; the observation log is a pure function of the decision trace.
std::vector<int> run_step_scenario(VirtualScheduler& vs) {
  auto log = std::make_shared<std::vector<int>>();
  for (unsigned t = 0; t < 3; ++t) {
    vs.spawn([log, t] {
      for (int i = 0; i < 2; ++i) {
        PC_YIELD("step");
        log->push_back(static_cast<int>(t) * 10 + i);
      }
    });
  }
  vs.run();
  return *log;
}

TEST(ModelSched, SameSeedSameTraceSameObservations) {
  verify::sched::RandomStrategy strat(12345, 16);
  VirtualScheduler vs1(strat);
  const std::vector<int> log1 = run_step_scenario(vs1);
  const std::vector<unsigned> trace1 = vs1.last_trace();

  VirtualScheduler vs2(strat);  // begin_run() re-arms from the seed
  const std::vector<int> log2 = run_step_scenario(vs2);
  EXPECT_EQ(trace1, vs2.last_trace());
  EXPECT_EQ(log1, log2);
}

TEST(ModelSched, ReplayOfATraceReproducesTheExecution) {
  verify::sched::RandomStrategy rnd(98765, 16);
  VirtualScheduler vs1(rnd);
  const std::vector<int> log1 = run_step_scenario(vs1);
  const std::vector<unsigned> trace = vs1.last_trace();

  verify::sched::ReplayStrategy rep(trace);
  VirtualScheduler vs2(rep);
  const std::vector<int> log2 = run_step_scenario(vs2);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(trace, vs2.last_trace());
}

TEST(ModelSched, RoundRobinInterleavesInTidOrder) {
  verify::sched::RoundRobinStrategy rr;
  VirtualScheduler vs(rr);
  const std::vector<int> log = run_step_scenario(vs);
  // RR grants 0,1,2,0,1,2,... and each grant runs one loop step; the
  // final grants retire the threads in tid order.
  EXPECT_EQ(log, (std::vector<int>{0, 10, 20, 1, 11, 21}));
}

// ---------------------------------------------------------------------
// 2a. The ABA kernel: one shard, a reader pinning the empty root, two
//     writers whose version bumps can both park between root CAS and
//     fetch_add. The reader applies the LEGACY stability predicate —
//     token equality AND version equality, i.e. strictly stronger than
//     what the old ConsistentCut checked — and the schedule space still
//     contains runs where it claims "unmoved since pin" across two real
//     installs. Ground truth is exact because logical threads are
//     serialized: a writer's CAS has landed iff its op completed
//     (result recorded) or it is parked at the "atom.bump" yield, which
//     sits exactly between the CAS and the bump.
// ---------------------------------------------------------------------

const std::vector<std::string> kAtomKernelTags = {"atom.install", "atom.bump",
                                                  "r.window"};

// Decision-trace regression corpus for the kernel (tids: 0 = reader,
// 1 = inserting writer, 2 = erasing writer): reader pins the empty
// root, both writers CAS and park before their bumps, reader probes.
const std::vector<unsigned> kKernelAbaTrace = {0, 1, 1, 2, 2, 0};

template <class AtomT>
std::optional<std::string> atom_kernel_body(VirtualScheduler& vs) {
  struct Shared {
    MA a;
    Epoch smr;
    AtomT atom;
    int installed[2] = {0, 0};  // completed installs per writer
    unsigned wtid[2] = {0, 0};
    std::optional<std::string> fail;
    Shared() : atom(smr, a) {}
  };
  auto sh = std::make_shared<Shared>();

  // Exact "installs so far" at any serialized instant: completed ops
  // that landed, plus writers currently parked between CAS and bump.
  auto installs_now = [sh, &vs] {
    int n = sh->installed[0] + sh->installed[1];
    for (int w = 0; w < 2; ++w) {
      const char* tag = vs.parked_tag(sh->wtid[w]);
      if (tag != nullptr && std::strcmp(tag, "atom.bump") == 0) ++n;
    }
    return n;
  };

  vs.spawn([sh, installs_now] {  // tid 0: the cut-style reader
    typename AtomT::Ctx ctx(sh->smr, sh->a);
    const int at_pin = installs_now();
    const auto view = sh->atom.pin_versioned(ctx);
    PC_YIELD("r.window");
    const bool stable = sh->atom.root_token() == view.token &&
                        sh->atom.version() == view.version;
    if (stable && installs_now() != at_pin) {
      sh->fail = "stability predicate claims 'unmoved since pin' but " +
                 std::to_string(installs_now() - at_pin) +
                 " install(s) landed inside the window";
    }
  });
  sh->wtid[0] = vs.spawn([sh] {  // tid 1: insert k
    typename AtomT::Ctx ctx(sh->smr, sh->a);
    sh->installed[0] = sh->atom.insert(ctx, 0, 7, 70) ? 1 : 0;
  });
  sh->wtid[1] = vs.spawn([sh] {  // tid 2: erase k
    typename AtomT::Ctx ctx(sh->smr, sh->a);
    sh->installed[1] = sh->atom.erase(ctx, 0, 7) ? 1 : 0;
  });
  vs.run();
  return sh->fail;
}

TEST(ModelCheckAtom, ExhaustiveSearchFindsTheLegacyNullTokenAba) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      12, atom_kernel_body<LegacyAtom>, kAtomKernelTags);
  ASSERT_FALSE(res.ok) << "legacy null-token Atom passed " << res.schedules
                       << " schedules — the ABA kernel should be reachable";
  // The found schedule is itself a replayable regression.
  const std::optional<std::string> again = verify::sched::replay_trace(
      res.failing_trace, atom_kernel_body<LegacyAtom>, kAtomKernelTags);
  EXPECT_TRUE(again.has_value()) << "failing trace did not replay";
}

TEST(ModelCheckAtom, CorpusTraceReproducesTheLegacyAba) {
  const std::optional<std::string> fail = verify::sched::replay_trace(
      kKernelAbaTrace, atom_kernel_body<LegacyAtom>, kAtomKernelTags);
  ASSERT_TRUE(fail.has_value());
  EXPECT_NE(fail->find("install(s) landed inside the window"),
            std::string::npos);
}

TEST(ModelCheckAtom, SentinelTokensCloseTheKernelExhaustively) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      12, atom_kernel_body<FixedAtom>, kAtomKernelTags);
  EXPECT_TRUE(res.ok) << "schedule " << res.schedules << ": " << res.reason;
  EXPECT_GT(res.schedules, 100u);  // the window was actually explored
  // The exact schedule that broke the legacy Atom is clean now.
  const std::optional<std::string> fail = verify::sched::replay_trace(
      kKernelAbaTrace, atom_kernel_body<FixedAtom>, kAtomKernelTags);
  EXPECT_FALSE(fail.has_value()) << *fail;
}

TEST(ModelCheckAtom, RandomWalksFindTheLegacyAbaAndTheSeedReplaysIt) {
  const ExploreResult res = verify::sched::explore_random(
      0xABA0ABA0u, 400, 12, atom_kernel_body<LegacyAtom>, kAtomKernelTags);
  ASSERT_FALSE(res.ok) << "no random walk hit the ABA in " << res.schedules
                       << " walks";
  // The seed alone reproduces the schedule (the CI-log workflow).
  const std::optional<std::string> again = verify::sched::replay_seed(
      res.failing_seed, 12, atom_kernel_body<LegacyAtom>, kAtomKernelTags);
  EXPECT_TRUE(again.has_value())
      << "seed " << res.failing_seed << " did not reproduce";
}

// ---------------------------------------------------------------------
// 2b. The full protocol: a scripted 4-thread schedule in which the
//     legacy ConsistentCut certifies a cut matching NO instant of the
//     ground-truth timeline. Threads (spawn order): R takes the cut
//     over two single-Atom "shards"; A lands three inserts on shard 0;
//     B1/B2 insert then erase key 7 on shard 1, each parking between
//     CAS and bump.
//
//     Timeline of states (shard0 keys ; shard1 keys) after each CAS:
//       ({1};∅) → ({1,2};∅) → ({1,2};{7}) → ({1,2,3};{7})
//               → ({1,2,3,4};{7}) → ({1,2,3,4};∅)
//     The legacy run stabilizes on ({1,2,3}, ∅): shard 0's pinned
//     version exists only while shard 1 holds {7}, so no instant ever
//     looked like the certified cut — and shard 1's version counter
//     still reads its initial value at that point (both bumps parked),
//     so the deleted version cross-check would have passed too.
// ---------------------------------------------------------------------

const std::vector<std::string> kCutTags = {"cut.epoch", "cut.pin", "cut.probe",
                                           "atom.install", "atom.bump"};

// The corpus trace. Decision-by-decision: R reaches its first probe
// pass (0,0,0,0); A fully lands key 2 (1,1,1); R's pass 1 sees shard 0
// moved, shard 1 still on its initial empty root (0,0); B1 CASes key 7
// in and parks (2,2); A CASes key 3 (1); R re-pins shard 0 at {1,2,3}
// and validates it (0,0); A CASes key 4 (1,1 — bump of 3, CAS of 4);
// B2 CASes key 7 out and parks (3,3); R probes shard 1 (0).
const std::vector<unsigned> kCutAbaTrace = {0, 0, 0, 0, 1, 1, 1, 0, 0, 2,
                                            2, 1, 0, 0, 1, 1, 3, 3, 0};

struct CutRunOutcome {
  std::size_t n0 = 0, n1 = 0;          // pinned snapshot sizes
  bool has_123 = false;                // shard 0 snapshot is exactly {1,2,3}
  std::uint64_t clock1 = 0;            // reported clock for shard 1
  std::uint64_t live_v1_at_cut = 0;    // shard 1's counter when R returned
  std::uint64_t retried[2] = {0, 0};   // per-shard re-pins
};

template <class AtomT>
CutRunOutcome run_cut_schedule(const std::vector<unsigned>& trace) {
  MA a;
  CutRunOutcome out;
  {
    Epoch smr0, smr1;
    AtomT s0(smr0, a), s1(smr1, a);
    {
      typename AtomT::Ctx seed_ctx(smr0, a);
      EXPECT_TRUE(s0.insert(seed_ctx, 0, 1, 10));
    }

    verify::sched::ReplayStrategy strat(trace);
    VirtualScheduler vs(strat);
    vs.set_decision_tags(kCutTags);

    vs.spawn([&] {  // tid 0: the cut reader
      typename AtomT::Ctx c0(smr0, a), c1(smr1, a);
      store::ConsistentCut<AtomT> cut;
      cut.collect(
          2, [&](std::size_t s) -> AtomT& { return s == 0 ? s0 : s1; },
          [&](std::size_t s) -> typename AtomT::Ctx& { return s == 0 ? c0 : c1; },
          [&](std::size_t s) { ++out.retried[s]; });
      out.n0 = cut.snapshot(0).size();
      out.n1 = cut.snapshot(1).size();
      out.has_123 = cut.snapshot(0).contains(1) && cut.snapshot(0).contains(2) &&
                    cut.snapshot(0).contains(3) && !cut.snapshot(0).contains(4);
      out.clock1 = cut.clock()[1];
      out.live_v1_at_cut = s1.version();  // sampled before anyone resumes
      cut.release();
    });
    vs.spawn([&] {  // tid 1: shard-0 writer
      typename AtomT::Ctx ctx(smr0, a);
      s0.insert(ctx, 0, 2, 20);
      s0.insert(ctx, 0, 3, 30);
      s0.insert(ctx, 0, 4, 40);
    });
    vs.spawn([&] {  // tid 2: shard-1 insert
      typename AtomT::Ctx ctx(smr1, a);
      s1.insert(ctx, 0, 7, 70);
    });
    vs.spawn([&] {  // tid 3: shard-1 erase
      typename AtomT::Ctx ctx(smr1, a);
      s1.erase(ctx, 0, 7);
    });
    vs.run();
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
  return out;
}

TEST(ModelCheckCut, ScriptedScheduleCertifiesAnImpossibleCutOnLegacy) {
  const auto out = run_cut_schedule<LegacyAtom>(kCutAbaTrace);
  // The certified cut: shard 0 = {1,2,3}, shard 1 = ∅. Whenever shard 1
  // was empty, shard 0 held 1, 2, or 4 keys — never 3 (header comment).
  EXPECT_EQ(out.n0, 3u);
  EXPECT_TRUE(out.has_123);
  EXPECT_EQ(out.n1, 0u);
  // Shard 1 saw exactly one retry-free false validation: its probe
  // passed both times although two installs landed in between.
  EXPECT_EQ(out.retried[1], 0u);
  EXPECT_EQ(out.retried[0], 1u);
  // The deleted version cross-check would not have helped: both bumps
  // are still parked when the cut stabilizes, so the live counter (and
  // the reported clock) still read the initial version.
  EXPECT_EQ(out.live_v1_at_cut, out.clock1);
}

TEST(ModelCheckCut, SentinelTokensCatchTheSameScheduleOnTheFixedAtom) {
  const auto out = run_cut_schedule<FixedAtom>(kCutAbaTrace);
  // The erase-to-empty published a FRESH tagged sentinel, so the final
  // probe sees shard 1 moved, re-pins, and the cut converges on the
  // drained state ({1,2,3,4}, ∅) — a real instant.
  EXPECT_EQ(out.retried[1], 1u);
  EXPECT_EQ(out.n0, 4u);
  EXPECT_EQ(out.n1, 0u);
  EXPECT_FALSE(out.has_123);
}

// ---------------------------------------------------------------------
// 3a. Install/bump window linearizability, both UC backends: two
//     writers and a reader race on one key; every explored schedule's
//     history must check out, including mid-schedule verdicts taken by
//     an observer while writers are parked inside their operations
//     (the pending-op path of the checker).
// ---------------------------------------------------------------------

const std::vector<std::string> kWindowTags = {"atom.install", "atom.bump",
                                              "obs"};

template <class Uc>
std::optional<std::string> atom_window_body(VirtualScheduler& vs) {
  struct Shared {
    MA a;
    Epoch smr;
    Uc uc;
    ModelHistory mh{3};
    std::optional<std::string> fail;
    Shared() : uc(smr, a) {}
  };
  auto sh = std::make_shared<Shared>();

  vs.spawn([sh] {  // tid 0: insert then erase
    typename Uc::Ctx ctx(sh->smr, sh->a);
    const unsigned slot = sh->uc.register_slot();
    sh->mh.run(0, OpType::kInsert, 5,
               [&] { return sh->uc.insert(ctx, slot, 5, 50); });
    sh->mh.run(0, OpType::kErase, 5,
               [&] { return sh->uc.erase(ctx, slot, 5); });
  });
  vs.spawn([sh] {  // tid 1: racing insert
    typename Uc::Ctx ctx(sh->smr, sh->a);
    const unsigned slot = sh->uc.register_slot();
    sh->mh.run(1, OpType::kInsert, 5,
               [&] { return sh->uc.insert(ctx, slot, 5, 51); });
  });
  vs.spawn([sh] {  // tid 2: observer — checks while ops are in flight
    typename Uc::Ctx ctx(sh->smr, sh->a);
    PC_YIELD("obs");
    const verify::Verdict mid = sh->mh.check();
    if (!mid.ok) sh->fail = "mid-schedule: " + mid.reason;
    sh->mh.run(2, OpType::kContains, 5, [&] {
      return sh->uc.read(ctx, [](T t) { return t.contains(5); });
    });
  });
  vs.run();
  if (sh->fail.has_value()) return sh->fail;
  const verify::Verdict v = sh->mh.check();
  if (!v.ok) return "final: " + v.reason;
  return std::nullopt;
}

TEST(ModelCheckWindow, AtomInstallWindowIsLinearizable) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, atom_window_body<FixedAtom>, kWindowTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

TEST(ModelCheckWindow, CombiningInstallWindowIsLinearizable) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, atom_window_body<CombUc>, kWindowTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

// The multi-slot gather: the combiner copies a rival's announced payload
// and then re-reads the slot's sequence to validate the copy. The
// "comb.gather" yield sits exactly between copy and re-read, so this
// sweep parks the combiner mid-gather while the announcer's operation
// is still in flight — every schedule must still linearize.
const std::vector<std::string> kFunnelTags = {"comb.gather", "atom.install",
                                              "atom.bump", "obs"};

TEST(ModelCheckWindow, CombiningGatherWindowIsLinearizable) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, atom_window_body<CombUc>, kFunnelTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

// The batch install loop's contention rule. An execute_batch span of
// four ops on a two-slot combiner (longer than MaxThreads) races a point
// insert on the span's key across "atom.install". When the point insert
// wins the root CAS first, the span's install loses and the loop retries
// with half the span (never below MaxThreads), so the span lands in two
// installs and the point insert may linearize between them. Every
// schedule must answer and end as the span applied in order with the
// point insert at some position in it; some schedule must take the
// halving branch.
using TwoSlotCombUc = core::CombiningAtom<T, Epoch, MA, /*MaxThreads=*/2>;

std::optional<std::string> batch_halving_body(VirtualScheduler& vs,
                                              unsigned& halved) {
  using Req = TwoSlotCombUc::BatchRequest;
  using K = TwoSlotCombUc::OpKind;
  using Items = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const std::vector<Req> span = {
      Req{K::kInsert, 3, 31}, Req{K::kErase, 3, std::nullopt},
      Req{K::kInsert, 1, 10}, Req{K::kInsert, 3, 33}};
  const Req point{K::kInsert, 3, 50};
  struct Shared {
    MA a;
    Epoch smr;
    TwoSlotCombUc uc;
    bool span_out[4] = {};
    bool point_out = false;
    core::OpStats span_stats;
    Items items;
    Shared() : uc(smr, a) {}
  };
  auto sh = std::make_shared<Shared>();
  vs.spawn([sh, &span] {  // tid 0: the span
    TwoSlotCombUc::Ctx ctx(sh->smr, sh->a);
    sh->uc.execute_batch(ctx, span, std::span<bool>(sh->span_out));
    sh->span_stats = ctx.stats;
  });
  vs.spawn([sh, &point] {  // tid 1: the racing point insert
    TwoSlotCombUc::Ctx ctx(sh->smr, sh->a);
    const unsigned slot = sh->uc.register_slot();
    sh->point_out = sh->uc.insert(ctx, slot, point.key, *point.value);
  });
  vs.run();
  {
    TwoSlotCombUc::Ctx ctx(sh->smr, sh->a);
    sh->items = sh->uc.read(ctx, [](T t) { return t.items(); });
  }
  if (sh->span_stats.cas_failures > 0 && sh->span_stats.updates == 2) {
    ++halved;
  }
  // The oracle: the span in order, the point insert before span op p.
  for (std::size_t p = 0; p <= span.size(); ++p) {
    std::map<std::int64_t, std::int64_t> m;
    const auto apply = [&m](const Req& r) {
      return r.kind == K::kInsert ? m.emplace(r.key, *r.value).second
                                  : m.erase(r.key) == 1;
    };
    bool want_point = false;
    bool match = true;
    for (std::size_t i = 0; i <= span.size(); ++i) {
      if (i == p) want_point = apply(point);
      if (i < span.size() && apply(span[i]) != sh->span_out[i]) match = false;
    }
    if (match && want_point == sh->point_out &&
        sh->items == Items(m.begin(), m.end())) {
      return std::nullopt;
    }
  }
  return "no position of the point insert in the span explains the "
         "results and contents";
}

TEST(ModelCheckWindow, BatchLoopHalvesAfterALostInstallAndStaysExact) {
  unsigned halved = 0;
  const ExploreResult res = verify::sched::explore_exhaustive(
      10,
      [&halved](VirtualScheduler& vs) { return batch_halving_body(vs, halved); },
      kWindowTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GE(res.schedules, 20u);
  EXPECT_GT(halved, 0u) << "no schedule lost the span's CAS";
}

// ---------------------------------------------------------------------
// 3b. The Dekker announce/drain handshake. A session reads the epoch,
//     publishes its mark, and re-reads; the publisher stores the new
//     epoch and drains marks. The model checker explores the window
//     between the session's epoch read and its mark store (the
//     "epoch.mark" yield): with the re-read the protocol is tight; a
//     session that skips the re-read can be drained past and operate
//     under a retired epoch — the search must find exactly that hole
//     (positive control: the checker can see real protocol bugs).
// ---------------------------------------------------------------------

const std::vector<std::string> kDekkerTags = {
    "epoch.mark", "epoch.announce", "epoch.publish", "epoch.drain", "sess.op"};

std::optional<std::string> dekker_body(VirtualScheduler& vs, bool reread) {
  struct Shared {
    store::EpochMarkRegistry reg;
    store::EpochMarkRegistry::Slot* slot = nullptr;
    std::atomic<std::uint64_t> eseq{1};
    bool in_flight = false;
    std::uint64_t used = 0;
    bool drained = false;
    std::optional<std::string> fail;
  };
  auto sh = std::make_shared<Shared>();
  sh->slot = sh->reg.acquire();

  vs.spawn([sh, reread] {  // tid 0: session
    for (;;) {
      const std::uint64_t e = sh->eseq.load(std::memory_order_seq_cst);
      store::EpochMarkRegistry::announce(sh->slot, e);
      if (!reread || sh->eseq.load(std::memory_order_seq_cst) == e) {
        sh->used = e;
        break;
      }
    }
    sh->in_flight = true;
    if (sh->drained && sh->used < 2) {
      sh->fail = "session operating under a drained epoch";
    }
    PC_YIELD("sess.op");
    sh->in_flight = false;
    store::EpochMarkRegistry::clear(sh->slot);
  });
  vs.spawn([sh] {  // tid 1: publisher
    sh->eseq.store(2, std::memory_order_seq_cst);
    PC_YIELD("epoch.publish");
    sh->reg.drain_below(2);
    sh->drained = true;
    if (sh->in_flight && sh->used < 2) {
      sh->fail = "drain completed past a session mid-op under the old epoch";
    }
  });
  vs.run();
  sh->reg.release(sh->slot);
  return sh->fail;
}

TEST(ModelCheckEpoch, DekkerHandshakeHasNoHole) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, [](VirtualScheduler& vs) { return dekker_body(vs, true); },
      kDekkerTags);
  EXPECT_TRUE(res.ok) << res.reason;
}

TEST(ModelCheckEpoch, DroppingTheReReadOpensTheHole) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, [](VirtualScheduler& vs) { return dekker_body(vs, false); },
      kDekkerTags);
  ASSERT_FALSE(res.ok)
      << "the re-read-free protocol should be caught (" << res.schedules
      << " schedules explored)";
  EXPECT_NE(res.reason.find("epoch"), std::string::npos);
}

// ---------------------------------------------------------------------
// 3c. The parked-op migration gate: a client hammers a key that changes
//     owner at a topology flip while the migrator publishes, drains,
//     moves the data, flips ready, and settles. Exactly-once semantics
//     must hold on every schedule: the client's insert sees the
//     pre-seeded value (false), its erase removes exactly one copy
//     (true), and its contains comes up empty (false) — a duplicated or
//     lost key during migration breaks one of the three.
// ---------------------------------------------------------------------

const std::vector<std::string> kGateTags = {
    "epoch.mark", "epoch.announce", "epoch.publish", "epoch.drain",
    "epoch.ready", "epoch.settle", "gate.park", "atom.install", "atom.bump"};

std::optional<std::string> gate_body(VirtualScheduler& vs) {
  using Map = store::ShardedMap<FixedAtom, TabR>;
  struct Shared {
    MA a;
    Map map;
    bool r_insert = true, r_erase = false, r_contains = true;
    Shared() : map(2, a, TabR({100}, {0, 1})) {}
  };
  auto sh = std::make_shared<Shared>();
  {
    typename Map::Session seed(sh->map, sh->a);
    if (!seed.insert(50, 7)) return "pre-seed failed";
  }

  vs.spawn([sh] {  // tid 0: client on the moving key
    typename Map::Session sess(sh->map, sh->a);
    sh->r_insert = sess.insert(50, 8);     // expect false: 50 is present
    sh->r_erase = sess.erase(50);          // expect true: exactly one copy
    sh->r_contains = sess.contains(50);    // expect false: it is gone
  });
  vs.spawn([sh] {  // tid 1: migrator — split moves [10,100) from 0 to 1
    auto* e = sh->map.begin_epoch(TabR({10}, {0, 1}));
    typename Map::Ctx c0(sh->map.shard(0).reclaimer(), sh->a);
    typename Map::Ctx c1(sh->map.shard(1).reclaimer(), sh->a);
    const unsigned slot1 = sh->map.shard(1).register_slot();
    std::vector<std::pair<std::int64_t, std::int64_t>> moving;
    {  // extract the frozen moving range from the drained source; the
       // view must drop before the erases below re-enter c0's guard
      const auto view = sh->map.shard(0).pin_versioned(c0);
      view.snapshot.for_each([&](std::int64_t k, std::int64_t v) {
        if (k >= 10) moving.emplace_back(k, v);
      });
    }
    for (const auto& [k, v] : moving) {
      sh->map.shard(1).insert(c1, slot1, k, v);
    }
    e->set_ready(1);
    for (const auto& [k, v] : moving) {
      sh->map.shard(0).erase(c0, 0, k);
    }
    e->set_ready(0);
    sh->map.settle_epoch(e);
  });
  vs.run();
  if (sh->r_insert) return "insert(50) claimed the key was absent";
  if (!sh->r_erase) return "erase(50) lost the key";
  if (sh->r_contains) return "contains(50) found a stale copy";
  return std::nullopt;
}

TEST(ModelCheckGate, MovingKeyOpsAreExactlyOnceAcrossTheFlip) {
  const ExploreResult res =
      verify::sched::explore_exhaustive(10, gate_body, kGateTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 50u);
}

// ---------------------------------------------------------------------
// 3d. Executor stop/submit race, driven through store::run_shard_tasks
//     (the store's one lane-or-thread choice): a submit that wins lands
//     exactly once (ticket completes, result scattered); a submit that
//     loses is refused and the client runs the task itself through
//     run_task, as does a client that finds the executor already
//     detached — never lost, never doubled.
// ---------------------------------------------------------------------

const std::vector<std::string> kExecTags = {"exec.submit", "exec.stop"};

std::optional<std::string> exec_body(VirtualScheduler& vs) {
  using Map = store::ShardedMap<CombUc, TabR>;
  struct Shared {
    MA a;
    Map map;
    store::ShardExecutor<CombUc> exec;
    bool result = false;
    bool ran = false;
    Shared()
        : map(1, a, TabR{}),
          exec(map, [this]() -> MA& { return a; }) {}
  };
  auto sh = std::make_shared<Shared>();

  vs.spawn([sh] {  // tid 0: client submitting one insert
    using Req = typename CombUc::BatchRequest;
    const Req req{core::OpKind::kInsert, 9, 90};
    typename CombUc::Ctx ctx(sh->map.shard(0).reclaimer(), sh->a);
    typename store::ShardExecutor<CombUc>::TaskScratch scratch;
    // Lane, refused submit or detached executor: run_shard_tasks joins
    // (stop() drains queued tasks) or runs the task on this thread.
    store::run_shard_tasks(
        sh->map, std::span<typename CombUc::Ctx>(&ctx, 1), scratch,
        [](std::size_t) { return true; },
        [&](std::size_t) {
          typename store::ShardExecutor<CombUc>::Task task;
          task.reqs = std::span<const Req>(&req, 1);
          task.results = &sh->result;
          return task;
        });
    sh->ran = true;
  });
  vs.spawn([sh] {  // tid 1: concurrent shutdown
    sh->exec.stop();
  });
  vs.run();
  if (!sh->ran) return "client never completed";
  if (!sh->result) return "the insert's result was lost or doubled";
  typename Map::Session check(sh->map, sh->a);
  if (!check.contains(9)) return "the submitted insert never landed";
  return std::nullopt;
}

TEST(ModelCheckExec, StopSubmitRaceLosesNoTask) {
  const ExploreResult res =
      verify::sched::explore_exhaustive(6, exec_body, kExecTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GE(res.schedules, 2u);  // both race winners visited
}

// Same race, explored through the lock-free lane's own windows: the
// submit gate, the ring claim/publish pair, the wake, and the stop
// quiesce spin all become decision points. The worker is a real OS
// thread (its yields are no-ops), so this sweeps the logical client and
// stopper against each other across every lane-protocol boundary.
const std::vector<std::string> kExecLaneTags = {
    "exec.submit", "exec.stop", "lane.gate",
    "lane.push",   "lane.wake", "lane.stop"};

TEST(ModelCheckExec, StopSubmitRaceHoldsAcrossTheLaneWindows) {
  const ExploreResult res =
      verify::sched::explore_exhaustive(8, exec_body, kExecLaneTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 10u);
}

// ---------------------------------------------------------------------
// 3e. The shard lane itself (the executor's lock-free submission path).
//     Two protocols, each with a mutant positive control:
//
//     Ring claim/publish — producers race a sequence-stamped slot claim
//     through wraparound on a capacity-2 ring; every element a push
//     accepted must come out exactly once, in per-producer FIFO order.
//     The kSkipSlotSeqCheck mutant claims slots without the stamp check
//     (the classic Vyukov bug): a full ring gets overwritten, the
//     consumer's expected stamp never appears, and the element is gone
//     — the search must find a schedule that loses one.
//
//     Park/wake (Dekker) — the worker reads the publish epoch, checks
//     emptiness, advertises parked_, and re-reads the epoch before
//     sleeping. The invariant: a STANDING park over a non-empty lane
//     always has a wake delivered; otherwise the only thing between the
//     consumer and sleeping forever is the futex word's value compare —
//     a 32-bit epoch that aliases after wrap (the lost-wakeup ABA). The
//     kSkipParkRecheck mutant drops the re-read and the checker must
//     find the naked park.
// ---------------------------------------------------------------------

using store::LaneMutant;

const std::vector<std::string> kLaneRingTags = {"lane.push", "lane.publish",
                                                "lane.spin"};

template <LaneMutant Mutant>
std::optional<std::string> lane_ring_body(VirtualScheduler& vs) {
  struct Shared {
    store::MpscRing<int, Mutant> ring{2};
    int producers_done = 0;                 // logical threads serialize:
    std::vector<int> pushed[2];             // plain fields are race-free
    std::vector<int> popped;
  };
  auto sh = std::make_shared<Shared>();

  const int counts[2] = {2, 1};  // 3 pushes through cap 2 = wraparound
  for (int p = 0; p < 2; ++p) {
    vs.spawn([sh, p, n = counts[p]] {
      for (int i = 0; i < n; ++i) {
        const int v = p * 10 + i;
        for (int attempt = 0; attempt < 8; ++attempt) {
          if (sh->ring.try_push(v)) {
            sh->pushed[p].push_back(v);
            break;
          }
          PC_YIELD("lane.spin");  // full: the consumer must drain first
        }
      }
      ++sh->producers_done;
    });
  }
  vs.spawn([sh] {  // the single consumer
    int idle = 0;
    while (idle < 2) {
      int v = 0;
      if (sh->ring.try_pop(v)) {
        sh->popped.push_back(v);
        idle = 0;
        continue;
      }
      if (sh->producers_done == 2) ++idle;
      PC_YIELD("lane.spin");
    }
  });
  vs.run();

  // Every accepted element out exactly once, per-producer order intact.
  for (int p = 0; p < 2; ++p) {
    std::vector<int> got;
    for (const int v : sh->popped) {
      if (v / 10 == p) got.push_back(v);
    }
    if (got != sh->pushed[p]) {
      return "producer " + std::to_string(p) + " accepted " +
             std::to_string(sh->pushed[p].size()) + " element(s) but " +
             std::to_string(got.size()) + " came out (or out of order)";
    }
  }
  return std::nullopt;
}

TEST(ModelCheckLane, RingKeepsEveryAcceptedElementInFifoOrder) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, lane_ring_body<LaneMutant::kNone>, kLaneRingTags);
  EXPECT_TRUE(res.ok) << "schedule " << res.schedules << ": " << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

TEST(ModelCheckLane, SkippingTheSlotStampCheckLosesAnElement) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, lane_ring_body<LaneMutant::kSkipSlotSeqCheck>, kLaneRingTags);
  ASSERT_FALSE(res.ok) << "the stamp-free claim should lose an element ("
                       << res.schedules << " schedules explored)";
  EXPECT_NE(res.reason.find("came out"), std::string::npos);
  // The found schedule is itself a replayable regression.
  const std::optional<std::string> again = verify::sched::replay_trace(
      res.failing_trace, lane_ring_body<LaneMutant::kSkipSlotSeqCheck>,
      kLaneRingTags);
  EXPECT_TRUE(again.has_value()) << "failing trace did not replay";
}

const std::vector<std::string> kLaneParkTags = {"lane.window", "lane.wake",
                                                "lane.park"};

template <LaneMutant Mutant>
std::optional<std::string> lane_park_body(VirtualScheduler& vs) {
  struct Shared {
    store::ShardLane<int, Mutant> lane{4};
    bool producer_done = false;
    bool got = false;
    std::optional<std::string> fail;
  };
  auto sh = std::make_shared<Shared>();

  vs.spawn([sh] {  // producer: one element, then done
    using Lane = store::ShardLane<int, Mutant>;
    if (sh->lane.try_push(7) != Lane::Push::kOk) {
      sh->fail = "push refused on an idle lane";
    }
    sh->producer_done = true;
  });
  vs.spawn([sh] {  // consumer: the worker's idle protocol
    int v = 0;
    while (!sh->got) {
      const std::uint32_t w = sh->lane.park_epoch();
      if (sh->lane.try_pop(v)) {  // emptiness check AFTER the epoch read
        sh->got = true;
        break;
      }
      PC_YIELD("lane.window");  // the epoch-to-park window under test
      if (!sh->lane.commit_park(w)) continue;  // a publish slipped in
      if (sh->producer_done && sh->lane.approx_size() > 0 &&
          sh->lane.wakes_sent() == 0 && !sh->fail.has_value()) {
        sh->fail = "standing park over a non-empty lane with no wake "
                   "delivered — a futex-epoch wrap away from sleeping "
                   "forever";
      }
      sh->lane.park_wait(w);
    }
  });
  vs.run();
  if (sh->fail.has_value()) return sh->fail;
  if (!sh->got) return "the element was never drained";
  return std::nullopt;
}

TEST(ModelCheckLane, ParkProtocolNeverSleepsOverAPublishedTask) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, lane_park_body<LaneMutant::kNone>, kLaneParkTags);
  EXPECT_TRUE(res.ok) << "schedule " << res.schedules << ": " << res.reason;
  EXPECT_GT(res.schedules, 20u);
}

TEST(ModelCheckLane, DroppingTheParkRecheckReopensTheLostWakeup) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, lane_park_body<LaneMutant::kSkipParkRecheck>, kLaneParkTags);
  ASSERT_FALSE(res.ok) << "the re-read-free park should be caught ("
                       << res.schedules << " schedules explored)";
  EXPECT_NE(res.reason.find("no wake"), std::string::npos);
  const std::optional<std::string> again = verify::sched::replay_trace(
      res.failing_trace, lane_park_body<LaneMutant::kSkipParkRecheck>,
      kLaneParkTags);
  EXPECT_TRUE(again.has_value()) << "failing trace did not replay";
}

// ---------------------------------------------------------------------
// 3f. The batched read path (PR 10). multi_get's contract is that one
//     pinned root answers the whole probe batch: a sweep racing
//     installs must observe exactly one version. The kernel seeds
//     {1:10, 2:90} and lets a writer flip the pair atomically (chained
//     two-op updates = single CAS installs) while a reader multi_gets
//     both keys through the "atom.mget.sweep" window; both-or-neither
//     presence with the sum invariant holds on every schedule iff the
//     sweep never changes roots mid-batch. The mutant positive control
//     re-pins between the two probes — exactly the bug the single-pin
//     design rules out — and the exhaustive search must catch it.
// ---------------------------------------------------------------------

const std::vector<std::string> kReadTags = {"atom.install", "atom.bump",
                                            "atom.mget.sweep"};

// One atomic pair-flip writer against a two-key reader; `torn_reader`
// swaps the single-pin sweep for a pin-per-key mutant.
std::optional<std::string> read_kernel_body(VirtualScheduler& vs,
                                            bool torn_reader) {
  struct Shared {
    MA a;
    Epoch smr;
    FixedAtom atom;
    std::optional<std::string> fail;
    Shared() : atom(smr, a) {}
  };
  auto sh = std::make_shared<Shared>();
  {
    typename FixedAtom::Ctx seed(sh->smr, sh->a);
    sh->atom.update(seed, [](T t, auto& b) {
      return t.insert(b, 1, 10).insert(b, 2, 90);
    });
  }

  vs.spawn([sh, torn_reader] {  // tid 0: the batched reader
    typename FixedAtom::Ctx ctx(sh->smr, sh->a);
    const std::int64_t keys[] = {1, 2};
    typename FixedAtom::ReadOutcome out[2];
    if (torn_reader) {
      // MUTANT: re-pin mid-sweep — each key answered by its own root.
      {
        const auto view = sh->atom.pin_versioned(ctx);
        if (const std::int64_t* v = view.snapshot.find(1)) out[0].value = *v;
      }
      PC_YIELD("atom.mget.sweep");
      {
        const auto view = sh->atom.pin_versioned(ctx);
        if (const std::int64_t* v = view.snapshot.find(2)) out[1].value = *v;
      }
    } else {
      sh->atom.multi_get(ctx, std::span<const std::int64_t>(keys, 2),
                         std::span<typename FixedAtom::ReadOutcome>(out, 2));
    }
    if (out[0].present() != out[1].present()) {
      sh->fail = "multi_get saw a half-present pair: two roots in one sweep";
    } else if (out[0].present() && *out[0].value + *out[1].value != 100) {
      sh->fail = "multi_get blended values from two versions";
    }
  });
  vs.spawn([sh] {  // tid 1: atomic pair flips (one install each)
    typename FixedAtom::Ctx ctx(sh->smr, sh->a);
    sh->atom.update(ctx,
                    [](T t, auto& b) { return t.erase(b, 1).erase(b, 2); });
    sh->atom.update(ctx, [](T t, auto& b) {
      return t.insert(b, 1, 33).insert(b, 2, 67);
    });
  });
  vs.run();
  return sh->fail;
}

TEST(ModelCheckRead, MultiGetObservesExactlyOneRootAcrossInstalls) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, [](VirtualScheduler& vs) { return read_kernel_body(vs, false); },
      kReadTags);
  EXPECT_TRUE(res.ok) << "schedule " << res.schedules << ": " << res.reason;
  EXPECT_GT(res.schedules, 20u);
}

TEST(ModelCheckRead, RePinningMidSweepIsCaught) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      10, [](VirtualScheduler& vs) { return read_kernel_body(vs, true); },
      kReadTags);
  ASSERT_FALSE(res.ok) << "the pin-per-key mutant should tear (" //
                       << res.schedules << " schedules explored)";
  EXPECT_NE(res.reason.find("two"), std::string::npos);
  // The found schedule is itself a replayable regression.
  const std::optional<std::string> again = verify::sched::replay_trace(
      res.failing_trace,
      [](VirtualScheduler& vs) { return read_kernel_body(vs, true); },
      kReadTags);
  EXPECT_TRUE(again.has_value()) << "failing trace did not replay";
}

// The read-task drain window end to end: a client's probe ticket racing
// executor shutdown through run_shard_tasks either rides the lane (the
// worker's merged pin → sweep → scatter path, exec_read_merged) or is
// refused, or finds the executor detached, and runs through run_task on
// the client's thread — the answer arrives exactly once either way. The worker is a real OS thread, so its
// "exec.read.sweep"/"exec.read.scatter" yields are pass-throughs here;
// the race is explored from the client and stopper sides. "ticket.join"
// is left out, as in kExecTags: the worker completes the ticket, so how
// many join yields a schedule makes depends on OS timing, and replaying
// a decision trace would diverge.
const std::vector<std::string> kExecReadTags = {"exec.submit", "exec.stop"};

std::optional<std::string> exec_read_body(VirtualScheduler& vs) {
  using Map = store::ShardedMap<CombUc, TabR>;
  struct Shared {
    MA a;
    Map map;
    store::ShardExecutor<CombUc> exec;
    typename CombUc::ReadOutcome out;
    bool ran = false;
    Shared()
        : map(1, a, TabR{}),
          exec(map, [this]() -> MA& { return a; }) {}
  };
  auto sh = std::make_shared<Shared>();
  {
    typename Map::Session seed(sh->map, sh->a);
    if (!seed.insert(9, 90)) return "pre-seed failed";
  }

  vs.spawn([sh] {  // tid 0: client probing key 9
    static constexpr std::int64_t kKey = 9;
    typename CombUc::Ctx ctx(sh->map.shard(0).reclaimer(), sh->a);
    typename store::ShardExecutor<CombUc>::TaskScratch scratch;
    store::run_shard_tasks(
        sh->map, std::span<typename CombUc::Ctx>(&ctx, 1), scratch,
        [](std::size_t) { return true; },
        [&](std::size_t) {
          typename store::ShardExecutor<CombUc>::Task task;
          task.keys = std::span<const std::int64_t>(&kKey, 1);
          task.read_results = &sh->out;
          return task;
        });
    sh->ran = true;
  });
  vs.spawn([sh] {  // tid 1: concurrent shutdown
    sh->exec.stop();
  });
  vs.run();
  if (!sh->ran) return "client never completed";
  if (!sh->out.present()) return "the probe's answer was lost";
  if (*sh->out.value != 90) return "the probe answered a wrong value";
  return std::nullopt;
}

TEST(ModelCheckRead, StopSubmitRaceLosesNoProbe) {
  const ExploreResult res =
      verify::sched::explore_exhaustive(6, exec_read_body, kExecReadTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GE(res.schedules, 2u);  // both race winners visited
}

// ---------------------------------------------------------------------
// 3g. The version-keyed reclaimers' retire/collect window, under each
//     pin rule. A reader pins the root and, still under its guard,
//     checks that the root's canary has not been destroyed; two writers
//     each swap the root, retire the old canary and collect. The
//     "reclaim.collect" yield sits on entry to collect, before the
//     bundle lock, so the other writer's retire and the reader's pin can
//     land between a collector's start and its read of the minimum
//     announcement; the pin rules' yields open the windows between a
//     reader's loads and its announcement. A collect that reads the
//     minimum before taking the lock (the watermark scheme's old
//     use-after-free) fails this search under both rules.
// ---------------------------------------------------------------------

const std::vector<std::string> kReclaimTags = {
    "reclaim.pin", "reclaim.validate", "reclaim.collect", "reader.use"};

template <class Smr>
std::optional<std::string> reclaim_body(VirtualScheduler& vs) {
  struct Shared {
    MA a;
    Smr smr;
    std::atomic<int> destroyed[3] = {};
    const test::Canary* canary[3] = {};
    std::atomic<const void*> root{nullptr};
    std::atomic<std::uint64_t> ver{1};
    std::optional<std::string> fail;
  };
  auto sh = std::make_shared<Shared>();
  for (int i = 0; i < 3; ++i) {
    sh->canary[i] = test::make_canary(sh->a, &sh->destroyed[i]);
  }
  sh->root.store(sh->canary[0]);

  vs.spawn([sh] {  // tid 0: reader
    auto h = sh->smr.register_thread();
    auto g = sh->smr.pin(h, sh->root, sh->ver);
    PC_YIELD("reader.use");
    for (int i = 0; i < 3; ++i) {  // compares pointers only: no deref
      if (g.root() == sh->canary[i] && sh->destroyed[i].load() != 0) {
        sh->fail = "canary " + std::to_string(i) +
                   " destroyed under the reader's guard";
      }
    }
  });
  for (int w = 1; w <= 2; ++w) {
    vs.spawn([sh, w] {  // tids 1, 2: writers
      auto h = sh->smr.register_thread();
      const void* old = sh->root.exchange(sh->canary[w]);
      const std::uint64_t death = sh->ver.fetch_add(1) + 1;
      sh->smr.retire_bundle(h, death, old, sh->canary[w],
                            test::one_retired(sh->a, old));
      sh->smr.drain_all();  // the collect every 64th retire runs
    });
  }
  vs.run();
  auto h = sh->smr.register_thread();
  sh->smr.retire_bundle(h, sh->ver.load() + 1, nullptr, nullptr,
                        test::one_retired(sh->a, sh->root.load()));
  sh->smr.drain_all();
  for (int i = 0; i < 3 && !sh->fail; ++i) {
    if (sh->destroyed[i].load() != 1) {
      sh->fail = "canary " + std::to_string(i) + " destroyed " +
                 std::to_string(sh->destroyed[i].load()) + " times";
    }
  }
  return sh->fail;
}

TEST(ModelCheckReclaim, WatermarkNeverFreesAPinnedRoot) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      12, reclaim_body<reclaim::WatermarkReclaimer>, kReclaimTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

TEST(ModelCheckReclaim, HazardEraNeverFreesAPinnedRoot) {
  const ExploreResult res = verify::sched::explore_exhaustive(
      12, reclaim_body<reclaim::HazardRootReclaimer>, kReclaimTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

// 3h. EBR's retire/advance window. The same reader and canaries, but the
//     writers only swap and retire: EBR's drain_all is teardown-only, so
//     each bundle is padded to kScanInterval units and every retire runs
//     the registry scan, try_advance and the bucket frees itself. The
//     "ebr.pin.*" yields open the reader's windows before its
//     announcement and before its root load, and "ebr.advance" the
//     window between a scan and its CAS. A bucket freed one epoch early
//     fails this search (checked on a copy of the code, not kept).

const std::vector<std::string> kEbrTags = {
    "ebr.pin.announce", "ebr.pin.root", "ebr.advance", "reader.use"};

std::optional<std::string> ebr_body(VirtualScheduler& vs) {
  struct Shared {
    MA a;
    Epoch smr;
    std::atomic<int> destroyed[3] = {};
    const test::Canary* canary[3] = {};
    std::atomic<const void*> root{nullptr};
    std::atomic<std::uint64_t> ver{1};  // EBR's pin ignores it
    std::optional<std::string> fail;
  };
  auto sh = std::make_shared<Shared>();
  for (int i = 0; i < 3; ++i) {
    sh->canary[i] = test::make_canary(sh->a, &sh->destroyed[i]);
  }
  sh->root.store(sh->canary[0]);

  vs.spawn([sh] {  // tid 0: reader
    auto h = sh->smr.register_thread();
    auto g = sh->smr.pin(h, sh->root, sh->ver);
    PC_YIELD("reader.use");
    for (int i = 0; i < 3; ++i) {  // compares pointers only: no deref
      if (g.root() == sh->canary[i] && sh->destroyed[i].load() != 0) {
        sh->fail = "canary " + std::to_string(i) +
                   " destroyed under the reader's guard";
      }
    }
  });
  for (int w = 1; w <= 2; ++w) {
    vs.spawn([sh, w] {  // tids 1, 2: writers
      auto h = sh->smr.register_thread();
      const void* old = sh->root.exchange(sh->canary[w]);
      sh->smr.retire_bundle(
          h, 0, old, sh->canary[w],
          test::padded_retired(sh->a, old, Epoch::kScanInterval - 1));
    });
  }
  vs.run();
  {
    auto h = sh->smr.register_thread();
    sh->smr.retire_bundle(h, 0, nullptr, nullptr,
                          test::one_retired(sh->a, sh->root.load()));
  }
  sh->smr.drain_all();
  for (int i = 0; i < 3 && !sh->fail; ++i) {
    if (sh->destroyed[i].load() != 1) {
      sh->fail = "canary " + std::to_string(i) + " destroyed " +
                 std::to_string(sh->destroyed[i].load()) + " times";
    }
  }
  if (!sh->fail && sh->a.stats().live_blocks() != 0) {
    sh->fail = std::to_string(sh->a.stats().live_blocks()) +
               " block(s) never freed";
  }
  return sh->fail;
}

TEST(ModelCheckReclaim, EpochNeverFreesAPinnedRoot) {
  const ExploreResult res =
      verify::sched::explore_exhaustive(12, ebr_body, kEbrTags);
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_GT(res.schedules, 100u);
}

// ---------------------------------------------------------------------
// 4. Seeded random-walk smoke over the fixed protocols — the entry
//    point scripts/check.sh time-boxes. PATHCOPY_MC_SEED=<n> overrides
//    the base seed; a failure prints the walk's seed, and
//    replay_seed(seed, ...) reproduces the schedule from it alone.
// ---------------------------------------------------------------------

TEST(ModelCheckSmoke, RandomWalksOverTheFixedProtocols) {
  std::uint64_t seed0 = 0xC0FFEE;
  if (const char* env = std::getenv("PATHCOPY_MC_SEED")) {
    seed0 = std::strtoull(env, nullptr, 0);
  }
  const ExploreResult kernel = verify::sched::explore_random(
      seed0, 64, 12, atom_kernel_body<FixedAtom>, kAtomKernelTags);
  EXPECT_TRUE(kernel.ok) << "kernel walk failed; reproduce with "
                         << "PATHCOPY_MC_SEED, failing seed="
                         << kernel.failing_seed << ": " << kernel.reason;
  const ExploreResult window = verify::sched::explore_random(
      seed0 ^ 0x5EED, 64, 12, atom_window_body<FixedAtom>, kWindowTags);
  EXPECT_TRUE(window.ok) << "window walk failed; failing seed="
                         << window.failing_seed << ": " << window.reason;
  const ExploreResult gate = verify::sched::explore_random(
      seed0 ^ 0x6A7E, 24, 10, gate_body, kGateTags);
  EXPECT_TRUE(gate.ok) << "gate walk failed; failing seed="
                       << gate.failing_seed << ": " << gate.reason;
  const ExploreResult ring = verify::sched::explore_random(
      seed0 ^ 0x1A4E, 64, 10, lane_ring_body<LaneMutant::kNone>,
      kLaneRingTags);
  EXPECT_TRUE(ring.ok) << "lane-ring walk failed; failing seed="
                       << ring.failing_seed << ": " << ring.reason;
  const ExploreResult park = verify::sched::explore_random(
      seed0 ^ 0x9A2C, 64, 10, lane_park_body<LaneMutant::kNone>,
      kLaneParkTags);
  EXPECT_TRUE(park.ok) << "lane-park walk failed; failing seed="
                       << park.failing_seed << ": " << park.reason;
  const ExploreResult read = verify::sched::explore_random(
      seed0 ^ 0x4EAD, 64, 10,
      [](VirtualScheduler& vs) { return read_kernel_body(vs, false); },
      kReadTags);
  EXPECT_TRUE(read.ok) << "read-kernel walk failed; failing seed="
                       << read.failing_seed << ": " << read.reason;
}

}  // namespace
}  // namespace pathcopy
