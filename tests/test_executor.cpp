// ShardExecutor: the store's async shard pipeline.
//
// What must hold:
//   * per-shard FIFO — tasks submitted to one shard apply in submission
//     order (the results of an alternating insert/erase chain on one key
//     betray any reorder);
//   * join-ticket completeness — join() returns only after every armed
//     sub-batch ran and scattered its results;
//   * shutdown drains — stop()/destruction executes everything already
//     submitted, completing its tickets, before the workers exit;
//   * the async Session path (executor attached) is observationally
//     identical to the synchronous splitter, including under concurrent
//     clients (the TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "alloc/malloc_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/btree.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "store/executor.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "util/rng.hpp"

namespace pathcopy {
namespace {

using T = persist::Treap<std::int64_t, std::int64_t>;
using Epoch = reclaim::EpochReclaimer;
using MA = alloc::MallocAlloc;
using PlainUc = core::Atom<T, Epoch, MA>;
using CombUc = core::CombiningAtom<T, Epoch, MA>;
using TabR = store::TabletRouter<std::int64_t>;

// MallocAlloc is thread-safe (operator new + atomic counters), so every
// worker can share the map's instance; sharing also keeps the leak check
// one-sided: all allocs and frees land on the same stats block.
template <class Uc>
auto shared_alloc_factory(MA& a) {
  return [&a]() -> MA& { return a; };
}

template <class Uc>
using Map = store::ShardedMap<Uc, TabR>;

template <class Uc>
Map<Uc> make_map(std::size_t shards, MA& a) {
  return Map<Uc>(shards, a, TabR::uniform(0, 1024, shards));
}

TEST(Executor, PerShardFifoOrderingOnOneKey) {
  MA a;
  {
    auto map = make_map<CombUc>(1, a);
    store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a));
    using Req = typename CombUc::BatchRequest;
    using K = typename CombUc::OpKind;
    // 2N single-op tasks alternating insert/erase of the same key. FIFO
    // execution makes every op land (insert on absent, erase on present):
    // all results true. Any reorder yields a false somewhere.
    constexpr int kPairs = 200;
    std::vector<Req> reqs;
    for (int i = 0; i < kPairs; ++i) {
      reqs.push_back(Req{K::kInsert, 7, 7});
      reqs.push_back(Req{K::kErase, 7, std::nullopt});
    }
    const auto results = std::make_unique<bool[]>(reqs.size());
    store::BatchTicket ticket;
    ticket.arm(static_cast<unsigned>(reqs.size()));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      typename store::ShardExecutor<CombUc>::Task task;
      task.reqs = std::span<const Req>(&reqs[i], 1);
      task.results = &results[i];
      task.ticket = &ticket;
      ASSERT_TRUE(exec.submit(0, task));
    }
    ticket.join();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(results[i]) << "op " << i << " saw a reordered state";
    }
    typename Map<CombUc>::Session session(map, a);
    EXPECT_EQ(session.size(), 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, JoinTicketCoversEveryShardsSubBatch) {
  MA a;
  {
    auto map = make_map<CombUc>(4, a);
    store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a));
    typename Map<CombUc>::Session session(map, a);
    using Req = typename Map<CombUc>::BatchRequest;
    using K = typename Map<CombUc>::OpKind;
    // Fresh distinct keys spread over all shards: every result must come
    // back true, and only after join() may we rely on any of them.
    std::vector<Req> reqs;
    for (std::int64_t k = 0; k < 1024; k += 3) {
      reqs.push_back(Req{K::kInsert, k, k * 2});
    }
    const auto res = std::make_unique<bool[]>(reqs.size());
    session.execute_batch(reqs, std::span<bool>(res.get(), reqs.size()));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(res[i]) << "result " << i << " not scattered back";
    }
    ASSERT_EQ(session.size(), reqs.size());
    for (const Req& r : reqs) {
      ASSERT_EQ(session.find(r.key), std::optional<std::int64_t>(r.key * 2));
    }
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, StopDrainsQueuedTasksBeforeExit) {
  MA a;
  {
    auto map = make_map<CombUc>(2, a);
    using Req = typename CombUc::BatchRequest;
    using K = typename CombUc::OpKind;
    std::vector<std::vector<Req>> batches;
    for (std::int64_t b = 0; b < 64; ++b) {
      std::vector<Req> reqs;
      for (std::int64_t i = 0; i < 8; ++i) {
        const std::int64_t k = b * 8 + i;
        reqs.push_back(Req{K::kInsert, k, k});
      }
      batches.push_back(std::move(reqs));
    }
    const auto res = std::make_unique<bool[]>(64 * 8);
    store::BatchTicket ticket;
    {
      store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a));
      ticket.arm(64);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        typename store::ShardExecutor<CombUc>::Task task;
        task.reqs = std::span<const Req>(batches[b]);
        task.results = &res[b * 8];
        task.ticket = &ticket;
        // Keys 0..511 with the range split at 512: everything routes to
        // shard 0; alternate lanes anyway to exercise both workers.
        ASSERT_TRUE(exec.submit(b % 2 == 0 ? 0 : 1, task));
      }
      // No join before stop: destruction must drain, not drop.
    }
    EXPECT_TRUE(ticket.done());
    typename Map<CombUc>::Session session(map, a);
    EXPECT_EQ(session.size(), 64u * 8u);
    for (std::size_t i = 0; i < 64u * 8u; ++i) {
      ASSERT_TRUE(res[i]) << "task for op " << i << " was dropped";
    }
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, WorkerStatsSurfaceWakesAndSampledLatency) {
  MA a;
  {
    auto map = make_map<CombUc>(2, a);
    store::ShardStatsBoard board(2);
    {
      store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a));
      typename Map<CombUc>::Session session(map, a);
      using Req = typename Map<CombUc>::BatchRequest;
      using K = typename Map<CombUc>::OpKind;
      std::vector<Req> reqs;
      for (std::int64_t k = 0; k < 1024; k += 2) {
        reqs.push_back(Req{K::kInsert, k, k});
      }
      const auto res = std::make_unique<bool[]>(reqs.size());
      session.execute_batch(reqs, std::span<bool>(res.get(), reqs.size()));
      exec.stop();
      exec.fold_into(board);
    }
    const core::OpStats total = board.total();
    // One client batch split over two shards: each worker ran one task,
    // on its own wakeup. Latency is SAMPLED (every Nth submit per lane),
    // but the first submit to a lane is always sample 0 — so both tasks
    // here carry a stamp and the sampled mean is honest, not zero.
    EXPECT_EQ(total.exec_tasks, 2u);
    EXPECT_GE(total.exec_wakes, 2u);
    EXPECT_EQ(total.exec_task_samples, 2u);
    EXPECT_GT(total.exec_task_ns, 0u);
    EXPECT_GT(total.mean_task_us(), 0.0);
    EXPECT_GT(total.updates, 0u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, RingWraparoundAndFullRingBackpressure) {
  MA a;
  // A 4-slot lane forces hundreds of wraparounds and constant full-ring
  // backpressure from three producers; nothing may be lost, reordered
  // per-producer, or run twice.
  constexpr int kProducers = 3;
  constexpr std::int64_t kPerProducer = 300;
  {
    auto map = make_map<CombUc>(1, a);
    typename store::ShardExecutor<CombUc>::Options opts;
    opts.lane_capacity = 4;
    store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a),
                                      opts);
    using Req = typename CombUc::BatchRequest;
    using K = typename CombUc::OpKind;
    std::vector<std::thread> producers;
    for (int w = 0; w < kProducers; ++w) {
      producers.emplace_back([&, w] {
        // Fresh disjoint keys per producer: every insert must return true.
        std::vector<Req> reqs;
        reqs.reserve(kPerProducer);
        for (std::int64_t i = 0; i < kPerProducer; ++i) {
          reqs.push_back(Req{K::kInsert, w * 100000 + i, i});
        }
        const auto res = std::make_unique<bool[]>(kPerProducer);
        store::BatchTicket ticket;
        ticket.arm(kPerProducer);
        for (std::int64_t i = 0; i < kPerProducer; ++i) {
          typename store::ShardExecutor<CombUc>::Task task;
          task.reqs = std::span<const Req>(&reqs[i], 1);
          task.results = &res[i];
          task.ticket = &ticket;
          ASSERT_TRUE(exec.submit(0, task));
        }
        ticket.join();
        for (std::int64_t i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(res[i]) << "producer " << w << " op " << i
                              << " lost or duplicated";
        }
      });
    }
    for (auto& p : producers) p.join();
    typename Map<CombUc>::Session session(map, a);
    EXPECT_EQ(session.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, StopRacingSubmittersDrainsEverythingAccepted) {
  MA a;
  // Clients keep batching fresh-key inserts while the main thread stops
  // the executor mid-stream. Accepted tasks must drain through the lane,
  // refused ones run synchronously inside Session — either way every op
  // lands exactly once and reports true.
  constexpr int kClients = 3;
  constexpr int kRounds = 60;
  constexpr int kBatch = 16;
  {
    auto map = make_map<CombUc>(2, a);
    store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a));
    using Req = typename Map<CombUc>::BatchRequest;
    using K = typename Map<CombUc>::OpKind;
    std::vector<std::thread> clients;
    for (int w = 0; w < kClients; ++w) {
      clients.emplace_back([&, w] {
        typename Map<CombUc>::Session session(map, a);
        std::vector<Req> reqs;
        bool res[kBatch];
        for (int round = 0; round < kRounds; ++round) {
          reqs.clear();
          for (int i = 0; i < kBatch; ++i) {
            const std::int64_t k = w * 100000 + round * kBatch + i;
            reqs.push_back(Req{K::kInsert, k, k});
          }
          session.execute_batch(reqs, std::span<bool>(res, reqs.size()));
          for (int i = 0; i < kBatch; ++i) {
            ASSERT_TRUE(res[i]) << "client " << w << " round " << round;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    exec.stop();  // races the clients; they fall back to the sync path
    for (auto& c : clients) c.join();
    typename Map<CombUc>::Session session(map, a);
    EXPECT_EQ(session.size(),
              static_cast<std::size_t>(kClients * kRounds * kBatch));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

TEST(Executor, ForcedHotCoalescingMatchesSequentialOracleExactly) {
  MA a1, a2;
  // Coalescing forced hot: the worker starts parked while many small
  // tickets (heavy same-key traffic, so chains cross ticket boundaries)
  // pile into one lane; a single wakeup then drains and merges them all.
  // Exact per-op outcomes must equal replaying the tickets sequentially.
  constexpr int kTickets = 120;
  {
    auto map = make_map<CombUc>(1, a1);
    typename store::ShardExecutor<CombUc>::Options opts;
    opts.start_paused = true;
    store::ShardExecutor<CombUc> exec(map, shared_alloc_factory<CombUc>(a1),
                                      opts);
    using Req = typename CombUc::BatchRequest;
    using K = typename CombUc::OpKind;
    util::Xoshiro256 rng(41);
    std::vector<std::vector<Req>> tickets_reqs(kTickets);
    for (auto& reqs : tickets_reqs) {
      const int n = 1 + static_cast<int>(rng.range(0, 3));
      for (int i = 0; i < n; ++i) {
        const std::int64_t k = rng.range(0, 15);  // 16 keys: dense chains
        if (rng.chance(1, 2)) {
          reqs.push_back(Req{K::kInsert, k, k * 3 + n});
        } else {
          reqs.push_back(Req{K::kErase, k, std::nullopt});
        }
      }
      // The executor's merge contract: a coalescible task is key-sorted
      // with same-key ops in application order (what split_batch emits).
      std::stable_sort(reqs.begin(), reqs.end(),
                       [](const Req& x, const Req& y) { return x.key < y.key; });
    }
    std::vector<std::unique_ptr<bool[]>> results;
    std::deque<store::BatchTicket> tickets;
    for (int t = 0; t < kTickets; ++t) {
      results.push_back(std::make_unique<bool[]>(tickets_reqs[t].size()));
      store::BatchTicket& ticket = tickets.emplace_back();
      ticket.arm(1);
      typename store::ShardExecutor<CombUc>::Task task;
      task.reqs = std::span<const Req>(tickets_reqs[t]);
      task.results = results[t].get();
      task.ticket = &ticket;
      ASSERT_TRUE(exec.submit(0, task));
    }
    exec.resume();
    for (auto& t : tickets) t.join();

    // Sequential oracle: the lane is FIFO, so outcomes must equal
    // applying the tickets one at a time in submission order.
    auto oracle_map = make_map<CombUc>(1, a2);
    typename Map<CombUc>::Session oracle(oracle_map, a2);
    for (int t = 0; t < kTickets; ++t) {
      const auto& reqs = tickets_reqs[t];
      bool buf[8];
      oracle.execute_batch(reqs, std::span<bool>(buf, reqs.size()));
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        ASSERT_EQ(results[t][i], buf[i])
            << "ticket " << t << " op " << i
            << " diverged across a coalesced install";
      }
    }
    typename Map<CombUc>::Session session(map, a1);
    ASSERT_EQ(session.items(), oracle.items());

    store::ShardStatsBoard board(1);
    exec.stop();
    exec.fold_into(board);
    const core::OpStats total = board.total();
    // The parked backlog must have coalesced: far fewer wakes than
    // tickets, and merged installs absorbing multiple tickets each.
    EXPECT_EQ(total.exec_tasks, static_cast<std::uint64_t>(kTickets));
    EXPECT_GT(total.tickets_per_wake(), 1.0);
    EXPECT_GE(total.exec_coalesced_installs, 1u);
    EXPECT_GE(total.exec_coalesced_tasks, 2u);
  }
  EXPECT_EQ(a1.stats().live_blocks(), 0u);
  EXPECT_EQ(a2.stats().live_blocks(), 0u);
}

// The store-level route to a coalesced run that the fanout gate declines:
// a B-tree shard holding every 8th key of [0, 2^20) and four 40-op
// tickets of uniform random keys parked in one lane. resume() merges
// them into one 160-op run that lands about one op per leaf, so the
// gate sends it per op, inside the install that pinned the root.
// Outcomes and contents must equal a sequential oracle.
TEST(Executor, GateDeclinedCoalescedRunMatchesSequentialOracle) {
  using BUc = core::CombiningAtom<persist::BTree<std::int64_t, std::int64_t, 8>,
                                  Epoch, MA>;
  using Req = typename BUc::BatchRequest;
  using K = typename BUc::OpKind;
  constexpr std::int64_t kSpan = std::int64_t{1} << 20;
  constexpr int kTickets = 4;
  constexpr int kOps = 40;
  std::map<std::int64_t, std::int64_t> oracle;
  std::vector<std::pair<std::int64_t, std::int64_t>> seed;
  for (std::int64_t k = 0; k < kSpan; k += 8) {
    seed.emplace_back(k, k);
    oracle.emplace(k, k);
  }
  MA a;
  {
    Map<BUc> map(1, a, TabR::uniform(0, kSpan, 1));
    typename Map<BUc>::Session session(map, a);
    session.seed_sorted(seed.begin(), seed.end());
    typename store::ShardExecutor<BUc>::Options opts;
    opts.start_paused = true;
    store::ShardExecutor<BUc> exec(map, shared_alloc_factory<BUc>(a), opts);
    util::Xoshiro256 rng(8191);
    std::vector<std::vector<Req>> tickets_reqs(kTickets);
    for (auto& reqs : tickets_reqs) {
      for (int i = 0; i < kOps; ++i) {
        const std::int64_t k = rng.range(0, kSpan - 1);
        if (rng.chance(1, 2)) {
          reqs.push_back(Req{K::kInsert, k, -k});
        } else {
          reqs.push_back(Req{K::kErase, k, std::nullopt});
        }
      }
      std::stable_sort(reqs.begin(), reqs.end(),
                       [](const Req& x, const Req& y) { return x.key < y.key; });
    }
    std::array<std::array<bool, kOps>, kTickets> results{};
    std::deque<store::BatchTicket> tickets;
    for (int t = 0; t < kTickets; ++t) {
      store::BatchTicket& ticket = tickets.emplace_back();
      ticket.arm(1);
      typename store::ShardExecutor<BUc>::Task task;
      task.reqs = std::span<const Req>(tickets_reqs[t]);
      task.results = results[t].data();
      task.ticket = &ticket;
      ASSERT_TRUE(exec.submit(0, task));
    }
    exec.resume();
    for (auto& t : tickets) t.join();

    for (int t = 0; t < kTickets; ++t) {
      for (int i = 0; i < kOps; ++i) {
        const Req& r = tickets_reqs[t][i];
        const bool landed = r.kind == K::kInsert
                                ? oracle.emplace(r.key, *r.value).second
                                : oracle.erase(r.key) > 0;
        ASSERT_EQ(results[t][i], landed) << "ticket " << t << " op " << i;
      }
    }
    ASSERT_EQ(session.items(),
              (std::vector<std::pair<std::int64_t, std::int64_t>>(
                  oracle.begin(), oracle.end())));

    store::ShardStatsBoard board(1);
    exec.stop();
    exec.fold_into(board);
    const core::OpStats total = board.total();
    EXPECT_EQ(total.exec_coalesced_installs, 1u);
    EXPECT_EQ(total.exec_coalesced_tasks, static_cast<std::uint64_t>(kTickets));
    EXPECT_GE(total.batch_declines, 1u);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

/// The map as run_shard_tasks sees it while a submit races stop(): the
/// executor still attached, its lanes already refusing.
template <class Uc>
struct StoppingMapView {
  using Backend = Uc;
  using Ctx = typename Uc::Ctx;
  Map<Uc>* map;
  store::ShardExecutor<Uc>* exec;
  std::size_t shard_count() const { return map->shard_count(); }
  Uc& shard(std::size_t s) { return map->shard(s); }
  store::ShardExecutor<Uc>* executor() const { return exec; }
};

/// A stopped executor refuses every submit; run_shard_tasks then runs the
/// task through ShardExecutor::run_task on the calling thread and settles
/// its ticket slot. Each task kind is checked against a std::map oracle.
template <class Uc>
void refused_tasks_run_on_caller() {
  using Exec = store::ShardExecutor<Uc>;
  using Req = typename Uc::BatchRequest;
  using K = typename Uc::OpKind;
  MA a;
  {
    auto map = make_map<Uc>(1, a);
    Exec exec(map, shared_alloc_factory<Uc>(a));
    exec.stop();
    StoppingMapView<Uc> view{&map, &exec};
    typename Uc::Ctx ctx(map.shard(0).reclaimer(), a);
    typename Exec::TaskScratch scratch;
    const auto run_refused = [&](const typename Exec::Task& task) {
      EXPECT_FALSE(exec.submit(0, task));
      store::run_shard_tasks(
          view, std::span<typename Uc::Ctx>(&ctx, 1), scratch,
          [](std::size_t) { return true; },
          [&](std::size_t) { return task; });
    };
    std::map<std::int64_t, std::int64_t> oracle;
    const auto apply = [&](const Req& r) {
      return r.kind == K::kInsert ? oracle.emplace(r.key, *r.value).second
                                  : oracle.erase(r.key) == 1;
    };
    const auto contents = [&] {
      typename Map<Uc>::Session session(map, a);
      return session.items();
    };
    const auto want = [&] {
      return std::vector<std::pair<std::int64_t, std::int64_t>>(
          oracle.begin(), oracle.end());
    };

    // A seed task into the empty shard.
    const typename Exec::SeedItems seed = {{2, 20}, {4, 40}, {6, 60}};
    oracle.insert(seed.begin(), seed.end());
    typename Exec::Task seed_task;
    seed_task.seed = &seed;
    run_refused(seed_task);
    ASSERT_EQ(contents(), want());

    // A batch task with a scatter map: op i answers slot scatter[i].
    const Req batch[] = {Req{K::kInsert, 5, 50}, Req{K::kErase, 4, std::nullopt},
                         Req{K::kInsert, 2, 21}, Req{K::kErase, 9, std::nullopt},
                         Req{K::kInsert, 4, 41}};
    const std::size_t batch_scatter[] = {3, 0, 4, 1, 2};
    bool batch_out[5] = {};
    typename Exec::Task batch_task;
    batch_task.reqs = std::span<const Req>(batch);
    batch_task.scatter = batch_scatter;
    batch_task.results = batch_out;
    run_refused(batch_task);
    for (std::size_t i = 0; i < std::size(batch); ++i) {
      EXPECT_EQ(batch_out[batch_scatter[i]], apply(batch[i])) << "op " << i;
    }
    ASSERT_EQ(contents(), want());

    // A read task with a scatter map over a sorted, unique probe list.
    const std::int64_t probe[] = {1, 2, 4, 5, 6, 9};
    const std::size_t probe_scatter[] = {5, 2, 0, 4, 1, 3};
    typename Uc::ReadOutcome read_out[6];
    typename Exec::Task read_task;
    read_task.keys = std::span<const std::int64_t>(probe);
    read_task.scatter = probe_scatter;
    read_task.read_results = read_out;
    run_refused(read_task);
    for (std::size_t i = 0; i < std::size(probe); ++i) {
      const auto it = oracle.find(probe[i]);
      const auto& got = read_out[probe_scatter[i]];
      ASSERT_EQ(got.present(), it != oracle.end()) << "key " << probe[i];
      if (it != oracle.end()) {
        EXPECT_EQ(*got.value, it->second);
      }
    }

    // A sorted_unique task: ingest_sorted where the backend has it (the
    // combining one), execute_batch on the plain Atom.
    const Req bulk[] = {Req{K::kErase, 2, std::nullopt},
                        Req{K::kInsert, 3, 30}, Req{K::kErase, 6, std::nullopt},
                        Req{K::kInsert, 7, 70}};
    bool bulk_out[4] = {};
    typename Exec::Task bulk_task;
    bulk_task.reqs = std::span<const Req>(bulk);
    bulk_task.results = bulk_out;
    bulk_task.sorted_unique = true;
    run_refused(bulk_task);
    for (std::size_t i = 0; i < std::size(bulk); ++i) {
      EXPECT_EQ(bulk_out[i], apply(bulk[i])) << "op " << i;
    }
    ASSERT_EQ(contents(), want());

    // stop() detached from the map, so session batches take the
    // calling-thread path transparently.
    typename Map<Uc>::Session session(map, a);
    const Req req{K::kInsert, 11, 11};
    bool out[1];
    session.execute_batch(std::span<const Req>(&req, 1),
                          std::span<bool>(out, 1));
    EXPECT_TRUE(out[0]);
    EXPECT_TRUE(session.contains(11));
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

template <class Uc>
constexpr bool kHasIngestSorted =
    requires(Uc& uc, typename Uc::Ctx& ctx,
             std::span<const typename Uc::BatchRequest> reqs,
             std::span<bool> out) { uc.ingest_sorted(ctx, reqs, out); };

TEST(Executor, SubmitAfterStopIsRefusedNotFatal) {
  static_assert(kHasIngestSorted<CombUc>);
  refused_tasks_run_on_caller<CombUc>();
  // The plain Atom has no bulk ingest_sorted path, so its sorted_unique
  // task takes execute_batch.
  static_assert(!kHasIngestSorted<PlainUc>);
  refused_tasks_run_on_caller<PlainUc>();
}

template <class UcT>
struct ExecCase {
  using Uc = UcT;
};

template <class C>
class ExecutorTyped : public ::testing::Test {};

using ExecBackends =
    ::testing::Types<ExecCase<PlainUc>, ExecCase<CombUc>>;
TYPED_TEST_SUITE(ExecutorTyped, ExecBackends);

TYPED_TEST(ExecutorTyped, AsyncSessionMatchesSyncOracle) {
  using Uc = typename TypeParam::Uc;
  using Req = typename Uc::BatchRequest;
  using K = typename Uc::OpKind;
  using Outcome = typename Uc::ReadOutcome;
  MA a1, a2;
  {
    auto async_map = make_map<Uc>(4, a1);
    store::ShardExecutor<Uc> exec(async_map, shared_alloc_factory<Uc>(a1));
    typename Map<Uc>::Session async_sess(async_map, a1);
    auto sync_map = make_map<Uc>(4, a2);
    typename Map<Uc>::Session sync_sess(sync_map, a2);

    // Both maps start from the same seed: seed tasks on the lanes vs on
    // this thread.
    std::vector<std::pair<std::int64_t, std::int64_t>> seed;
    for (std::int64_t k = 0; k < 96; k += 3) seed.emplace_back(k, k * 11);
    async_sess.seed_sorted(seed.begin(), seed.end());
    sync_sess.seed_sorted(seed.begin(), seed.end());
    ASSERT_EQ(async_sess.items(), seed);
    ASSERT_EQ(sync_sess.items(), seed);

    util::Xoshiro256 rng(19);
    for (int iter = 0; iter < 30; ++iter) {
      const int n = 1 + static_cast<int>(rng.range(0, 49));
      std::vector<Req> reqs;
      for (int i = 0; i < n; ++i) {
        const std::int64_t k = rng.range(0, 96);  // dense: same-key chains
        if (rng.chance(1, 2)) {
          reqs.push_back(Req{K::kInsert, k, k + 7 * iter});
        } else {
          reqs.push_back(Req{K::kErase, k, std::nullopt});
        }
      }
      bool got[56], want[56];
      async_sess.execute_batch(reqs, std::span<bool>(got, reqs.size()));
      sync_sess.execute_batch(reqs, std::span<bool>(want, reqs.size()));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "iter " << iter << " op " << i;
      }
      // Read tasks on the lanes vs on this thread: unsorted probe keys,
      // some absent, a prefix repeated as duplicates.
      std::vector<std::int64_t> keys;
      for (int i = 0; i < 24; ++i) keys.push_back(rng.range(0, 110));
      for (int i = 0; i < 8; ++i) keys.push_back(keys[i]);
      std::vector<Outcome> rgot(keys.size()), rwant(keys.size());
      async_sess.multi_get(keys, rgot);
      sync_sess.multi_get(keys, rwant);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(rgot[i].value, rwant[i].value)
            << "iter " << iter << " slot " << i << " key " << keys[i];
      }
    }
    ASSERT_EQ(async_sess.items(), sync_sess.items());
  }
  EXPECT_EQ(a1.stats().live_blocks(), 0u);
  EXPECT_EQ(a2.stats().live_blocks(), 0u);
}

TYPED_TEST(ExecutorTyped, ConcurrentClientsThroughOnePipeline) {
  using Uc = typename TypeParam::Uc;
  using Req = typename Uc::BatchRequest;
  using K = typename Uc::OpKind;
  MA a;
  constexpr int kClients = 4;
  constexpr int kKeys = 96;
  {
    auto map = make_map<Uc>(4, a);
    store::ShardExecutor<Uc> exec(map, shared_alloc_factory<Uc>(a));
    std::array<std::atomic<std::int64_t>, kKeys> net{};
    std::vector<std::thread> clients;
    for (int w = 0; w < kClients; ++w) {
      clients.emplace_back([&, w] {
        typename Map<Uc>::Session session(map, a);
        util::Xoshiro256 rng(w * 31 + 5);
        std::vector<Req> reqs;
        bool res[16];
        for (int round = 0; round < 150; ++round) {
          reqs.clear();
          for (int i = 0; i < 16; ++i) {
            const std::int64_t k = rng.range(0, kKeys - 1);
            if (rng.chance(1, 2)) {
              reqs.push_back(Req{K::kInsert, k, k});
            } else {
              reqs.push_back(Req{K::kErase, k, std::nullopt});
            }
          }
          session.execute_batch(reqs, std::span<bool>(res, reqs.size()));
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (!res[i]) continue;
            net[reqs[i].key].fetch_add(
                reqs[i].kind == K::kInsert ? 1 : -1);
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    typename Map<Uc>::Session session(map, a);
    std::size_t present = 0;
    for (int k = 0; k < kKeys; ++k) {
      const std::int64_t n = net[k].load();
      ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
      ASSERT_EQ(session.contains(k), n == 1) << "key " << k;
      present += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(session.size(), present);
  }
  EXPECT_EQ(a.stats().live_blocks(), 0u);
}

}  // namespace
}  // namespace pathcopy
