// The measured run shared by every workload: set-up, the closed-loop
// clients with their outcome checks, the window, the final
// store-versus-oracle check, and the counters the per-layer metrics are
// computed from.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "alloc/pool_alloc.hpp"
#include "store/executor.hpp"
#include "store/rebalancer.hpp"
#include "store/shard_stats.hpp"
#include "store/sharded_map.hpp"
#include "store/tablet_router.hpp"
#include "timed.hpp"
#include "workload.hpp"

namespace bench {
namespace {

/// The phase word clients poll.
enum Phase : int { kWarm, kMeasure, kDone };

/// setup_s is the median of this many set-ups; the last store built is
/// the one that runs. The first set-up in a process is the slowest, and
/// the median leaves it out.
constexpr unsigned kSetupReps = 5;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-client results; each client writes only its own.
struct alignas(64) ClientStats {
  std::array<LatencyHistogram, kOpClasses> hist;  // measured window only
  std::uint64_t key_ops_window = 0;
  std::uint64_t key_ops_total = 0;
  std::uint64_t update_ops_total = 0;
  std::uint64_t scans_total = 0;
  std::uint64_t wrong = 0;
  std::uint64_t exceptions = 0;
};

/// One client's closed loop. `Traced` adds the store span around each
/// call, reusing the call's own timestamps.
template <bool Traced, class Map>
void client_loop(typename Map::Session& sess, ClientInputs& in,
                 const KeySpace& ks, unsigned c, const WorkloadSpec& w,
                 const std::atomic<int>& phase, ClientStats& st) {
  using Req = typename Map::BatchRequest;
  using ReadOutcome = typename Map::ReadOutcome;
  using Kind = pathcopy::core::OpKind;
  const std::uint64_t n_slots = ks.slots(c);
  std::size_t si = 0;
  std::size_t oi = 0;
  const auto next_slot = [&]() -> std::uint64_t {
    const std::uint64_t s = in.slots[si];
    si = (si + 1) & (kSlotRing - 1);
    return s;
  };
  std::size_t scan_len = 0;  // of the op next_op() returned last
  const auto next_op = [&]() -> Op {
    const Op o = in.ops[oi];
    scan_len = in.scan_lens[oi];
    oi = oi + 1 == in.ops.size() ? 0 : oi + 1;
    return o;
  };
  const std::int64_t key_end = ks.lo + static_cast<std::int64_t>(ks.n_keys);
  Oracle& oracle = in.oracle;
  std::vector<Req> reqs(kBatchOps, Req{Kind::kInsert, 0, 0});
  std::array<std::uint64_t, kBatchOps> batch_slots{};
  std::array<bool, kBatchOps> batch_out{};
  std::array<std::int64_t, kMgetKeys> mget_keys{};
  std::array<std::uint64_t, kMgetKeys> mget_slots{};
  std::vector<ReadOutcome> mget_out(kMgetKeys);
  std::vector<std::pair<std::int64_t, std::int64_t>> scan_out;
  scan_out.reserve(kMaxScanLen);
  ThreadTrace* tt = nullptr;
  if constexpr (Traced) {
    tt = &thread_trace();
    tt->set_role(Role::kClient);
  }
  std::uint64_t seq = 0;
  for (;;) {
    const int ph = phase.load(std::memory_order_relaxed);
    if (ph == kDone) break;
    // Prepare the call's inputs (untimed).
    const Op op = w.batched ? Op::kInsert : next_op();
    OpClass cls = OpClass::kUpdate;
    SpanName span = SpanName::kStoreInsert;
    std::uint64_t key_ops = 1;
    std::uint64_t slot = 0;
    std::int64_t key = 0;
    if (w.batched) {
      cls = OpClass::kBatch;
      span = SpanName::kStoreExecuteBatch;
      key_ops = kBatchOps;
      for (unsigned i = 0; i < kBatchOps; ++i) {
        batch_slots[i] = next_slot();
        const std::int64_t k = ks.key(c, batch_slots[i]);
        reqs[i] = next_op() == Op::kInsert ? Req{Kind::kInsert, k, value_of(k)}
                                           : Req{Kind::kErase, k, std::nullopt};
      }
    } else if (op == Op::kMultiGet) {
      cls = OpClass::kMget;
      span = SpanName::kStoreMultiGet;
      key_ops = kMgetKeys;
      for (unsigned i = 0; i < kMgetKeys; ++i) {
        mget_slots[i] = next_slot();
        mget_keys[i] = ks.key(c, mget_slots[i]);
        mget_out[i] = ReadOutcome{};
      }
    } else {
      slot = next_slot();
      key = ks.key(c, slot);
      switch (op) {
        case Op::kErase: span = SpanName::kStoreErase; break;
        case Op::kFind:
          cls = OpClass::kGet;
          span = SpanName::kStoreFind;
          break;
        case Op::kScan:
          cls = OpClass::kScan;
          span = SpanName::kStoreScan;
          scan_out.clear();
          break;
        default: break;
      }
    }

    // The call (timed).
    bool result = false;
    std::optional<std::int64_t> found;
    std::size_t scanned = 0;
    if constexpr (Traced) tt->set_request((std::uint64_t{c} << 48) | ++seq);
    const std::int64_t t0 = now_ns();
    if constexpr (Traced) tt->open(span, t0);
    try {
      if (w.batched) {
        sess.execute_batch(std::span<const Req>(reqs),
                           std::span<bool>(batch_out));
      } else {
        switch (op) {
          case Op::kInsert: result = sess.insert(key, value_of(key)); break;
          case Op::kErase: result = sess.erase(key); break;
          case Op::kFind: found = sess.find(key); break;
          case Op::kMultiGet:
            sess.multi_get(std::span<const std::int64_t>(mget_keys),
                           std::span<ReadOutcome>(mget_out));
            break;
          case Op::kScan:
            scanned = sess.scan(key, key_end, scan_len, scan_out);
            break;
        }
      }
    } catch (...) {
      // The op may or may not have landed, so the oracle cannot follow
      // this client any further: count it and stop the client.
      if constexpr (Traced) tt->close(now_ns());
      ++st.exceptions;
      break;
    }
    const std::int64_t t1 = now_ns();
    if constexpr (Traced) tt->close(t1);

    // Check every outcome against the oracle (untimed).
    std::uint64_t wrong = 0;
    if (w.batched) {
      for (unsigned i = 0; i < kBatchOps; ++i) {  // replayed in issue order
        const bool ins = reqs[i].kind == Kind::kInsert;
        const bool had = oracle.has(batch_slots[i]);
        wrong += batch_out[i] != (ins ? !had : had);
        oracle.set(batch_slots[i], ins);
      }
      st.update_ops_total += kBatchOps;
    } else {
      switch (op) {
        case Op::kInsert:
        case Op::kErase: {
          const bool ins = op == Op::kInsert;
          const bool had = oracle.has(slot);
          wrong += result != (ins ? !had : had);
          oracle.set(slot, ins);
          st.update_ops_total += 1;
          break;
        }
        case Op::kFind:
          wrong += found.has_value() != oracle.has(slot) ||
                   (found.has_value() && *found != value_of(key));
          break;
        case Op::kMultiGet:
          for (unsigned i = 0; i < kMgetKeys; ++i) {
            const auto& v = mget_out[i].value;
            wrong += v.has_value() != oracle.has(mget_slots[i]) ||
                     (v.has_value() && *v != value_of(mget_keys[i]));
          }
          break;
        case Op::kScan: {
          bool ok = scanned == scan_out.size() && scanned <= scan_len;
          for (std::size_t i = 0; ok && i < scan_out.size(); ++i) {
            const auto& [k, v] = scan_out[i];
            ok = k >= key && k < key_end && v == value_of(k) &&
                 (i == 0 || scan_out[i - 1].first < k);
          }
          // Owned keys are exact up to the end of the returned span: the
          // rest of the key space if the scan stopped short of its limit.
          const std::int64_t end = ok && scanned == scan_len
                                       ? scan_out.back().first + 1
                                       : key_end;
          std::size_t j = 0;
          for (std::uint64_t s = slot; ok && s < n_slots; ++s) {
            const std::int64_t k = ks.key(c, s);
            if (k >= end) break;
            while (j < scan_out.size() && scan_out[j].first < k) ++j;
            const bool present = j < scan_out.size() && scan_out[j].first == k;
            ok = present == oracle.has(s);
          }
          wrong += !ok;
          st.scans_total += 1;
          break;
        }
      }
    }
    st.wrong += wrong;
    st.key_ops_total += key_ops;
    if (ph == kMeasure) {
      st.hist[static_cast<std::size_t>(cls)].record(
          static_cast<std::uint64_t>(t1 - t0));
      st.key_ops_window += key_ops;
    }
  }
}

template <class Uc>
RunResult run_store(const WorkloadSpec& w, const RunConfig& cfg) {
  using Alloc = typename Uc::AllocType;
  using Router = pathcopy::store::TabletRouter<std::int64_t>;
  using Map = pathcopy::store::ShardedMap<Uc, Router>;
  using Session = typename Map::Session;
  using Exec = pathcopy::store::ShardExecutor<Uc>;
  constexpr bool kTraced = std::is_same_v<Alloc, TimedCache>;

  struct Store {
    Store(const WorkloadSpec& w, const KeySpace& ks)
        : map(w.shards, root_cache,
              w.shards == 1
                  ? Router{}
                  : Router::uniform(
                        ks.lo, ks.lo + static_cast<std::int64_t>(ks.n_keys),
                        w.shards)) {
      if (w.executor) {
        exec.emplace(map, [this] { return Alloc(pool); });
      }
    }
    pathcopy::alloc::PoolBackend pool;
    Alloc root_cache{pool};
    Map map;
    std::optional<Exec> exec;  // declared last: stops before the map dies
  };

  RunResult r;
  r.clients = w.clients;
  r.workers = w.executor ? w.shards : 0;

  // ----- set-up, repeated; the last one is the store that runs -----
  std::unique_ptr<Store> store;
  Inputs in;
  while (r.setup_s.size() < kSetupReps) {
    store.reset();
    in = Inputs{};
    const std::int64_t t0 = now_ns();
    in = make_inputs(w, cfg.seed);
    store = std::make_unique<Store>(w, in.keys);
    {
      Session seeder(store->map, store->root_cache);
      seeder.seed_sorted(in.prefill.begin(), in.prefill.end());
    }
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  r.resident_start = in.prefill.size();
  in.prefill = {};
  Map& map = store->map;

  // ----- the run -----
  std::vector<ClientStats> stats(w.clients);
  pathcopy::store::ShardStatsBoard board(w.shards);
  std::atomic<int> phase{kWarm};
  std::latch start(static_cast<std::ptrdiff_t>(w.clients) + 1);
  std::vector<std::thread> clients;
  clients.reserve(w.clients);
  for (unsigned c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      Alloc cache(store->pool);
      Session sess(map, cache);
      start.arrive_and_wait();
      client_loop<kTraced, Map>(sess, in.clients[c], in.keys, c, w, phase,
                                stats[c]);
      sess.fold_into(board);
    });
  }

  const auto freed = [&] {
    std::uint64_t n = 0;
    for (unsigned s = 0; s < w.shards; ++s) {
      n += map.shard(s).reclaimer().freed_nodes();
    }
    return n;
  };
  const auto pending = [&] {
    std::uint64_t n = 0;
    for (unsigned s = 0; s < w.shards; ++s) {
      n += map.shard(s).reclaimer().pending_nodes();
    }
    return n;
  };
  // Sleeps until `until`, sampling memory in limbo every 100 ms.
  const auto sample_until = [&](std::int64_t until) {
    constexpr std::int64_t kSampleNs = 100'000'000;
    for (std::int64_t t = now_ns(); t < until; t = now_ns()) {
      r.pending_nodes_peak = std::max(r.pending_nodes_peak, pending());
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(kSampleNs, until - t)));
    }
  };

  start.arrive_and_wait();
  if constexpr (kTraced) set_tracing(true);
  const std::int64_t t_warm = now_ns();
  const std::uint64_t trips0 = store->pool.lock_acquisitions();
  const std::uint64_t freed0 = freed();
  sample_until(t_warm + static_cast<std::int64_t>(cfg.warmup * 1e9));

  // The ticker starts with the measured window, so migration stalls land
  // in the measured tails.
  std::atomic<bool> ticker_stop{false};
  std::thread ticker;
  const std::int64_t t_measure = now_ns();
  phase.store(kMeasure, std::memory_order_relaxed);
  if (w.rebalancer) {
    ticker = std::thread([&] {
      Alloc cache(store->pool);
      pathcopy::store::RebalanceConfig rcfg;
      rcfg.budget_keys = std::max<std::uint64_t>(1, r.resident_start / 8);
      pathcopy::store::Rebalancer<Map> reb(map, cache, rcfg);
      while (!ticker_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        reb.tick();
      }
      r.rebalance = reb.stats();
      reb.fold_into(board);
    });
  }
  sample_until(t_measure + static_cast<std::int64_t>(cfg.seconds * 1e9));
  phase.store(kDone, std::memory_order_relaxed);
  const std::int64_t t_done = now_ns();
  r.window_s = static_cast<double>(t_done - t_measure) * 1e-9;
  r.interval_s = static_cast<double>(t_done - t_warm) * 1e-9;
  r.backend_trips = store->pool.lock_acquisitions() - trips0;
  r.freed_nodes = freed() - freed0;
  for (std::thread& t : clients) t.join();
  ticker_stop.store(true, std::memory_order_relaxed);
  if (ticker.joinable()) ticker.join();
  if constexpr (kTraced) set_tracing(false);
  r.peak_rss_mib = peak_rss_mib();

  // ----- the quiesced store must equal the union of the client oracles ---
  {
    Session checker(map, store->root_cache);
    const auto items = checker.items();
    r.resident_end = items.size();
    std::uint64_t matched = 0;
    for (const auto& [k, v] : items) {
      const unsigned c = in.keys.owner(k);
      const bool ok = k >= in.keys.lo &&
                      in.keys.slot(k) < in.keys.slots(c) &&
                      in.clients[c].oracle.has(in.keys.slot(k)) &&
                      v == value_of(k);
      matched += ok;
      r.final_mismatches += !ok;
    }
    std::uint64_t expected = 0;
    for (const ClientInputs& ci : in.clients) expected += ci.oracle.count();
    r.final_mismatches += expected - std::min(expected, matched);
  }

  // Offered-load balance under the final topology: the hottest shard's
  // share of a sample of the client key streams, as a multiple of 1/S.
  {
    std::vector<std::uint64_t> load(w.shards, 0);
    std::uint64_t n = 0;
    for (unsigned c = 0; c < w.clients; ++c) {
      const std::vector<std::uint32_t>& slots = in.clients[c].slots;
      for (std::size_t i = 0; i < std::min<std::size_t>(slots.size(), 16384);
           ++i) {
        ++load[map.shard_of(in.keys.key(c, slots[i]))];
        ++n;
      }
    }
    const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
    r.max_shard_share = n == 0 ? 0.0
                               : static_cast<double>(max_load) * w.shards /
                                     static_cast<double>(n);
  }

  if (store->exec.has_value()) {
    store->exec->stop();
    store->exec->fold_into(board);
  }
  r.ops = board.total();
  for (const ClientStats& st : stats) {
    for (std::size_t i = 0; i < kOpClasses; ++i) r.hist[i].merge(st.hist[i]);
    r.key_ops_window += st.key_ops_window;
    r.key_ops_total += st.key_ops_total;
    r.update_ops_total += st.update_ops_total;
    r.scans_total += st.scans_total;
    r.wrong += st.wrong;
    r.exceptions += st.exceptions;
  }
  if constexpr (kTraced) r.trace = take_report();
  return r;
}

}  // namespace

RunResult run_plain(const WorkloadSpec& w, const RunConfig& cfg) {
  return w.backend == Backend::kAtom ? run_store<AtomUc>(w, cfg)
                                     : run_store<CombUc>(w, cfg);
}

RunResult run_traced(const WorkloadSpec& w, const RunConfig& cfg) {
  return w.backend == Backend::kAtom ? run_store<TracedAtomUc>(w, cfg)
                                     : run_store<TracedCombUc>(w, cfg);
}

}  // namespace bench
