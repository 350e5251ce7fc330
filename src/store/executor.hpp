// ShardExecutor: the store layer's shard execution pipeline.
//
// Before this, a ShardedMap client drove its S shards *sequentially* —
// split the batch, then visit shard 0, shard 1, ... from the client
// thread, each install finishing before the next begins. The executor
// turns that into a pipeline: one worker thread per shard, each owning a
// bounded lock-free MPSC ring (src/store/shard_lane.hpp), its own
// reclaimer registration, and its own allocator view. Clients scatter
// per-shard sub-batches into the lanes and receive a join ticket;
// workers run the shards' install paths concurrently and scatter per-op
// results straight back into the client's result span before completing
// the ticket.
//
// The pipeline is lock-free end to end:
//
//   * submit is one fetch_add on the lane gate, one CAS + one release
//     store into the ring, and one fetch_add on the publish counter — no
//     mutex, no syscall unless the worker advertised itself parked;
//   * workers spin briefly (adaptive budget) then park on a C++20
//     atomic wait, so a hot lane never syscalls and an idle one sleeps;
//   * the join ticket is a plain atomic countdown (see BatchTicket).
//
// And it coalesces: on each wakeup the worker drains the ENTIRE lane
// into a local run and concatenates each run of drained batch tickets,
// in drain order, into one span for the backend's execute_batch. The
// combining backend sorts and collapses that span (cross-ticket same-key
// chains included) and installs it with ONE root CAS — a backed-up lane
// does one install for N tickets instead of N; the plain Atom applies it
// op by op. Per-op outcomes are back-filled exactly per ticket: the span
// keeps every key's ops in submission order, and execute_batch answers
// as if its ops ran one by one, so results are identical to executing
// the drained tasks one by one. Client batches and the Rebalancer's
// migration chunks coalesce alike; seed tasks execute in place as
// barriers in the drain order.
//
// Threading/ownership contract:
//   * construct over a ShardedMap (any map exposing shard_count() /
//     shard(s)); the constructor spawns the workers and attaches itself
//     to the map, so run_shard_tasks (below) — the one place shard work
//     picks a lane or the calling thread — sends Session batches, probes
//     and seeds, and Rebalancer migration chunks, through it;
//   * the alloc factory runs once on each worker thread and may return
//     either a fresh per-worker allocator by value (ThreadCache) or a
//     reference to a shared thread-safe one (MallocAlloc). Whatever
//     backs it must outlive the *map* (retired nodes free through the
//     allocator's retire backend long after the worker exits);
//   * submitted spans must stay valid until the task's ticket completes
//     (Session keeps them in per-session scratch and joins before
//     returning);
//   * a full lane blocks submit (backpressure) rather than running the
//     sub-batch synchronously — an earlier task may still sit in the
//     ring, and per-shard FIFO versus queued seeds and migration chunks
//     must hold. The ring cannot stay full: workers only park empty
//     lanes;
//   * stop() detaches from the map, then runs the lane's
//     drain-then-park-poison protocol: set the stop gate, wait out
//     in-flight submitters, push a poison task through the ring (FIFO
//     puts it after every accepted task; the gate lets nothing follow),
//     and join. A submit that loses the race returns false;
//     run_shard_tasks then runs that task on the calling thread (a read
//     task as a probe wave of one, see run_wave) and settles its ticket
//     slot, so nothing is dropped and nothing aborts.
//     *Destruction* is different: like any object, the executor must not
//     be destroyed while another thread may still call into it — the
//     race-tolerant shutdown is stop()-then-quiesce-then-destroy.
//
// Completion of a task happens-before the submitting client's join()
// return (acquire/release on the ticket's atomic countdown), so result
// writes by workers need no further synchronization.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "core/universal.hpp"
#include "store/shard_lane.hpp"
#include "util/assert.hpp"
#include "util/modelcheck.hpp"

namespace pathcopy::store {

/// Join handle for one scattered client batch: arm() it with the number
/// of sub-batches about to be submitted, then join() blocks until every
/// worker completed its share. Reusable sequentially; not shareable
/// between concurrent client calls.
///
/// Wait-free on the worker side: complete_one is one fetch_sub plus (on
/// the last completion) one notify_all. Destroy-after-join carries the
/// same contract as std::latch: the final completer may still be inside
/// notify_all when join() returns, but notify_all touches only the
/// atomic's address (a futex wake, no dereference), which is exactly the
/// guarantee latch implementations rely on.
class BatchTicket {
 public:
  BatchTicket() = default;
  BatchTicket(const BatchTicket&) = delete;
  BatchTicket& operator=(const BatchTicket&) = delete;

  /// Must be called before the first submit referencing this ticket —
  /// workers only ever count down, so arming up front cannot race a
  /// completion past zero.
  void arm(unsigned subbatches) {
    PC_ASSERT(pending_.load(std::memory_order_relaxed) == 0,
              "ticket re-armed while a join is outstanding");
    pending_.store(subbatches, std::memory_order_relaxed);
  }

  /// Worker side: one sub-batch done. The acq_rel countdown makes the
  /// worker's result writes visible to the joiner's acquire load.
  void complete_one() {
    const std::uint32_t left =
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    PC_ASSERT(left > 0, "ticket completed more often than armed");
    if (left == 1) pending_.notify_all();
  }

  /// Client side: blocks until every armed sub-batch completed. Spins
  /// briefly (sub-batches usually finish within a scheduling quantum)
  /// before falling back to the futex wait.
  void join() {
    for (unsigned k = 0; k < kJoinSpins; ++k) {
      if (pending_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
    }
    for (;;) {
      const std::uint32_t p = pending_.load(std::memory_order_acquire);
      if (p == 0) return;
#if defined(PATHCOPY_MODELCHECK)
      // A futex wait would block the OS thread outside the virtual
      // scheduler's control; keep yielding instead.
      PC_YIELD("ticket.join");
      std::this_thread::yield();
#else
      pending_.wait(p, std::memory_order_acquire);
#endif
    }
  }

  bool done() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }

 private:
  static constexpr unsigned kJoinSpins = 64;
  std::atomic<std::uint32_t> pending_{0};
};

template <core::UniversalConstruction Uc>
class ShardExecutor {
 public:
  using Key = typename Uc::Key;
  using Value = typename Uc::Value;
  using BatchRequest = typename Uc::BatchRequest;
  using ReadOutcome = typename Uc::ReadOutcome;
  using Ctx = typename Uc::Ctx;
  using SeedItems = std::vector<std::pair<Key, Value>>;

  /// One unit of shard work. Exactly one of {reqs, seed, read_results} is
  /// meaningful: a batch task runs the backend over `reqs` and writes op
  /// i's result to results[scatter[i]] (or results[i] when scatter is
  /// null); a seed task bulk-loads `*seed` through uc.seed_sorted; a READ
  /// task (read_results != nullptr) resolves the key-sorted probe span
  /// `keys` against one pinned root, writing keys[i]'s answer to
  /// read_results[scatter[i]] (or read_results[i]). All referenced
  /// storage is client-owned and must outlive the ticket.
  ///
  /// Any batch task may coalesce with its lane neighbours, whatever the
  /// order of its reqs: the coalesced span is the tasks' reqs in drain
  /// order, which keeps each key's ops in submission order.
  ///
  /// Read tasks coalesce unconditionally (the worker re-sorts the merged
  /// probe, so per-task ordering is presentation only): every read task
  /// drained by one wakeup is folded into a single mega-probe resolved
  /// against ONE pinned root — see exec_read_merged for why hoisting
  /// later read tickets over drained-but-unexecuted writes stays
  /// linearizable.
  struct Task {
    std::span<const BatchRequest> reqs;
    std::span<const Key> keys;  // read task: probe keys
    const std::size_t* scatter = nullptr;
    bool* results = nullptr;
    ReadOutcome* read_results = nullptr;  // non-null marks a read task
    const SeedItems* seed = nullptr;
    BatchTicket* ticket = nullptr;
    bool poison = false;  // internal: stop() sentinel, never submitted
    bool done = false;    // internal: finished earlier in this drain
    std::chrono::steady_clock::time_point enqueued;  // sampled; see submit
  };

  /// One shard's read task in a calling-thread probe wave (run_wave): its
  /// pin, its sweep stats, and where its answers start in the wave's
  /// outcome buffer.
  struct WaveProbe {
    std::size_t shard;
    Task task;
    std::optional<typename Uc::VersionedView> view;
    persist::ReadProbeStats st;
    std::size_t first = 0;
  };

  /// Reusable buffers for the calling thread's tasks and the worker's
  /// merged runs: a task with a scatter map lands its results here first,
  /// and `wave` gathers the read tasks of one run_wave. One per thread
  /// that runs tasks; only capacity persists between calls.
  struct TaskScratch {
    std::span<bool> flags(std::size_t n) {
      if (flags_cap < n) {
        flags_buf = std::make_unique<bool[]>(n);
        flags_cap = n;
      }
      return {flags_buf.get(), n};
    }
    /// n default (absent) outcomes: a backend's per-key fallback writes
    /// only the present ones.
    std::span<ReadOutcome> reads(std::size_t n) {
      reads_buf.clear();
      reads_buf.resize(n);
      return reads_buf;
    }

    std::unique_ptr<bool[]> flags_buf;
    std::size_t flags_cap = 0;
    std::vector<ReadOutcome> reads_buf;
    std::vector<WaveProbe> wave;
  };

  struct Options {
    /// Per-lane ring capacity (power of two). Deep enough that
    /// backpressure only engages on a genuinely backed-up shard.
    std::size_t lane_capacity = 256;
    /// Spawn workers parked until resume() — tests use this to force a
    /// backlog deterministically and watch one wakeup coalesce it.
    bool start_paused = false;
  };

  /// Every kSampleEvery-th submit per lane stamps a latency sample
  /// (power of two). Public so reports can state the sampling rate next
  /// to the sampled task-us figures.
  static constexpr std::uint32_t kSampleEvery = 64;

  /// Spawns one worker per shard and attaches to the map. `Map` is any
  /// ShardedMap instantiation over this Uc; `AllocFactory` is invoked
  /// once on each worker thread (see the header contract).
  template <class Map, class AllocFactory>
  ShardExecutor(Map& map, AllocFactory factory, Options opts = {})
      : paused_(opts.start_paused) {
    const std::size_t n = map.shard_count();
    PC_ASSERT(n >= 1, "executor over an empty map");
    lanes_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      lanes_.push_back(std::make_unique<LaneBox>(opts.lane_capacity));
    }
    workers_.reserve(n);
    try {
      for (std::size_t s = 0; s < n; ++s) {
        workers_.emplace_back(
            [this, s, &uc = map.shard(s), factory]() mutable {
              run_worker(s, uc, factory);
            });
      }
    } catch (...) {
      // A failed spawn (e.g. std::system_error at the thread limit) must
      // not unwind past joinable threads — that is std::terminate. Poison
      // and join whatever already started, then surface the exception.
      stopped_ = true;
      poison_and_join();
      throw;
    }
    map.attach_executor(*this);
    detach_ = [&map] { map.detach_executor(); };
  }

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  ~ShardExecutor() { stop(); }

  std::size_t shard_count() const noexcept { return lanes_.size(); }

  /// Releases workers spawned with Options::start_paused.
  void resume() {
    if (paused_.exchange(false, std::memory_order_seq_cst)) {
      paused_.notify_all();
    }
  }

  /// Enqueues one task on a shard's lane. FIFO per shard: two tasks
  /// submitted to the same shard (by any threads, in a determinable
  /// order) are applied to that shard's UC in submission order. Blocks
  /// through full-ring backpressure. Returns false — nothing enqueued —
  /// when the lane is already stopping: a client that raced stop() past
  /// the map's detach must run the task itself (run_shard_tasks does
  /// exactly that), so stop() is safe to call while batches are in
  /// flight.
  ///
  /// Latency is sampled, not measured per task: every kSampleEvery-th
  /// submit to a lane stamps `enqueued` and the worker folds only those
  /// into exec_task_ns/exec_task_samples. A steady_clock read per submit
  /// would be the most expensive instruction on this path.
  [[nodiscard]] bool submit(std::size_t shard, Task task) {
    PC_ASSERT(shard < lanes_.size(), "submit to an unknown shard");
    PC_ASSERT(!task.poison, "poison is internal to stop()");
    // The stop/submit race the model checker drives lives between here
    // and the lane's stop gate.
    PC_YIELD("exec.submit");
    LaneBox& box = *lanes_[shard];
    if ((box.sample_tick.fetch_add(1, std::memory_order_relaxed) &
         (kSampleEvery - 1)) == 0) {
      task.enqueued = std::chrono::steady_clock::now();
    }
    return box.lane.push_wait(task);
  }

  /// Runs one batch or seed task on the calling thread, uncoalesced —
  /// the only code that does: a lane worker's lone task, and a client's
  /// task when no executor is attached or a stopping one refused the
  /// submit. A seed task goes through seed_sorted, a batch task through
  /// execute_batch. Read tasks run in probe waves (run_wave) on a
  /// client's thread and in merged sweeps on a worker. Leaves the ticket
  /// alone.
  static void run_task(Uc& uc, Ctx& ctx, const Task& task,
                       TaskScratch& scratch) {
    PC_DASSERT(!is_read(task), "read tasks run as probe waves");
    if (task.seed != nullptr) {
      uc.seed_sorted(ctx, task.seed->begin(), task.seed->end());
      return;
    }
    const std::size_t n = task.reqs.size();
    const std::span<bool> out = task.scatter != nullptr
                                    ? scratch.flags(n)
                                    : std::span<bool>(task.results, n);
    uc.execute_batch(ctx, task.reqs, out);
    if (task.scatter != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        task.results[task.scatter[i]] = out[i];
      }
    }
  }

  /// Runs the read tasks gathered in scratch.wave on the calling thread
  /// as one probe wave, then empties it — the only code that runs a read
  /// task there (every read task of a call with no executor attached, or
  /// one a stopping executor refused). It pins every shard in the wave,
  /// runs each shard's descent-sharing partition with the single-key
  /// tails of all of them parked in one shared tail buffer, flushes that
  /// buffer once (so up to ProbeTails::kCap descents from any shards
  /// overlap their cache misses), then counts each shard's probe on that
  /// shard's ctx, scatters the answers and unpins. Each shard's answers
  /// come from the one root pinned for it. Structures without the park
  /// step sweep each shard in place inside the same loop
  /// (core::detail::sweep_or_park).
  template <class Map>
  static void run_wave(Map& map, std::span<Ctx> ctxs, TaskScratch& scratch) {
    using Structure = typename Uc::Structure;
    std::vector<WaveProbe>& wave = scratch.wave;
    if (wave.empty()) return;
    // Clearing the wave drops its pins: on return, and on a throw.
    struct Unpin {
      std::vector<WaveProbe>* wave;
      ~Unpin() { wave->clear(); }
    } unpin{&wave};
    std::size_t total = 0;
    for (WaveProbe& p : wave) {
      p.first = total;
      total += p.task.keys.size();
    }
    const std::span<ReadOutcome> out = scratch.reads(total);
    for (WaveProbe& p : wave) {
      p.view.emplace(map.shard(p.shard).pin_versioned(ctxs[p.shard]));
    }
    typename core::detail::ProbeTailsOf<Structure>::type tails;
    for (WaveProbe& p : wave) {
      core::detail::sweep_or_park<Structure, Key, Value>(
          p.view->snapshot, p.task.keys,
          out.subspan(p.first, p.task.keys.size()), p.st, tails);
    }
    // The model checker's wave window: every shard is pinned, and the
    // flush must still answer each parked key from its own shard's pin.
    PC_YIELD("store.mget.wave");
    tails.flush();
    for (const WaveProbe& p : wave) {
      core::detail::count_sorted_probe(ctxs[p.shard].stats,
                                       p.task.keys.size(), p.st);
      for (std::size_t i = 0; i < p.task.keys.size(); ++i) {
        p.task.read_results[p.task.scatter != nullptr ? p.task.scatter[i]
                                                      : i] =
            std::move(out[p.first + i]);
      }
    }
  }

  /// A read task: it carries a probe span and an outcome array.
  static bool is_read(const Task& t) { return t.read_results != nullptr; }

  /// Detaches from the map, poisons every lane (drain-then-park-poison:
  /// stop gate, quiesce in-flight submitters, poison through the ring),
  /// joins the workers. Idempotent; called by the destructor. Tasks
  /// already submitted are still fully executed and their tickets
  /// completed — shutdown drains, it does not drop.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    if (detach_) detach_();
    PC_YIELD("exec.stop");
    poison_and_join();
  }

  /// Instantaneous submission-lane depth of one shard — a control-plane
  /// pressure probe (the continuous rebalancer backs off when client
  /// sub-batches are stacking up). Two relaxed loads on the ring
  /// indices; safe from any thread, cheap enough for hot probing.
  std::size_t queue_depth(std::size_t s) const {
    PC_ASSERT(s < lanes_.size(), "queue_depth of an unknown shard");
    return lanes_[s]->lane.approx_size();
  }

  /// A shard worker's counters (install stats + wake/park/coalescing
  /// accounting). Meaningful once stop() returned; workers publish on
  /// exit and join() makes the writes visible.
  const core::OpStats& shard_stats(std::size_t s) const {
    PC_ASSERT(stopped_, "shard_stats before stop()");
    return lanes_[s]->final_stats;
  }

  /// Folds every worker's counters into a ShardStatsBoard-compatible
  /// accumulator (anything with add(shard, OpStats)).
  template <class Board>
  void fold_into(Board& board) const {
    for (std::size_t s = 0; s < lanes_.size(); ++s) {
      board.add(s, shard_stats(s));
    }
  }

 private:
  static constexpr unsigned kSpinMin = 16;
  static constexpr unsigned kSpinMax = 512;

  /// Per-shard lane plus executor-side bookkeeping. Heap-allocated once:
  /// atomics are neither movable nor copyable, and workers hold stable
  /// pointers.
  struct LaneBox {
    explicit LaneBox(std::size_t cap) : lane(cap) {}
    ShardLane<Task> lane;
    std::atomic<std::uint32_t> sample_tick{0};
    core::OpStats final_stats;  // worker writes before exit; read post-join
  };

  static constexpr core::KeyLess<typename Uc::Structure> key_less{};

  void poison_and_join() {
    resume();  // parked-paused workers must run to drain
    Task poison;
    poison.poison = true;
    for (auto& box : lanes_) box->lane.request_stop(poison);
    for (std::thread& w : workers_) w.join();
  }

  /// A task the coalescer may merge: a batch task. Seeds are barriers.
  static bool coalescible(const Task& t) {
    return t.seed == nullptr && !t.poison && t.read_results == nullptr;
  }

  /// A read task not yet absorbed by a merged sweep of this drain.
  static bool unread(const Task& t) { return is_read(t) && !t.done; }

  void wait_unpaused() {
    while (paused_.load(std::memory_order_seq_cst)) {
#if defined(PATHCOPY_MODELCHECK)
      PC_YIELD("exec.pause");
      std::this_thread::yield();
#else
      paused_.wait(true, std::memory_order_seq_cst);
#endif
    }
  }

  /// Adaptive spin-then-park. The epoch read precedes the emptiness
  /// check on purpose: reading the publish counter makes every counted
  /// publish visible, and commit_park's re-read catches every later one
  /// — between them no publish can slip past a parking worker (the
  /// Dekker argument in shard_lane.hpp).
  void idle_wait(ShardLane<Task>& lane, core::OpStats& st,
                 unsigned& spin_budget) {
    for (unsigned k = 0; k < spin_budget; ++k) {
      if (!lane.consumer_empty()) {
        st.exec_spin_wakes += 1;
        spin_budget = std::min(spin_budget * 2, kSpinMax);
        return;
      }
      std::this_thread::yield();  // single-core hosts: let producers run
    }
    const std::uint32_t w = lane.park_epoch();
    if (!lane.consumer_empty()) {
      st.exec_spin_wakes += 1;
      return;
    }
    if (!lane.commit_park(w)) {
      st.exec_spin_wakes += 1;
      return;
    }
    st.exec_parks += 1;
    lane.park_wait(w);
    // A park means the spin budget was wasted watching an idle lane.
    spin_budget = std::max(spin_budget / 2, kSpinMin);
  }

  /// Counts each task in `tasks` that `pick` selects (plus its latency
  /// sample, if it carries one), marks it done and completes its ticket.
  /// The clock is read once for the group, and only when a picked task
  /// carries a sample.
  template <class Pick>
  static void finish_tasks(core::OpStats& st, std::span<Task> tasks,
                           Pick&& pick) {
    using Clock = std::chrono::steady_clock;
    const bool sampled =
        std::any_of(tasks.begin(), tasks.end(), [&](const Task& t) {
          return t.enqueued != Clock::time_point{} && pick(t);
        });
    const Clock::time_point finished = sampled ? Clock::now()
                                               : Clock::time_point{};
    for (Task& t : tasks) {
      if (!pick(t)) continue;
      st.exec_tasks += 1;
      if (t.enqueued != Clock::time_point{}) {
        st.exec_task_samples += 1;
        st.exec_task_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                 t.enqueued)
                .count());
      }
      t.done = true;
      if (t.ticket != nullptr) t.ticket->complete_one();
    }
  }

  /// Coalesces a run of batch tasks: concatenates their request spans
  /// in drain order, hands the span to the backend's execute_batch in one
  /// go, and scatters each op's outcome back through its own task's
  /// scatter map. execute_batch answers as if the ops ran one by one, so
  /// the outcomes equal running the tasks one by one.
  void exec_coalesced(Uc& uc, Ctx& ctx, std::span<Task> tasks,
                      std::vector<BatchRequest>& merged,
                      TaskScratch& scratch) {
    merged.clear();
    for (const Task& task : tasks) {
      merged.insert(merged.end(), task.reqs.begin(), task.reqs.end());
    }
    const std::span<bool> out = scratch.flags(merged.size());
    uc.execute_batch(ctx, std::span<const BatchRequest>(merged), out);
    std::size_t m = 0;
    for (const Task& task : tasks) {
      for (std::size_t i = 0; i < task.reqs.size(); ++i, ++m) {
        task.results[task.scatter != nullptr ? task.scatter[i] : i] = out[m];
      }
    }
    ctx.stats.exec_coalesced_installs += 1;
    ctx.stats.exec_coalesced_tasks += tasks.size();
  }

  /// Cross-ticket READ coalescing: gathers every not-yet-handled read
  /// task in run[first, end), k-way-merges their key-sorted probe spans
  /// into one deduplicated mega-probe, resolves it with ONE uc.multi_get
  /// (one pin, one descent-sharing sweep), scatters each key's answer
  /// back through its own task's scatter map, and finishes all absorbed
  /// tasks. The write-side analogue is exec_coalesced — pin-once
  /// instead of install-once.
  ///
  /// Hoisting reads over drained writes is linearizable: every task in
  /// this drain is still incomplete, so no read's submitter can have
  /// observed any drained write's completion — the sweep's pin (taken at
  /// the FIRST read's dequeue position, after every write ahead of it in
  /// FIFO has executed) is a valid linearization point for all absorbed
  /// reads, and reads have no effect for later drained writes to miss.
  void exec_read_merged(Uc& uc, Ctx& ctx, std::vector<Task>& run,
                        std::size_t first,
                        std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                            morder,
                        std::vector<Key>& mkeys, std::vector<std::size_t>& midx,
                        TaskScratch& scratch) {
    morder.clear();
    std::size_t ntasks = 0;
    for (std::uint32_t t = static_cast<std::uint32_t>(first);
         t < run.size(); ++t) {
      if (!unread(run[t])) continue;
      ++ntasks;
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(run[t].keys.size()); ++i) {
        morder.emplace_back(t, i);
      }
    }
    // Each task's probe span is already key-sorted, so a stable sort of
    // the concatenation IS the k-way merge; cross-ticket duplicates land
    // adjacent and collapse onto one mega-probe slot.
    std::stable_sort(morder.begin(), morder.end(),
                     [&](const auto& a, const auto& b) {
                       return key_less(run[a.first].keys[a.second],
                                       run[b.first].keys[b.second]);
                     });
    mkeys.clear();
    midx.clear();
    midx.reserve(morder.size());
    for (const auto& [t, i] : morder) {
      const Key& k = run[t].keys[i];
      if (mkeys.empty() || key_less(mkeys.back(), k)) mkeys.push_back(k);
      midx.push_back(mkeys.size() - 1);
    }
    const std::span<ReadOutcome> mouts = scratch.reads(mkeys.size());
    // The model checker's read-drain window: pin -> merged sweep ->
    // scatter. An install may land on either side of the pin; the sweep
    // must answer every key from the one root it pinned.
    PC_YIELD("exec.read.sweep");
    uc.multi_get(ctx, std::span<const Key>(mkeys), mouts);
    PC_YIELD("exec.read.scatter");
    for (std::size_t m = 0; m < morder.size(); ++m) {
      const auto [t, i] = morder[m];
      const Task& task = run[t];
      task.read_results[task.scatter != nullptr ? task.scatter[i] : i] =
          mouts[midx[m]];
    }
    ctx.stats.exec_read_sweeps += 1;
    ctx.stats.exec_read_tasks += ntasks;
    finish_tasks(ctx.stats, std::span<Task>(run).subspan(first), unread);
  }

  template <class AllocFactory>
  void run_worker(std::size_t s, Uc& uc, AllocFactory& factory) {
    // decltype(auto): the factory may hand back a per-worker allocator by
    // value (guaranteed elision, so non-movable ThreadCache works) or a
    // reference to a shared thread-safe one.
    decltype(auto) alloc = factory();
    Ctx ctx(uc.reclaimer(), alloc);
    TaskScratch scratch;
    std::vector<Task> run;
    std::vector<BatchRequest> merged;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> morder;
    std::vector<Key> mkeys;
    std::vector<std::size_t> midx;
    LaneBox& box = *lanes_[s];
    ShardLane<Task>& lane = box.lane;
    unsigned spin_budget = kSpinMin;
    wait_unpaused();
    bool poisoned = false;
    while (!poisoned) {
      run.clear();
      lane.drain(run);
      if (run.empty()) {
        idle_wait(lane, ctx.stats, spin_budget);
        continue;
      }
      ctx.stats.exec_wakes += 1;
      std::size_t i = 0;
      while (i < run.size()) {
        if (run[i].poison) {
          // The stop gate admits nothing after the poison.
          PC_DASSERT(i + 1 == run.size(), "task drained after poison");
          poisoned = true;
          break;
        }
        if (run[i].done) {  // absorbed by an earlier merged sweep
          ++i;
          continue;
        }
        if (is_read(run[i])) {
          // First unhandled read of this drain: merge EVERY read ticket
          // in the run (including those queued behind writes) into one
          // sweep against the root current right here.
          exec_read_merged(uc, ctx, run, i, morder, mkeys, midx, scratch);
          ++i;
          continue;
        }
        std::size_t j = i + 1;
        if (coalescible(run[i])) {
          while (j < run.size() && coalescible(run[j])) ++j;
        }
        if (j - i > 1) {
          exec_coalesced(uc, ctx, std::span<Task>(&run[i], j - i), merged,
                         scratch);
        } else {
          run_task(uc, ctx, run[i], scratch);
        }
        finish_tasks(ctx.stats, std::span<Task>(&run[i], j - i),
                     [](const Task&) { return true; });
        i = j;
      }
    }
    box.final_stats = ctx.stats;
  }

  std::vector<std::unique_ptr<LaneBox>> lanes_;
  std::vector<std::thread> workers_;
  std::function<void()> detach_;
  std::atomic<bool> paused_{false};
  bool stopped_ = false;  // main-thread lifecycle flag, not shared
};

/// The one place shard work chooses between a shard's lane and the
/// calling thread. For each shard s with has_work(s), make_task(s) runs
/// on s's lane when `map` has an executor attached (read once), else on
/// this thread with ctxs[s]: a batch or seed task through run_task, and
/// the call's read tasks together as one probe wave (run_wave), whatever
/// the number of shards. A submit that a stopping executor refuses runs
/// here the same way (a read as a wave of one) and settles its ticket
/// slot, so no task is dropped. Returns once every task has completed;
/// the storage the tasks reference must live until then.
template <class Map, class HasWork, class MakeTask>
void run_shard_tasks(
    Map& map, std::span<typename Map::Ctx> ctxs,
    typename ShardExecutor<typename Map::Backend>::TaskScratch& scratch,
    HasWork&& has_work, MakeTask&& make_task) {
  using Exec = ShardExecutor<typename Map::Backend>;
  const std::size_t n = map.shard_count();
  // A read task joins this thread's next wave; any other runs now.
  const auto run_here = [&](std::size_t s, const typename Exec::Task& task) {
    if (!Exec::is_read(task)) {
      Exec::run_task(map.shard(s), ctxs[s], task, scratch);
    } else if (!task.keys.empty()) {
      scratch.wave.push_back({s, task, std::nullopt, {}, 0});
    }
  };
  Exec* const exec = map.executor();
  if (exec == nullptr) {
    scratch.wave.clear();  // non-empty only if a throw cut a gather short
    for (std::size_t s = 0; s < n; ++s) {
      if (has_work(s)) run_here(s, make_task(s));
    }
    Exec::run_wave(map, ctxs, scratch);
    return;
  }
  unsigned pending = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (has_work(s)) ++pending;
  }
  if (pending == 0) return;
  BatchTicket ticket;
  ticket.arm(pending);
  for (std::size_t s = 0; s < n; ++s) {
    if (!has_work(s)) continue;
    typename Exec::Task task = make_task(s);
    task.ticket = &ticket;
    if (!exec->submit(s, task)) {
      run_here(s, task);
      Exec::run_wave(map, ctxs, scratch);
      ticket.complete_one();
    }
  }
  ticket.join();
}

}  // namespace pathcopy::store
