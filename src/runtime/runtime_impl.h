#pragma once
// Private runtime internals shared by the runtime/ translation units
// (runtime.cpp, app_lifecycle.cpp, ready_state.cpp, dispatch.cpp).
//
// Lock hierarchy (docs/scheduling.md) — acquire strictly downward, never
// hold a lower lock while taking a higher one:
//
//   Owner    round_mutex   ownership of the next scheduling round and of the
//                          ready queue: whoever holds it drains the inbox
//                          and runs the round. Only ever try-locked
//                          (drive_rounds), by the publishers and by the
//                          main loop's tick
//   Level 0  app_mutex     application lifecycle: apps map, instance ids,
//                          accepting/started flags, app_done_cv
//                          predicates. The round owner takes it once per
//                          round for the drained batch's bookkeeping
//                          (successor release, finish, retire)
//   Level 1  health_mutex  per-PE fault-tolerance state inside the policy
//                          engine (quarantine, probe windows, consecutive
//                          faults): the round owner takes it to change PE
//                          health, stats()/pe_health() to read it
//   Leaves   event_mutex   round inbox: completion records and newly ready
//                          tasks
//            stop_mutex    the main loop's tick sleep (shutdown wakes it)
//            plan_mutex    per-descriptor scheduling-plan cache (DagPlan)
//            pool_mutex    recycled AppInstance freelist
//            arena mutex   inside SlabArena (control-block freelists)
//
// Leaves are never held while taking any other lock: plan lookups and
// misses run before the lifecycle lock is taken, instance recycling runs
// after it is released, and the arena lock lives entirely inside
// allocate/deallocate.
//
// The ready queue, the rest of the policy engine (deferred retries, PE
// availability, the reservation table) and the scheduler-blocked bookkeeping
// are owner-private: touched only while holding round_mutex, which orders
// successive owners, so they need no lock of their own — nor do the owner's
// reads of PE health, since only owners write it. Counters crossing threads
// (the queue depths included) are plain atomics.
//
// Hand-off rule: a publisher deposits its work in the inbox (newly ready
// tasks, completion records), then calls drive_rounds(), which sets
// round_pending and try-locks round_mutex. An owner clears round_pending
// before it drains, and re-checks it after unlocking, so work published
// while a round ran is picked up by that owner (or the next) even when its
// publisher lost the try-lock and returned at once. What a round wakes
// (worker mailboxes, app_done_cv waiters) is woken after the unlock
// (Runtime::RoundHandoff).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cedr/common/stopwatch.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sched/engine.h"
#include "cedr/sched/ready_queue.h"

namespace cedr::rt {

inline constexpr std::string_view kLogTag = "runtime";

/// Size-classed recycling allocator for runtime control blocks
/// (docs/runtime_lifecycle.md). Freed blocks go onto a per-size freelist
/// instead of back to the global heap, so steady-state submission traffic
/// (one InFlightTask shared-state block per task) does no heap work after
/// warm-up. Blocks are only returned to the OS when the arena is destroyed,
/// which also keeps every handed-out address stable for the arena's
/// lifetime. Thread-safe; the internal mutex is a leaf lock.
class SlabArena {
 public:
  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;
  ~SlabArena() {
    for (auto& [bytes, blocks] : free_) {
      for (void* block : blocks) ::operator delete(block);
    }
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    {
      std::lock_guard lock(mutex_);
      auto it = free_.find(bytes);
      if (it != free_.end() && !it->second.empty()) {
        void* block = it->second.back();
        it->second.pop_back();
        recycled_.fetch_add(1, std::memory_order_relaxed);
        return block;
      }
    }
    fresh_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
  }

  void deallocate(void* block, std::size_t bytes) {
    std::lock_guard lock(mutex_);
    free_[bytes].push_back(block);
  }

  /// Blocks served from a freelist / from the heap (test visibility).
  [[nodiscard]] std::uint64_t recycled() const noexcept {
    return recycled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fresh() const noexcept {
    return fresh_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<void*>> free_;
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> fresh_{0};
};

/// Minimal std allocator over a SlabArena, for allocate_shared: the
/// combined control-block + object node of every InFlightTask comes from —
/// and returns to — the arena's freelists.
template <typename T>
struct SlabAllocator {
  using value_type = T;

  SlabArena* arena = nullptr;

  SlabAllocator() = default;
  explicit SlabAllocator(SlabArena* a) noexcept : arena(a) {}
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : arena(other.arena) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena->deallocate(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const SlabAllocator<U>& o) const noexcept {
    return arena == o.arena;
  }
};

/// Immutable per-descriptor scheduling precomputation, shared by every
/// instance submitted against the same AppDescriptor and cached by
/// Impl::plan_for. Everything is keyed by graph *storage index*
/// (TaskGraph::index_of), so per-instance state is flat vectors instead of
/// per-submission hash maps. Holding `descriptor` anchors the key pointer:
/// a cached plan's descriptor address can never be recycled into a
/// different graph while the entry lives.
struct DagPlan {
  std::shared_ptr<const task::AppDescriptor> descriptor;
  std::vector<std::uint32_t> heads;        ///< indices with no predecessors
  std::vector<std::uint32_t> pred_counts;  ///< in-degree by index
  std::vector<double> ranks;               ///< HEFT upward ranks by index
  std::vector<std::vector<std::uint32_t>> successors;  ///< index lists
  /// Predecessor index lists — the lookahead frontier builder walks these
  /// to decide whether a successor's uncompleted predecessors are all
  /// inside the window (docs/scheduling.md "Lookahead rounds").
  std::vector<std::vector<std::uint32_t>> preds;
};

/// A task in flight through the runtime (one DAG node or one API call).
/// Retry state is only touched by the round owner while the task is out of
/// the ready queue, so it needs no lock.
struct Runtime::InFlightTask {
  std::uint64_t key = 0;  ///< unique per runtime
  std::uint64_t app_instance_id = 0;
  std::string name;
  platform::KernelId kernel = platform::KernelId::kGeneric;
  std::size_t problem_size = 0;
  std::size_t data_bytes = 0;
  std::array<task::TaskFn, platform::kNumPeClasses> impls{};
  CompletionPtr completion;  ///< API-mode latch; null for DAG tasks
  /// Graph storage index of this node (valid when is_dag): successor
  /// release indexes the instance's flat DagPlan state directly.
  std::uint32_t dag_task_index = 0;
  bool is_dag = false;
  double rank = 0.0;
  double enqueue_time = 0.0;  ///< most recent (re-)enqueue
  double first_enqueue_time = 0.0;  ///< for retry-latency accounting
  /// Execution estimate booked on the PE this attempt was dispatched to.
  double booked_s = 0.0;
  sched::RetryState retry{};
};

/// One application instance being managed by the runtime. Guarded by the
/// app-lifecycle mutex (Impl::app_mutex) unless noted.
struct Runtime::AppInstance {
  std::uint64_t id = 0;
  std::string name;
  bool is_dag = false;
  double arrival_time = 0.0;
  double launch_time = 0.0;
  bool finished = false;

  // DAG mode (docs/runtime_lifecycle.md): the shared per-descriptor plan
  // plus flat per-instance state, all indexed by graph storage index.
  std::shared_ptr<const task::AppDescriptor> dag;
  std::shared_ptr<const DagPlan> plan;
  std::vector<std::uint32_t> remaining_preds;
  /// Per-task implementation arrays (the submission's), moved one by one
  /// into InFlightTasks as nodes become ready.
  std::vector<std::array<task::TaskFn, platform::kNumPeClasses>> impls;
  std::size_t tasks_remaining = 0;

  // API mode, all guarded by app_mutex. The app finishes where main_done
  // and outstanding_kernels == 0 first hold together: at main's return, or
  // at the completion of its last kernel.
  std::thread app_thread;
  bool main_done = false;
  /// The reaper claimed `app_thread` for joining. Gates erasure: the thread
  /// can exit before submit_api move-assigns the handle, so "not joinable"
  /// alone does not mean "safe to destroy".
  bool thread_reaped = false;
  std::int64_t outstanding_kernels = 0;

  /// Clears every field for freelist reuse, keeping vector/string
  /// capacities. The caller guarantees app_thread is not joinable (the
  /// reaper joined it before the instance was erased).
  void reset_for_reuse() {
    id = 0;
    name.clear();
    is_dag = false;
    arrival_time = 0.0;
    launch_time = 0.0;
    finished = false;
    dag.reset();
    plan.reset();
    remaining_preds.clear();
    impls.clear();
    tasks_remaining = 0;
    main_done = false;
    thread_reaped = false;
    outstanding_kernels = 0;
  }
};

/// What an owned round leaves for after the ownership lock is released:
/// the threads it wakes can preempt the waker, and a preempted owner would
/// stall every publisher.
struct Runtime::RoundHandoff {
  /// Dispatch batches by PE index (sized on first use): one mailbox push
  /// and one wakeup per worker per round.
  std::vector<std::vector<std::shared_ptr<InFlightTask>>> batches;
  /// The round's finished and retry-deferred tasks. Usually the last
  /// reference, so clearing it tears them down (impl closures, the arena
  /// free): done by hand_off, outside the round.
  std::vector<std::shared_ptr<InFlightTask>> finished;
  /// An application finished: wake app_done_cv.
  bool app_finished = false;
  /// Completion records the round drained, and its round_mutex hold, for
  /// the sched_batch_per_round / sched_round_hold_us histograms.
  std::size_t records = 0;
  double hold_us = 0.0;
};

/// Emulated accelerator devices owned by one worker.
struct DeviceBundle {
  std::unique_ptr<platform::FftDevice> fft;
  std::unique_ptr<platform::ZipDevice> zip;
  std::unique_ptr<platform::MmultDevice> mmult;

  [[nodiscard]] platform::MmioDevice* for_kernel(
      platform::KernelId kernel) const noexcept {
    switch (kernel) {
      case platform::KernelId::kFft:
      case platform::KernelId::kIfft:
        return fft.get();
      case platform::KernelId::kZip:
        return zip.get();
      case platform::KernelId::kMmult:
        return mmult.get();
      default:
        return nullptr;
    }
  }
};

/// One PE and the worker thread that manages it.
struct Runtime::Worker {
  std::size_t pe_index = 0;
  platform::PeDescriptor pe;
  DeviceBundle devices;
  BlockingQueue<std::shared_ptr<InFlightTask>> mailbox;
  std::thread thread;

  // Busy-time accounting for the utilization sampler and STATS. Written
  // only by the owning worker thread; read elsewhere without locks, hence
  // atomics (plain store/load, single writer).
  std::atomic<double> busy_seconds{0.0};
  std::atomic<double> busy_since{-1.0};  ///< start of current task, or -1
  std::atomic<std::uint64_t> tasks_done{0};

  /// Busy seconds including the currently running task, at runtime time `t`.
  [[nodiscard]] double busy_at(double t) const {
    double busy = busy_seconds.load(std::memory_order_relaxed);
    const double since = busy_since.load(std::memory_order_relaxed);
    if (since >= 0.0 && t > since) busy += t - since;
    return busy;
  }
};

struct Runtime::Impl {
  Impl(obs::QuantileHistogram* inbox_wait_us, const RuntimeConfig& config)
      : policy(config.platform.pes, config.fault_plan.policy,
               &config.platform.costs),
        inbox_wait_us(inbox_wait_us) {}

  // --- Slab arena: declared FIRST so it is destroyed LAST — every
  // InFlightTask control block below (ready queue, deferred, inbox, worker
  // mailboxes, apps) returns to it on destruction. --------------------------
  SlabArena arena;

  /// Allocates an InFlightTask whose shared control block lives in (and
  /// recycles through) the arena.
  [[nodiscard]] std::shared_ptr<InFlightTask> make_task() {
    return std::allocate_shared<InFlightTask>(SlabAllocator<InFlightTask>(&arena));
  }

  // --- Level 0: application lifecycle. -------------------------------------
  mutable std::mutex app_mutex;
  std::condition_variable app_done_cv;  ///< wakes wait_all / wait_app
  bool started = false;                 ///< app_mutex
  bool accepting = false;               ///< app_mutex
  std::unordered_map<std::uint64_t, std::unique_ptr<AppInstance>> apps;
  /// A reaped instance's name, kept for trace export while its spans can
  /// still be in the ring. `stamp` is tracer.recorded() at the reap.
  struct ReapedName {
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t stamp = 0;
  };
  /// Names of reaped instances, oldest first, kept only while tracing so
  /// trace export can still name their pid tracks; empty in perf mode. A
  /// name is dropped once the ring has recorded a full capacity of events
  /// since its stamp: every span of that instance has been overwritten by
  /// then, so the table stays bounded by the ring, not by total submissions.
  /// `apps` itself holds live instances only — a finished app is erased as
  /// soon as it is finished and (API mode) its thread is claimed for
  /// joining, so daemon memory stays bounded by the in-flight population,
  /// not by total submissions since start.
  std::deque<ReapedName> reaped_app_names;
  /// API instances whose application thread returned and awaits a join by
  /// the main loop's reaper (reap_app_threads).
  std::vector<std::uint64_t> exited_app_threads;
  std::uint64_t next_instance_id = 1;  ///< app_mutex
  /// Management time: submissions and completion processing add to it.
  std::atomic<double> runtime_overhead{0.0};

  // --- Round ownership (above Level 0). ------------------------------------
  std::mutex round_mutex;
  /// Work was published that no round has drained yet (hand-off rule in the
  /// header comment). Sequentially consistent on both sides of the lock.
  std::atomic<bool> round_pending{false};

  // --- Level 1: PE health. -------------------------------------------------
  // The workers vector is fixed after start() and busy accounting is
  // atomic. PE health lives in `policy`: changed by the round owner under
  // health_mutex, read elsewhere under it.
  mutable std::mutex health_mutex;
  std::vector<std::unique_ptr<Worker>> workers;
  /// Every policy decision — PE health, bounded retry, round input, cost
  /// view, reservations (docs/scheduling.md "Policy engine").
  sched::PolicyEngine policy;

  // --- Leaf: the round inbox. ----------------------------------------------
  // Publishers deposit here and never touch the ready queue; each owned
  // round swaps both lists out in one lock hold (Runtime::owner_round).
  mutable std::mutex event_mutex;
  /// The `sched_lock_wait_us` histogram: contended event_mutex waits.
  obs::QuantileHistogram* inbox_wait_us = nullptr;

  /// One finished execution attempt, as reported by a worker thread.
  struct CompletionRecord {
    std::shared_ptr<InFlightTask> task;
    Status status;
    std::size_t pe_index = 0;
    double ran_s = 0.0;  ///< execution time on the PE
  };
  std::vector<CompletionRecord> completions;  ///< event_mutex
  /// Stamped tasks (key, enqueue_time, flow begin) from submitters and API
  /// calls, not yet in the ready queue.
  std::vector<std::shared_ptr<InFlightTask>> arrivals;  ///< event_mutex

  /// Locks the inbox, timing the wait when the fast path loses the race.
  [[nodiscard]] std::unique_lock<std::mutex> lock_inbox() const {
    std::unique_lock lock(event_mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      Stopwatch wait;
      lock.lock();
      if (inbox_wait_us != nullptr) inbox_wait_us->record(wait.elapsed_us());
    }
    return lock;
  }

  // --- Leaf: per-descriptor scheduling-plan cache. -------------------------
  // Keyed by descriptor address; each cached plan anchors its descriptor so
  // the key can never alias a recycled allocation. Bounded LRU: front = MRU.
  static constexpr std::size_t kPlanCacheCapacity = 128;
  mutable std::mutex plan_mutex;
  std::list<std::shared_ptr<const DagPlan>> plan_lru;
  std::unordered_map<const task::AppDescriptor*,
                     std::list<std::shared_ptr<const DagPlan>>::iterator>
      plan_index;

  /// Cached plan for `app`, building one (topological validation + HEFT
  /// ranks + index tables) on a miss. Misses compute outside the lock.
  StatusOr<std::shared_ptr<const DagPlan>> plan_for(
      const std::shared_ptr<const task::AppDescriptor>& app,
      const platform::PlatformConfig& platform);

  // --- Leaf: recycled AppInstance freelist. --------------------------------
  // Finished instances are reset and parked here instead of freed, so a
  // steady-state daemon reuses the same handful of blocks (and their vector
  // capacities) for every submission.
  static constexpr std::size_t kInstancePoolCapacity = 1024;
  std::mutex pool_mutex;
  std::vector<std::unique_ptr<AppInstance>> instance_pool;

  /// A pooled (already reset) instance, or a fresh one when the pool is dry.
  [[nodiscard]] std::unique_ptr<AppInstance> acquire_instance() {
    {
      std::lock_guard lock(pool_mutex);
      if (!instance_pool.empty()) {
        auto instance = std::move(instance_pool.back());
        instance_pool.pop_back();
        return instance;
      }
    }
    return std::make_unique<AppInstance>();
  }

  /// Resets and parks finished instances up to the pool bound; overflow is
  /// destroyed when `done` goes out of scope at the caller. Call with no
  /// other lock held (pool_mutex is a leaf).
  void recycle_instances(std::vector<std::unique_ptr<AppInstance>>& done) {
    std::lock_guard lock(pool_mutex);
    for (auto& instance : done) {
      if (instance_pool.size() >= kInstancePoolCapacity) break;
      instance->reset_for_reuse();
      instance_pool.push_back(std::move(instance));
    }
  }

  /// One DAG submission after the lock-free prepare step: the instance plus
  /// its head tasks, ready to be published under one app_mutex hold.
  struct PreparedDag {
    std::unique_ptr<AppInstance> instance;
    std::vector<std::shared_ptr<InFlightTask>> heads;
  };

  /// Validates a submission and builds its instance + head tasks. Takes no
  /// locks besides the plan-cache and arena leaves.
  StatusOr<PreparedDag> prepare_dag(Runtime& rt, DagSubmission submission);

  // --- Owner-private (round_mutex). ----------------------------------------
  /// The ready queue: only the owner pushes, reads and removes; other
  /// threads load its depth counters.
  sched::ReadyQueue ready;
  /// The inbox lists of the round being run, swapped out of the inbox (their
  /// capacity goes back to it at the next swap).
  std::vector<CompletionRecord> drained_completions;
  std::vector<std::shared_ptr<InFlightTask>> drained_arrivals;
  /// Successors a round's completions released, in record order: built
  /// under app_mutex, stamped and queued after it (process_completions).
  std::vector<std::shared_ptr<InFlightTask>> released;
  /// Under fault injection a non-empty ready queue can be legitimately
  /// undispatchable (every capable PE quarantined, a probe already in
  /// flight, all retries backing off). Re-running the heuristic before
  /// anything changed would busy-spin rounds and flood the trace with empty
  /// rounds, so a round that moved nothing blocks rounds until the inbox
  /// brings an arrival or a completion, or until the earliest timer
  /// (backoff release / probe window) that could unblock it.
  bool sched_blocked = false;
  double sched_blocked_until = 0.0;
  /// Set once the first unplaceable round has been logged.
  bool unplaceable_warned = false;
  [[nodiscard]] bool probe_inflight() const {
    for (const auto& worker : workers) {
      if (policy.health(worker->pe_index).probe_inflight) return true;
    }
    return false;
  }
  /// policy.avail_lead(), published by the round owner for stats readers.
  std::atomic<double> avail_lead_s{0.0};

  /// Reservation key of a DAG task: (app instance, dag task index).
  /// Instance ids are sequential from 1, so the shift only aliases after
  /// 2^32 submissions — and an alias merely invalidates or redirects one
  /// reservation, which the normal ready path absorbs.
  [[nodiscard]] static std::uint64_t reservation_key(
      std::uint64_t app_instance_id, std::uint32_t dag_task_index) noexcept {
    return (app_instance_id << 32) | dag_task_index;
  }
  std::unordered_map<std::uint64_t, std::size_t> window_of;  ///< build scratch

  /// Widens the current round's window beyond the ready queue: BFS over
  /// each ready DAG task's cached plan, admitting a successor once every
  /// uncompleted predecessor is inside the window, up to
  /// RuntimeConfig::lookahead_depth generations. Defined in dispatch.cpp.
  void build_lookahead_window(Runtime& rt, double t_now);

  // --- Cross-thread atomics. -----------------------------------------------
  std::atomic<bool> stopping{false};
  /// policy.deferred_count(), published for stats() and the sampler.
  std::atomic<std::size_t> deferred_count{0};
  std::atomic<std::uint64_t> next_task_key{1};
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};

  /// The main loop sleeps one scheduler period per tick on stop_cv;
  /// shutdown() wakes it early.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  std::thread main_thread;
  Stopwatch epoch;

  /// Classes with a bound implementation, or every class for impl-less
  /// timing studies.
  [[nodiscard]] static std::uint32_t impl_class_mask(
      const std::array<task::TaskFn, platform::kNumPeClasses>& impls) noexcept {
    std::uint32_t mask = 0;
    for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
      if (impls[c]) mask |= 1u << c;
    }
    return mask != 0 ? mask : 0xffffffffu;
  }

  /// Builds the scheduler-facing view of a task and appends it to the ready
  /// queue. Round owner only; the caller must have set enqueue_time (and
  /// key) already.
  void push_ready(std::shared_ptr<InFlightTask> task) {
    const sched::ReadyTask view{
        .task_key = task->key,
        .app_instance_id = task->app_instance_id,
        .kernel = task->kernel,
        .problem_size = task->problem_size,
        .data_bytes = task->data_bytes,
        .ready_time = task->enqueue_time,
        .rank = task->rank,
        .class_mask = policy.effective_mask(
            task->kernel, impl_class_mask(task->impls), task->retry),
    };
    ready.push(view, std::move(task));
  }
};

}  // namespace cedr::rt
