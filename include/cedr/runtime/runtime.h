#pragma once
// The CEDR daemon runtime: main event loop, ready queue, worker threads.
//
// Reproduces the runtime half of Fig. 1 with real threads:
//   - one worker thread per PE; CPU workers execute kernels inline,
//     accelerator workers drive their emulated MMIO device (program
//     registers -> DMA -> poll -> readback) exactly as the ZCU102 flow does;
//   - scheduling rounds that release DAG successors, run the configured
//     heuristic over the ready queue and dispatch assignments to per-worker
//     mailboxes. The thread that publishes work (a submitter, an API app
//     thread, a worker reporting completions) runs the round itself when no
//     other thread owns it; a main loop keeps the timed tick (retry backoff,
//     probe windows), reaps application threads and handles shutdown;
//   - two application models: DAG-based (a task graph whose nodes the
//     runtime schedules, the pre-CEDR-API model) and API-based (the
//     application's main runs on its own thread and every libCEDR call
//     becomes one scheduled task via enqueue_kernel).
//
// Lifecycle: construct -> start() -> submit_*() -> wait_*() -> shutdown().
// shutdown() is idempotent and also runs from the destructor.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cedr/adapt/online_estimator.h"
#include "cedr/common/queue.h"
#include "cedr/json/json.h"
#include "cedr/common/status.h"
#include "cedr/obs/metrics.h"
#include "cedr/obs/sampler.h"
#include "cedr/obs/segment.h"
#include "cedr/obs/span.h"
#include "cedr/platform/fault.h"
#include "cedr/platform/platform.h"
#include "cedr/runtime/completion.h"
#include "cedr/sched/scheduler.h"
#include "cedr/task/task.h"
#include "cedr/trace/trace.h"

namespace cedr::sched {
class LookaheadScheduler;
}

namespace cedr::rt {

class Runtime;

/// Identifies which runtime / application instance the current thread is
/// executing for. Set by Runtime around API-application main functions; the
/// libCEDR API layer reads it to route enqueue_kernel calls.
struct ThreadBinding {
  Runtime* runtime = nullptr;
  std::uint64_t instance_id = 0;
};

/// The current thread's binding (default: unbound).
ThreadBinding& thread_binding() noexcept;

/// Observability knobs (span tracing + background metrics sampling).
struct ObsConfig {
  /// Gates the span tracer. Off, record() is a single relaxed load.
  bool tracing = true;
  /// Span ring size (events); rounded up to a power of two. The ring keeps
  /// the most recent `ring_capacity` events.
  std::size_t ring_capacity = obs::SpanTracer::kDefaultCapacity;
  /// Period of the background sampler thread that records queue depth and
  /// per-PE busy fraction time series; <= 0 disables the sampler.
  double sampler_period_s = 0.0;
  /// Continuous trace pipeline (docs/observability.md): when non-empty, the
  /// span ring is periodically drained into rotated `.cbt` segment files
  /// under this directory, so traces survive crashes and unbounded runs.
  /// Empty (the default) disables segment flushing.
  std::string trace_dir;
  /// Period of the background flush that drains the ring into the open
  /// segment; also the upper bound on trace data lost to a SIGKILL.
  double trace_flush_interval_s = 1.0;
  /// Size-based segment rotation threshold (span records per segment).
  std::size_t trace_segment_events = 8192;
  /// Age-based segment rotation threshold; <= 0 disables age rotation.
  double trace_segment_age_s = 10.0;
  /// Retention: finalized segments kept on disk (0 = unbounded).
  std::size_t trace_retention = 64;

  [[nodiscard]] json::Value to_json() const;
  static StatusOr<ObsConfig> from_json(const json::Value& value);
};

/// Live snapshot of runtime state, served over IPC as `STATS`.
struct RuntimeStats {
  double uptime_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t inflight = 0;        ///< submitted - completed
  std::size_t ready_tasks = 0;       ///< ready queue depth
  std::size_t deferred_tasks = 0;    ///< retries backing off
  std::uint64_t tasks_executed = 0;  ///< execution attempts, all PEs
  /// Largest lead of a PE's scheduling availability over the clock, as of
  /// the latest round or completion batch (docs/scheduling.md).
  double avail_lead_s = 0.0;
  struct PeBusy {
    std::string name;
    std::uint64_t tasks = 0;       ///< attempts executed on this PE
    double busy_fraction = 0.0;    ///< busy seconds / uptime
    bool quarantined = false;
  };
  std::vector<PeBusy> pes;
};

/// Runtime Configuration (paper Fig. 1): platform + heuristic + features.
struct RuntimeConfig {
  platform::PlatformConfig platform;
  std::string scheduler = "EFT";
  /// Period of the main loop's tick: a scheduling round that releases
  /// retries whose backoff elapsed and reopens probe windows. Published
  /// work never waits for it (the publisher runs the round).
  double scheduler_period_s = 200e-6;
  /// Default timeout for wait_all / wait_app when the caller passes none:
  /// seconds to wait before giving up with Unavailable. 0 waits forever
  /// (the daemon's `--wait-timeout 0`).
  double default_wait_timeout_s = 300.0;
  /// Enables the PAPI-substitute event counters.
  bool enable_counters = true;
  /// Fault-injection scenario plus the fault-tolerance response policy
  /// (retry bound, backoff, quarantine). An empty plan injects nothing but
  /// the policy still governs genuine task failures.
  platform::FaultPlan fault_plan;
  /// Live telemetry (span tracer, metrics sampler).
  ObsConfig obs;
  /// Online cost-model adaptation (see docs/adaptive_costs.md). Off by
  /// default; when enabled the schedulers consume continuously refined
  /// cost tables instead of the static platform presets.
  adapt::AdaptConfig adapt;
  /// Frontier lookahead depth for the lookahead schedulers (HEFT_LA /
  /// EFT_LA): how many DAG generations beyond the ready set one scheduling
  /// round may place as reservations (docs/scheduling.md "Lookahead
  /// rounds"). 0 restricts lookahead rounds to the ready snapshot; ignored
  /// by the classic per-ready-set heuristics.
  std::size_t lookahead_depth = 2;

  /// Serialization to/from the JSON runtime-configuration file the paper's
  /// daemon consumes ("Runtime Configuration" input of Fig. 1).
  [[nodiscard]] json::Value to_json() const;
  static StatusOr<RuntimeConfig> from_json(const json::Value& value);
  static StatusOr<RuntimeConfig> load(const std::string& path);
};

/// Snapshot of one PE's fault-tolerance state (see Runtime::pe_health).
struct PeHealth {
  std::string pe_name;
  platform::PeClass cls = platform::PeClass::kCpu;
  bool quarantined = false;
  std::uint32_t consecutive_faults = 0;  ///< since the last success
  std::uint64_t faults_seen = 0;         ///< lifetime failed executions
  std::uint64_t quarantines = 0;         ///< times this PE was quarantined
};

/// A DAG-application submission (docs/runtime_lifecycle.md): a shareable
/// skeleton descriptor plus this instance's implementation arrays, one per
/// task, indexed by the graph's storage order (TaskGraph::index_of). An
/// all-empty array marks a timing-only task. Many instances share one
/// immutable skeleton (DagTemplate), so per-descriptor precomputation (HEFT
/// ranks, predecessor counts, successor index lists) is cached across
/// submissions.
struct DagSubmission {
  std::shared_ptr<const task::AppDescriptor> descriptor;
  /// Required: exactly one array per task of `descriptor`.
  std::vector<std::array<task::TaskFn, platform::kNumPeClasses>> impls;
};

/// One API-mode kernel invocation to be scheduled.
struct KernelRequest {
  std::string name;
  platform::KernelId kernel = platform::KernelId::kGeneric;
  std::size_t problem_size = 0;
  std::size_t data_bytes = 0;
  /// Implementations per PE class (api/ fills these from libCEDR modules).
  std::array<task::TaskFn, platform::kNumPeClasses> impls{};
};

/// The CEDR daemon process, in-library form.
class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  /// Spawns worker threads and the main event loop. Fails on invalid
  /// configuration (unknown scheduler, bad platform).
  Status start();

  /// Stops accepting work, waits for in-flight apps, joins all threads.
  Status shutdown();

  /// Submits one DAG-based application instance (see DagSubmission).
  /// Rejects a null or empty descriptor and an `impls` whose length is not
  /// the task count (InvalidArgument), and a cyclic graph or a task no PE
  /// can run (FailedPrecondition). Returns the instance id.
  StatusOr<std::uint64_t> submit_dag(DagSubmission submission);

  /// Submits many DAG instances with one lifecycle-lock acquisition and one
  /// ready-queue batch push. Element i of the result corresponds to
  /// submission i; failures are per-element (a bad descriptor does not
  /// reject its batchmates).
  std::vector<StatusOr<std::uint64_t>> submit_dag_batch(
      std::vector<DagSubmission> submissions);

  /// Submits an API-based application: `main_fn` runs on a fresh thread
  /// with this runtime attached, so libCEDR calls inside it are scheduled
  /// here. Returns the instance id.
  StatusOr<std::uint64_t> submit_api(std::string app_name,
                                     std::function<void()> main_fn);

  /// Called by the libCEDR API layer from an application thread: enqueues
  /// one kernel task. `completion` is signalled by the executing worker.
  Status enqueue_kernel(KernelRequest request, CompletionPtr completion);

  /// Blocks until every submitted application has completed. A negative
  /// timeout (the default) uses RuntimeConfig::default_wait_timeout_s;
  /// 0 waits forever; positive values are explicit deadlines in seconds.
  Status wait_all(double timeout_s = -1.0);
  /// Blocks until one application instance completes. Timeout semantics as
  /// in wait_all.
  Status wait_app(std::uint64_t instance_id, double timeout_s = -1.0);

  /// Number of applications submitted / completed so far.
  [[nodiscard]] std::uint64_t submitted_apps() const noexcept;
  [[nodiscard]] std::uint64_t completed_apps() const noexcept;

  /// Seconds since start(); the epoch of all trace timestamps.
  [[nodiscard]] double now() const noexcept;

  /// Named event counters (the PAPI stand-in).
  [[nodiscard]] trace::CounterSet& counters() noexcept { return counters_; }

  /// Live span stream over the runtime hot paths, and the runtime's only
  /// per-task execution record: one worker execute span per attempt (see
  /// docs/observability.md; trace/report.h decodes and summarizes it).
  [[nodiscard]] obs::SpanTracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::SpanTracer& tracer() const noexcept {
    return tracer_;
  }
  /// Gauges, quantile histograms and sampler time series.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Point-in-time runtime state; cheap enough to poll over IPC.
  [[nodiscard]] RuntimeStats stats() const;

  /// Exports the span ring as Chrome trace-event JSON (one pid per app
  /// instance, one tid per PE; Perfetto-loadable).
  Status write_chrome_trace(const std::string& path) const;

  /// Current track table (process/thread names) for trace export: runtime
  /// tracks, workers, every live app instance, and every reaped one whose
  /// spans may still be in the ring (a bounded window, not every instance
  /// since start).
  [[nodiscard]] std::vector<obs::TrackName> trace_tracks() const;

  /// Continuous-trace flusher; nullptr unless ObsConfig::trace_dir is set.
  [[nodiscard]] const obs::TraceFlusher* trace_flusher() const noexcept {
    return flusher_.get();
  }

  /// Current fault-tolerance state of every PE, in platform order.
  [[nodiscard]] std::vector<PeHealth> pe_health() const;

  /// Online cost estimator; nullptr unless RuntimeConfig::adapt.enabled.
  [[nodiscard]] const adapt::OnlineCostEstimator* adapt_estimator()
      const noexcept {
    return adapt_.get();
  }

  /// Wall-clock seconds the runtime spent receiving, managing and
  /// terminating applications, *excluding* heuristic decision time — the
  /// paper's "runtime overhead" metric (§IV-A).
  [[nodiscard]] double runtime_overhead_s() const noexcept;

  [[nodiscard]] const RuntimeConfig& config() const noexcept { return config_; }

 private:
  struct InFlightTask;
  struct AppInstance;
  struct Worker;
  struct RoundHandoff;

  // The implementation is split across focused translation units
  // (docs/scheduling.md):
  //   runtime.cpp       — configuration, lifecycle, observability accessors
  //   app_lifecycle.cpp — submissions, enqueue_kernel, waiting
  //   ready_state.cpp   — round ownership, main loop, completion processing
  //   dispatch.cpp      — scheduling rounds, worker threads
  void main_loop();
  void worker_loop(Worker& worker);
  /// Called after publishing work: flags a round as pending and, unless
  /// another thread owns the round, runs rounds until none is pending.
  /// Never blocks on the ownership lock. A publishing `worker` runs no
  /// round while its own mailbox holds tasks.
  void drive_rounds(const Worker* worker = nullptr);
  /// One owned round: drains the inbox (new tasks into the ready queue,
  /// then completions), then schedules. Caller holds the ownership lock,
  /// and passes `out` to hand_off() once it released it.
  void owner_round(RoundHandoff& out);
  void process_completions(RoundHandoff& out);
  void run_scheduling_round(RoundHandoff& out);
  /// Pushes a round's dispatch batches to the worker mailboxes and wakes
  /// application waiters; called without the ownership lock.
  void hand_off(RoundHandoff& out);
  /// Marks an application finished. Caller holds the app-lifecycle mutex.
  void finish_app_locked(AppInstance& app);
  /// Moves the finished instance `id` out of the lifecycle map into
  /// `retired`, to be recycled once the app-lifecycle mutex (held by the
  /// caller) is released. While tracing, its name is kept for trace export
  /// until the span ring has recorded a full capacity since.
  void retire_app_locked(std::uint64_t id,
                         std::vector<std::unique_ptr<AppInstance>>& retired);
  /// Joins exited application threads and retires their instances once
  /// finished (main loop only).
  void reap_app_threads();
  Status execute_on_pe(InFlightTask& task, Worker& worker);
  /// Bumps a counter iff RuntimeConfig::enable_counters is set.
  void count(const char* name, std::uint64_t delta = 1);
  /// Same, for a counter bumped per task or per round: no lock, no lookup.
  void count(trace::CachedCounter& counter, std::uint64_t delta = 1) {
    if (config_.enable_counters) counter.add(counters_, delta);
  }

  RuntimeConfig config_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// scheduler_ downcast, set once in start(): non-null iff the configured
  /// heuristic places whole lookahead windows (docs/scheduling.md
  /// "Lookahead rounds"). Rounds then widen the snapshot into a
  /// sched::Frontier and lookahead placements become reservations.
  sched::LookaheadScheduler* lookahead_ = nullptr;
  trace::CounterSet counters_;
  /// Counters bumped per task or per scheduling round.
  struct HotCounters {
    trace::CachedCounter kernels_enqueued{"kernels_enqueued"};
    trace::CachedCounter tasks_executed{"tasks_executed"};
    trace::CachedCounter apps_submitted_dag{"apps_submitted_dag"};
    trace::CachedCounter apps_submitted_api{"apps_submitted_api"};
    trace::CachedCounter apps_completed{"apps_completed"};
    trace::CachedCounter sched_rounds{"sched_rounds"};
    trace::CachedCounter sched_comparisons{"sched_comparisons"};
    trace::CachedCounter reservations_made{"sched.reservations_made"};
    trace::CachedCounter reservation_hits{"sched.reservation_hits"};
  };
  HotCounters hot_;
  obs::SpanTracer tracer_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::Sampler> sampler_;
  /// Continuous trace pipeline: periodic ring drain into `.cbt` segments on
  /// its own sampler thread (so a slow disk never delays the metrics tick).
  std::unique_ptr<obs::TraceFlusher> flusher_;
  std::unique_ptr<obs::Sampler> flush_sampler_;
  /// Cached histogram handles so hot paths skip the registry map lookup.
  obs::QuantileHistogram* queue_delay_us_ = nullptr;
  obs::QuantileHistogram* service_time_us_ = nullptr;
  obs::QuantileHistogram* sched_decision_us_ = nullptr;
  /// Instance-lifecycle histograms (docs/runtime_lifecycle.md): wall time of
  /// one DAG-submission prepare+publish, and of one worker completion-batch
  /// flush.
  obs::QuantileHistogram* instantiate_us_ = nullptr;
  obs::QuantileHistogram* complete_publish_us_ = nullptr;
  /// Wall time of one whole lookahead round: frontier build + window
  /// placement + reservation bookkeeping (lookahead schedulers only).
  obs::QuantileHistogram* lookahead_round_us_ = nullptr;
  /// First enqueue to success of each task that needed a retry, and each
  /// application's execution time (completion - launch, the paper's
  /// per-app metric).
  obs::QuantileHistogram* retry_latency_us_ = nullptr;
  obs::QuantileHistogram* app_exec_us_ = nullptr;
  /// Per owned round: its round_mutex hold, and the completion records it
  /// drained (rounds that drained any).
  obs::QuantileHistogram* round_hold_us_ = nullptr;
  obs::QuantileHistogram* batch_per_round_ = nullptr;
  /// Scheduler-round span label ("sched <heuristic>"), built once.
  std::string sched_span_name_;
  /// Non-null when the fault plan injects anything. Per-PE streams are only
  /// touched from the owning worker thread, so no extra locking is needed.
  std::unique_ptr<platform::FaultInjector> fault_injector_;
  /// Non-null when online cost adaptation is enabled. Workers feed it
  /// completions; scheduling rounds read its lock-free snapshots.
  std::unique_ptr<adapt::OnlineCostEstimator> adapt_;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cedr::rt
