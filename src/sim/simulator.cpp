#include "cedr/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>
#include <limits>

// Define CEDR_SIM_DEBUG_QUIESCE to dump scheduler/worker/instance state when
// the virtual clock quiesces with unfinished applications (stall triage).
#ifdef CEDR_SIM_DEBUG_QUIESCE
#include <cstdio>
#endif

#include "cedr/common/stopwatch.h"
#include "cedr/platform/mmio_device.h"
#include "cedr/sched/engine.h"
#include "cedr/sched/frontier.h"
#include "cedr/sched/ready_queue.h"
#include "cedr/sched/scheduler.h"

namespace cedr::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = sched::PolicyEngine::kTimeEps;

/// Reference-core nanoseconds per second of glue work (GENERIC problem
/// size is expressed in ~1 GHz reference nanoseconds).
constexpr double kGenericUnitsPerSecond = 1e9;

/// One schedulable task inside the emulator.
struct SimTask {
  std::uint64_t key = 0;
  std::size_t instance = 0;
  std::size_t segment = 0;
  platform::KernelId kernel = platform::KernelId::kGeneric;
  std::size_t size = 0;
  std::size_t bytes = 0;
  double rank = 0.0;
  double ready_time = 0.0;
  std::uint32_t class_mask = 0xffffffffu;  ///< implementation classes
  double booked_s = 0.0;  ///< estimate booked on the PE it was dispatched to
  sched::RetryState retry{};
};

/// One application instance.
struct Instance {
  const SimApp* model = nullptr;
  double arrival = 0.0;
  double launch = -1.0;
  double completion = -1.0;
  std::size_t segment = 0;
  std::size_t outstanding = 0;
  std::size_t serial_issued = 0;
  /// HEFT upward ranks, shared across every instance of the same SimApp
  /// (the emulator's analogue of the runtime's per-descriptor DagPlan
  /// cache, docs/runtime_lifecycle.md): ranks depend only on the model and
  /// platform, so they are computed once per model, not once per arrival.
  std::shared_ptr<const std::vector<double>> ranks;
  bool terminated = false;

  // API-mode application thread.
  enum class TState { kNotStarted, kGlue, kIssue, kWakeWait, kWake, kBlocked, kFinished };
  TState tstate = TState::kNotStarted;
  double thread_remaining = 0.0;
  double wake_at = 0.0;  ///< absolute resume time while in kWakeWait

  [[nodiscard]] bool thread_runnable() const noexcept {
    return (tstate == TState::kGlue || tstate == TState::kIssue ||
            tstate == TState::kWake) &&
           thread_remaining > 0.0;
  }
};

/// One PE's worker (CPU) or accelerator-management thread.
struct Worker {
  std::size_t pe_index = 0;
  platform::PeClass cls = platform::PeClass::kCpu;
  double speed = 1.0;
  std::deque<SimTask> fifo;
  bool busy = false;
  SimTask current{};
  double remaining = 0.0;
  double started = 0.0;  ///< virtual time the current task began executing
  double busy_work = 0.0;
  bool current_faulted = false;  ///< the in-flight execution will fail
};

/// A main-thread management work item.
struct MgmtEvent {
  enum class Kind { kArrival, kCompletion, kTerminate };
  Kind kind = Kind::kCompletion;
  std::size_t instance = 0;
};

class Engine {
 public:
  Engine(const SimConfig& config, std::span<const Arrival> arrivals)
      : config_(config),
        cores_(static_cast<double>(config.platform.total_app_cores)),
        policy_(config_.platform.pes, config_.faults.policy,
                config_.sched_costs != nullptr ? config_.sched_costs
                                               : &config_.platform.costs) {
    // Application-thread work (glue, call issue, condvar wake) runs on the
    // platform's CPU cores: scale reference-core durations by the
    // platform's GENERIC cost (seconds per reference nanosecond * 1e9).
    cpu_speed_factor_ = config_.platform.costs
                            .get(platform::KernelId::kGeneric,
                                 platform::PeClass::kCpu)
                            .per_point_s * 1e9;
    if (cpu_speed_factor_ <= 0.0) cpu_speed_factor_ = 1.0;
    arrivals_.assign(arrivals.begin(), arrivals.end());
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.time < b.time;
                     });
    for (std::size_t i = 0; i < config_.platform.pes.size(); ++i) {
      Worker w;
      w.pe_index = i;
      w.cls = config_.platform.pes[i].cls;
      w.speed = config_.platform.pes[i].speed_factor;
      workers_.push_back(std::move(w));
    }
  }

  StatusOr<SimMetrics> run() {
    CEDR_RETURN_IF_ERROR(config_.platform.validate());
    CEDR_RETURN_IF_ERROR(config_.faults.validate());
    auto scheduler = sched::make_scheduler(config_.scheduler);
    if (!scheduler.ok()) return scheduler.status();
    scheduler_ = *std::move(scheduler);
    // Lookahead rounds only for schedulers that can place a whole window.
    lookahead_ = dynamic_cast<sched::LookaheadScheduler*>(scheduler_.get());
    sched_span_name_ = "sched " + config_.scheduler;
    if (tr() != nullptr) {
      tr()->instant(obs::Category::kRuntime, "runtime_start", 0, 0, now_);
    }
    if (!config_.faults.empty()) {
      injector_ = std::make_unique<platform::FaultInjector>(
          config_.faults, config_.platform.pes);
    }

    std::size_t stall_iters = 0;
    while (true) {
      maybe_start_main();
      const double t_next = next_event_time();
      if (t_next == kInf) break;
      if (t_next > config_.max_virtual_time_s) {
        return Aborted("virtual clock passed the simulation horizon");
      }
      if (t_next <= now_) {
        if (++stall_iters > 10'000'000) {
#ifdef CEDR_SIM_DEBUG_QUIESCE
          std::fprintf(stderr,
                       "[stall] now=%g ready=%zu deferred=%zu mgmt=%zu "
                       "main_busy=%d dirty=%d next_round=%g\n",
                       now_, ready_.size(), policy_.deferred_count(),
                       mgmt_.size(), main_busy_ ? 1 : 0, queue_dirty_ ? 1 : 0,
                       next_round_allowed_);
          for (const Worker& w : workers_) {
            const sched::PeHealthState& h = policy_.health(w.pe_index);
            std::fprintf(
                stderr,
                "[stall] pe%zu busy=%d rem=%g fifo=%zu q=%d probe_at=%g\n",
                w.pe_index, w.busy ? 1 : 0, w.remaining, w.fifo.size(),
                h.quarantined ? 1 : 0, h.probe_at);
          }
          for (std::size_t i = 0; i < instances_.size(); ++i) {
            const Instance& inst = instances_[i];
            if (inst.terminated) continue;
            std::fprintf(stderr,
                         "[stall] inst%zu seg=%zu outstanding=%zu tstate=%d "
                         "thread_rem=%g\n",
                         i, inst.segment, inst.outstanding,
                         static_cast<int>(inst.tstate), inst.thread_remaining);
          }
#endif
          return Internal("simulation event loop stalled at a frozen clock");
        }
      } else {
        stall_iters = 0;
      }
      advance_to(t_next);
      fire_events();
    }
    if (instances_.empty() ||
        std::any_of(instances_.begin(), instances_.end(),
                    [](const Instance& i) { return !i.terminated; })) {
#ifdef CEDR_SIM_DEBUG_QUIESCE
      std::fprintf(stderr,
                   "[quiesce] now=%g ready=%zu deferred=%zu mgmt=%zu "
                   "main_busy=%d dirty=%d next_round=%g\n",
                   now_, ready_.size(), policy_.deferred_count(),
                   mgmt_.size(), main_busy_ ? 1 : 0, queue_dirty_ ? 1 : 0,
                   next_round_allowed_);
      for (const Worker& w : workers_) {
        const sched::PeHealthState& h = policy_.health(w.pe_index);
        std::fprintf(stderr,
                     "[quiesce] pe%zu busy=%d fifo=%zu q=%d probe_at=%g "
                     "consec=%u\n",
                     w.pe_index, w.busy ? 1 : 0, w.fifo.size(),
                     h.quarantined ? 1 : 0, h.probe_at, h.consecutive_faults);
      }
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        const Instance& inst = instances_[i];
        if (inst.terminated) continue;
        std::fprintf(stderr,
                     "[quiesce] inst%zu seg=%zu outstanding=%zu tstate=%d "
                     "thread_rem=%g launch=%g\n",
                     i, inst.segment, inst.outstanding,
                     static_cast<int>(inst.tstate), inst.thread_remaining,
                     inst.launch);
      }
#endif
      return Internal("simulation quiesced with unfinished applications");
    }
    if (tr() != nullptr) {
      tr()->instant(obs::Category::kRuntime, "runtime_shutdown", 0, 0, now_);
    }
    return collect_metrics();
  }

 private:
  /// Span sink, nullptr when tracing is off. Kept short: it guards every
  /// emission site.
  [[nodiscard]] obs::SpanTracer* tr() const noexcept { return config_.tracer; }

  // ---- time base -----------------------------------------------------

  [[nodiscard]] std::size_t runnable_pool_count() const noexcept {
    std::size_t n = 0;
    for (const Worker& w : workers_) n += w.busy ? 1 : 0;
    for (const Instance& inst : instances_) n += inst.thread_runnable() ? 1 : 0;
    return n;
  }

  /// Runnable threads plus the background-load equivalent of live (spawned,
  /// unfinished) API application threads.
  [[nodiscard]] double effective_load() const noexcept {
    double n = static_cast<double>(runnable_pool_count());
    if (config_.model == ProgrammingModel::kApiBased) {
      std::size_t live = 0;
      for (const Instance& inst : instances_) {
        live += (inst.launch >= 0.0 && !inst.terminated) ? 1 : 0;
      }
      n += config_.costs.thread_noise * static_cast<double>(live);
    }
    return n;
  }

  [[nodiscard]] double pool_rate(double load) const noexcept {
    if (load <= 0.0) return 1.0;
    const double share = std::min(1.0, cores_ / load);
    const double excess = std::max(0.0, load - cores_);
    // Oversubscription wastes real cycles on switching/cache refills.
    return share / (1.0 + config_.costs.oversubscription_penalty * excess);
  }

  [[nodiscard]] double next_event_time() const noexcept {
    double t = kInf;
    if (arrival_idx_ < arrivals_.size()) {
      t = std::min(t, arrivals_[arrival_idx_].time);
    }
    if (main_busy_) t = std::min(t, now_ + main_remaining_);
    if (!main_busy_ && mgmt_.empty() && queue_dirty_ && ready_.size() != 0) {
      t = std::min(t, std::max(now_, next_round_allowed_));
    }
    for (const Instance& inst : instances_) {
      if (inst.tstate == Instance::TState::kWakeWait) {
        t = std::min(t, inst.wake_at);
      }
    }
    // Deferred retries become ready when their backoff elapses; probe
    // windows of quarantined PEs re-open the scheduler for queued work.
    t = std::min(t, std::max(now_, policy_.next_release()));
    // A probe window opening is only an event in that it lets a scheduling
    // round start, so it carries the round's own preconditions: main thread
    // idle, no queued mgmt work, and the round-rate gate. Without those
    // floors this clause keeps returning now_ while the round cannot run
    // and the event loop spins at a frozen virtual time.
    if (!main_busy_ && mgmt_.empty() && ready_.size() != 0) {
      t = std::min(t, std::max(std::max(now_, policy_.next_probe()),
                               next_round_allowed_));
    }
    const std::size_t runnable = runnable_pool_count();
    if (runnable > 0) {
      const double rate = pool_rate(effective_load());
      for (const Worker& w : workers_) {
        if (w.busy) t = std::min(t, now_ + w.remaining / rate);
      }
      for (const Instance& inst : instances_) {
        if (inst.thread_runnable()) {
          t = std::min(t, now_ + inst.thread_remaining / rate);
        }
      }
    }
    return t;
  }

  void advance_to(double t) noexcept {
    const double dt = std::max(0.0, t - now_);
    if (dt > 0.0) {
      if (main_busy_) main_remaining_ -= dt;
      const double rate = pool_rate(effective_load());
      for (Worker& w : workers_) {
        if (w.busy) {
          w.remaining -= rate * dt;
          w.busy_work += rate * dt;
        }
      }
      for (Instance& inst : instances_) {
        if (inst.thread_runnable()) inst.thread_remaining -= rate * dt;
      }
    }
    now_ = t;
  }

  std::shared_ptr<const std::vector<double>> ranks_for(const SimApp* app) {
    auto it = rank_cache_.find(app);
    if (it != rank_cache_.end()) return it->second;
    auto ranks = std::make_shared<const std::vector<double>>(
        app->segment_ranks(config_.platform));
    rank_cache_.emplace(app, ranks);
    return ranks;
  }

  void fire_events() {
    // Arrivals whose time has come.
    while (arrival_idx_ < arrivals_.size() &&
           arrivals_[arrival_idx_].time <= now_ + kEps) {
      const Arrival& a = arrivals_[arrival_idx_++];
      Instance inst;
      inst.model = a.app;
      inst.arrival = now_;
      inst.ranks = ranks_for(a.app);
      instances_.push_back(std::move(inst));
      mgmt_.push_back(MgmtEvent{MgmtEvent::Kind::kArrival,
                                instances_.size() - 1});
      if (tr() != nullptr) {
        tr()->instant(obs::Category::kApp, "app_arrival",
                      1 + (instances_.size() - 1), 0, now_, "tasks",
                      static_cast<double>(a.app->dag_task_count()));
      }
    }
    // Deferred retries whose backoff has elapsed re-enter the ready queue.
    // The re-push recomputes the effective class mask, so the retry's
    // failed-class narrowing takes effect on its next round. As in
    // the runtime, each re-enqueue opens a new flow.
    policy_.release_due(now_, [this](std::shared_ptr<void> payload) {
      auto task = std::static_pointer_cast<SimTask>(std::move(payload));
      task->ready_time = now_;
      if (tr() != nullptr) {
        tr()->flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   platform::kernel_name(task->kernel).data(),
                   1 + task->instance, 0, now_, task->key);
      }
      push_ready(std::move(task));
    });
    // A quarantined PE whose probe window just opened makes queued work
    // schedulable again.
    if (ready_.size() != 0 && policy_.next_probe() <= now_ + kEps) {
      queue_dirty_ = true;
    }
    // Worker completions.
    for (Worker& w : workers_) {
      if (w.busy && w.remaining <= kEps) complete_worker_task(w);
    }
    // Wake-wait timers: the woken thread finally gets a timeslice.
    for (Instance& inst : instances_) {
      if (inst.tstate == Instance::TState::kWakeWait &&
          inst.wake_at <= now_ + kEps) {
        inst.tstate = Instance::TState::kWake;
        inst.thread_remaining =
            std::max(config_.costs.wake_overhead * cpu_speed_factor_, 1e-9);
      }
    }
    // Application-thread step completions.
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Instance& inst = instances_[i];
      if ((inst.tstate == Instance::TState::kGlue ||
           inst.tstate == Instance::TState::kIssue ||
           inst.tstate == Instance::TState::kWake) &&
          inst.thread_remaining <= kEps) {
        app_thread_step_done(i);
      }
    }
    // Main-thread work-item completion.
    if (main_busy_ && main_remaining_ <= kEps) complete_main_item();
  }

  // ---- ready queue & dispatch -----------------------------------------

  [[nodiscard]] std::uint32_t class_mask_for(platform::KernelId kernel,
                                             std::size_t size) const noexcept {
    std::uint32_t mask = 0;
    for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
      const auto cls = static_cast<platform::PeClass>(c);
      if (!platform::pe_class_supports(cls, kernel)) continue;
      // The ZCU102 FFT IP caps at 2048 points (paper §III).
      if (cls == platform::PeClass::kFftAccel &&
          size > platform::kFftIpMaxPoints) {
        continue;
      }
      mask |= 1u << c;
    }
    return mask;
  }

  /// Appends one task to the ready queue — the same component the threaded
  /// runtime dispatches from (docs/scheduling.md) — with the engine's
  /// effective class mask.
  void push_ready(std::shared_ptr<SimTask> task) {
    const sched::ReadyTask view{
        .task_key = task->key,
        .app_instance_id = task->instance,
        .kernel = task->kernel,
        .problem_size = task->size,
        .data_bytes = task->bytes,
        .ready_time = task->ready_time,
        .rank = task->rank,
        .class_mask = policy_.effective_mask(task->kernel, task->class_mask,
                                             task->retry),
    };
    ready_.push(view, std::move(task));
    max_ready_ = std::max(max_ready_, ready_.size());
    queue_dirty_ = true;
  }

  void push_segment_tasks(std::size_t instance_idx, std::size_t segment) {
    Instance& inst = instances_[instance_idx];
    const SimSegment& seg = inst.model->segments[segment];
    const double rank = (*inst.ranks)[segment];
    auto push_one = [&](platform::KernelId kernel, std::size_t size,
                        std::size_t bytes, std::size_t ordinal) {
      const std::uint64_t key = next_key_++;
      SimTask task{
          .key = key,
          .instance = instance_idx,
          .segment = segment,
          .kernel = kernel,
          .size = size,
          .bytes = bytes,
          .rank = rank,
          .ready_time = now_,
          .class_mask = class_mask_for(kernel, size),
      };
      if (tr() != nullptr) {
        tr()->flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   platform::kernel_name(kernel).data(), 1 + instance_idx, 0,
                   now_, key);
      }
      // A fresh reservation from an earlier lookahead round short-circuits
      // the ready queue: the placement was already decided, so the task goes
      // straight to its reserved PE with no further scheduling round.
      const sched::Honoured honoured =
          policy_.honour(reservation_key(instance_idx, segment, ordinal));
      if (honoured.outcome == sched::Honoured::Outcome::kHit) {
        if (tr() != nullptr) {
          tr()->flow(obs::EventKind::kFlowStep, obs::Category::kSched,
                     "dispatch_reserved", 0, 0, now_, key);
        }
        task.booked_s = honoured.estimate_s;
        dispatch_to_worker(honoured.pe_index, std::move(task));
        return;
      }
      push_ready(std::make_shared<SimTask>(std::move(task)));
    };
    if (seg.kind == SimSegment::Kind::kCpuGlue) {
      push_one(platform::KernelId::kGeneric,
               static_cast<std::size_t>(seg.glue_work_s *
                                        kGenericUnitsPerSecond),
               0, 0);
      inst.outstanding = 1;
    } else {
      for (std::size_t i = 0; i < seg.count; ++i) {
        push_one(seg.kernel, seg.problem_size, seg.data_bytes, i);
      }
      inst.outstanding = seg.count;
    }
  }

  void dispatch_to_worker(std::size_t pe_index, SimTask task) {
    Worker& w = workers_[pe_index];
    w.fifo.push_back(std::move(task));
    if (!w.busy) start_next_on_worker(w);
  }

  void start_next_on_worker(Worker& w) {
    if (w.fifo.empty()) return;
    w.current = std::move(w.fifo.front());
    w.fifo.pop_front();
    w.busy = true;
    w.started = now_;
    w.current_faulted = false;
    if (config_.queue_delay_us != nullptr) {
      config_.queue_delay_us->record((now_ - w.current.ready_time) * 1e6);
    }
    if (tr() != nullptr) {
      tr()->flow(obs::EventKind::kFlowEnd, obs::Category::kWorker, "execute",
                 0, 1 + w.pe_index, now_, w.current.key);
    }
    w.remaining = config_.platform.costs.estimate(
                      w.current.kernel, w.cls, w.current.size,
                      w.current.bytes) /
                  w.speed;
    if (!std::isfinite(w.remaining)) {
      // Defensive: the scheduler never assigns unsupported pairs.
      w.remaining = 1e-6;
    }
    if (w.cls != platform::PeClass::kCpu) {
      // Management-thread occupancy: DMA staging + busy-polling keeps the
      // thread runnable for a multiple of the isolated estimate.
      w.remaining *= config_.costs.accel_occupancy;
    }
    if (config_.model == ProgrammingModel::kApiBased) {
      // Each API call ends with a condvar signal to the sleeping
      // application thread, paid by this worker.
      w.remaining += config_.costs.signal_overhead * cpu_speed_factor_;
    }
    if (injector_ != nullptr) {
      // Same deterministic per-PE streams as the threaded runtime: the
      // decision depends only on (seed, PE name, per-PE task ordinal).
      const platform::FaultDecision fault = injector_->next(w.pe_index);
      const platform::FaultPolicy& policy = config_.faults.policy;
      switch (fault.kind) {
        case platform::FaultKind::kNone:
          break;
        case platform::FaultKind::kTransientFail:
          ++faults_injected_;
          w.current_faulted = true;  // full execution, failure at the end
          break;
        case platform::FaultKind::kLatencySpike:
          ++faults_injected_;
          w.remaining += fault.duration_s;
          break;
        case platform::FaultKind::kDeviceHang:
          // The worker busy-polls the wedged device until the watchdog (or
          // the task deadline) fires, then reports failure.
          ++faults_injected_;
          w.current_faulted = true;
          w.remaining = std::min(fault.duration_s, policy.task_timeout_s);
          break;
      }
    }
  }

  void complete_worker_task(Worker& w) {
    SimTask task = w.current;
    const bool faulted = w.current_faulted;
    const double started = w.started;
    w.busy = false;
    w.current_faulted = false;
    ++tasks_executed_;
    policy_.complete(w.pe_index, task.booked_s, now_ - started, now_);
    if (config_.service_time_us != nullptr) {
      config_.service_time_us->record((now_ - started) * 1e6);
    }
    if (tr() != nullptr) {
      const char* kernel = platform::kernel_name(task.kernel).data();
      tr()->complete_span(
          obs::Category::kWorker, kernel, 0, 1 + w.pe_index, started,
          now_ - started, kernel, static_cast<double>(task.size),
          faulted ? obs::kFailedAttemptArg : obs::kAttemptArg,
          static_cast<double>(task.retry.attempt));
    }
    // Successful executions feed the online cost estimator with their
    // measured (virtual) service time.
    if (config_.adapt != nullptr && !faulted) {
      config_.adapt->observe(task.kernel, w.cls, task.size, task.bytes,
                             now_ - started);
    }
    start_next_on_worker(w);
    // Under fault injection a scheduling round can legitimately leave work
    // queued (every capable PE quarantined, or a probe already in flight
    // absorbed the only admitted slot). Any completion changes PE health /
    // availability, so re-arm the scheduler if work is still waiting.
    if (injector_ != nullptr && ready_.size() != 0) queue_dirty_ = true;

    if (faulted) {
      if (tr() != nullptr) {
        tr()->instant(obs::Category::kFault, "fault", 0, 1 + w.pe_index, now_,
                      "attempt", static_cast<double>(task.retry.attempt));
      }
      auto retried = std::make_shared<SimTask>(task);
      const sched::FailureOutcome out =
          policy_.on_failure(w.pe_index, retried->retry, retried, now_);
      if (tr() != nullptr) {
        if (out.health == sched::HealthTransition::kProbeFailed) {
          tr()->instant(obs::Category::kFault, "probe_failed", 0,
                        1 + w.pe_index, now_);
        } else if (out.health == sched::HealthTransition::kQuarantined) {
          tr()->instant(
              obs::Category::kFault, "pe_quarantined", 0, 1 + w.pe_index,
              now_, "consecutive_faults",
              static_cast<double>(
                  policy_.health(w.pe_index).consecutive_faults));
        }
        if (out.retry) {
          tr()->instant(obs::Category::kFault, "retry_backoff", 0,
                        1 + w.pe_index, now_, "attempt",
                        static_cast<double>(retried->retry.attempt),
                        "backoff_s", out.backoff_s);
        } else {
          tr()->instant(obs::Category::kFault, "task_failed", 0,
                        1 + w.pe_index, now_, "attempts",
                        static_cast<double>(retried->retry.attempt + 1));
        }
      }
      // A retry is not terminal: no completion bookkeeping yet. Exhausted
      // retries fall through so the app still finishes.
      if (out.retry) return;
    } else {
      if (policy_.on_success(w.pe_index) ==
              sched::HealthTransition::kReinstated &&
          tr() != nullptr) {
        tr()->instant(obs::Category::kFault, "pe_reinstated", 0,
                      1 + w.pe_index, now_);
      }
      if (task.retry.attempt > 0 && tr() != nullptr) {
        tr()->instant(obs::Category::kFault, "task_recovered", 0,
                      1 + w.pe_index, now_, "attempts",
                      static_cast<double>(task.retry.attempt + 1));
      }
    }

    Instance& inst = instances_[task.instance];
    if (config_.model == ProgrammingModel::kApiBased) {
      // Fig. 4: the worker signals the sleeping application thread
      // directly; the main loop only does bookkeeping afterwards.
      if (inst.outstanding > 0) --inst.outstanding;
      if (inst.outstanding == 0 &&
          inst.tstate == Instance::TState::kBlocked) {
        app_thread_unblock(task.instance);
      }
    }
    // Main-thread completion bookkeeping happens in both models; in DAG
    // mode it also releases successors (handled in complete_main_item).
    mgmt_.push_back(
        MgmtEvent{MgmtEvent::Kind::kCompletion, task.instance});
  }

  // ---- API-mode application threads ------------------------------------

  void app_thread_start_segment(std::size_t instance_idx) {
    Instance& inst = instances_[instance_idx];
    if (inst.segment >= inst.model->segments.size()) {
      inst.tstate = Instance::TState::kFinished;
      mgmt_.push_back(MgmtEvent{MgmtEvent::Kind::kTerminate, instance_idx});
      return;
    }
    const SimSegment& seg = inst.model->segments[inst.segment];
    if (seg.kind == SimSegment::Kind::kCpuGlue) {
      inst.tstate = Instance::TState::kGlue;
      inst.thread_remaining = std::max(seg.glue_work_s * cpu_speed_factor_,
                                       1e-9);
    } else if (seg.parallel) {
      inst.tstate = Instance::TState::kIssue;
      inst.thread_remaining =
          std::max(static_cast<double>(seg.count) *
                       config_.costs.api_call_overhead * cpu_speed_factor_,
                   1e-9);
    } else {
      inst.serial_issued = 0;
      inst.tstate = Instance::TState::kIssue;
      inst.thread_remaining =
          std::max(config_.costs.api_call_overhead * cpu_speed_factor_, 1e-9);
    }
  }

  void app_thread_step_done(std::size_t instance_idx) {
    Instance& inst = instances_[instance_idx];
    if (inst.tstate == Instance::TState::kWake) {
      app_thread_after_wake(instance_idx);
      return;
    }
    const SimSegment& seg = inst.model->segments[inst.segment];
    if (inst.tstate == Instance::TState::kGlue) {
      ++inst.segment;
      app_thread_start_segment(instance_idx);
      return;
    }
    // kIssue: the application thread pushes its call(s) into the ready
    // queue itself (paper §IV-A) and goes to sleep on the condvar.
    inst.thread_remaining = 0.0;
    inst.tstate = Instance::TState::kBlocked;
    if (seg.parallel) {
      push_segment_tasks(instance_idx, inst.segment);
    } else {
      // One call of the serial batch.
      const std::uint64_t key = next_key_++;
      push_ready(std::make_shared<SimTask>(SimTask{
          .key = key,
          .instance = instance_idx,
          .segment = inst.segment,
          .kernel = seg.kernel,
          .size = seg.problem_size,
          .bytes = seg.data_bytes,
          .rank = (*inst.ranks)[inst.segment],
          .ready_time = now_,
          .class_mask = class_mask_for(seg.kernel, seg.problem_size),
      }));
      if (tr() != nullptr) {
        tr()->flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   platform::kernel_name(seg.kernel).data(), 1 + instance_idx,
                   0, now_, key);
      }
      inst.outstanding = 1;
    }
  }

  void app_thread_unblock(std::size_t instance_idx) {
    // Being signalled is not free: on an oversubscribed machine the woken
    // thread first waits for a timeslice, then pays the context-switch /
    // condvar work (charged as pool CPU work).
    Instance& inst = instances_[instance_idx];
    const double wait = config_.costs.wake_latency *
                        std::max(0.0, effective_load() - cores_) / cores_;
    if (wait > 0.0) {
      inst.tstate = Instance::TState::kWakeWait;
      inst.wake_at = now_ + wait;
      inst.thread_remaining = 0.0;
      return;
    }
    inst.tstate = Instance::TState::kWake;
    inst.thread_remaining =
        std::max(config_.costs.wake_overhead * cpu_speed_factor_, 1e-9);
  }

  void app_thread_after_wake(std::size_t instance_idx) {
    Instance& inst = instances_[instance_idx];
    const SimSegment& seg = inst.model->segments[inst.segment];
    if (seg.kind == SimSegment::Kind::kKernelBatch && !seg.parallel &&
        ++inst.serial_issued < seg.count) {
      inst.tstate = Instance::TState::kIssue;
      inst.thread_remaining =
          std::max(config_.costs.api_call_overhead * cpu_speed_factor_, 1e-9);
      return;
    }
    ++inst.segment;
    app_thread_start_segment(instance_idx);
  }

  // ---- main thread -----------------------------------------------------

  [[nodiscard]] double mgmt_duration(const MgmtEvent& event) const {
    const SimCosts& c = config_.costs;
    const Instance& inst = instances_[event.instance];
    switch (event.kind) {
      case MgmtEvent::Kind::kArrival: {
        double d = c.submit_fixed;
        if (config_.model == ProgrammingModel::kDagBased) {
          // "Receiving and parsing application DAG files via IPC to
          // construct application DAG ... pushing tasks to the ready
          // queue" (paper §IV-A).
          d += c.parse_per_task *
               static_cast<double>(inst.model->dag_task_count());
          d += c.push_task * static_cast<double>(
                                 segment_task_count(*inst.model, 0));
        }
        return d;
      }
      case MgmtEvent::Kind::kCompletion: {
        double d = c.pop_task;
        if (config_.model == ProgrammingModel::kDagBased &&
            inst.outstanding == 1 &&
            inst.segment + 1 < inst.model->segments.size()) {
          // This completion releases the next segment: the main thread
          // pushes its tasks.
          d += c.push_task * static_cast<double>(segment_task_count(
                                 *inst.model, inst.segment + 1));
        }
        return d;
      }
      case MgmtEvent::Kind::kTerminate:
        return c.terminate_app;
    }
    return c.pop_task;
  }

  [[nodiscard]] static std::size_t segment_task_count(const SimApp& app,
                                                      std::size_t segment) {
    const SimSegment& seg = app.segments[segment];
    return seg.kind == SimSegment::Kind::kCpuGlue ? 1 : seg.count;
  }

  void maybe_start_main() {
    while (!main_busy_) {
      if (!mgmt_.empty()) {
        current_mgmt_ = mgmt_.front();
        mgmt_.pop_front();
        double duration = mgmt_duration(current_mgmt_);
        if (main_idle_streak_) {
          duration += config_.costs.wakeup;
          main_idle_streak_ = false;
        }
        runtime_overhead_ += duration;
        main_busy_ = true;
        main_item_is_sched_ = false;
        main_remaining_ = duration;
        return;
      }
      if (queue_dirty_ && ready_.size() != 0 &&
          now_ + kEps >= next_round_allowed_) {
        start_sched_round();
        return;
      }
      main_idle_streak_ = true;
      return;
    }
  }

  void start_sched_round() {
    // CEDR "periodically pushes work to these threads" (paper §II-A): a
    // round may begin at most once per event-loop period. For blocking API
    // calls this period is the dominant per-call round-trip latency.
    next_round_allowed_ = now_ + config_.costs.loop_period;
    // The round covers the queue as it stands, in push order, and runs the
    // heuristic now; the decision's virtual cost is charged before the
    // assignments take effect. The per-task effective class mask (failed
    // classes narrowed while still placeable) was computed at push time.
    // Tasks pushed while the round is charged append behind its first
    // round_size_ entries.
    queue_dirty_ = false;
    round_size_ = ready_.size();
    const std::span<const sched::ReadyTask> views = ready_.views();
    const std::span<sched::PeState> pe_states = policy_.round_pes(now_);
    // The heuristics see the live adapted snapshot when there is one, else
    // the engine's base view (an explicit static override or the platform
    // tables); execution durations (start_next_on_worker) always come from
    // the ground-truth platform tables, so a mis-calibrated scheduler view
    // shows up as real makespan.
    const std::shared_ptr<const platform::CostModel> learned =
        config_.adapt != nullptr ? config_.adapt->snapshot() : nullptr;
    const sched::ScheduleContext ctx{.now = now_,
                                     .costs = policy_.cost_view(learned.get())};
    sched::ScheduleResult result;
    if (lookahead_ != nullptr) {
      sched::Frontier& frontier = policy_.open_window(views, ctx);
      if (config_.model == ProgrammingModel::kDagBased &&
          config_.lookahead_depth > 0) {
        build_lookahead_window(frontier);
      }
      Stopwatch decision_clock;
      sched::FrontierResult window = lookahead_->schedule_window(frontier);
      if (config_.sched_decision_us != nullptr) {
        config_.sched_decision_us->record(decision_clock.elapsed_us());
      }
      result.assignments = std::move(window.assignments);
      result.comparisons = window.comparisons;
      policy_.reserve(window.reservations);
    } else {
      Stopwatch decision_clock;
      result = scheduler_->schedule(views, pe_states, ctx);
      if (config_.sched_decision_us != nullptr) {
        config_.sched_decision_us->record(decision_clock.elapsed_us());
      }
    }
    total_comparisons_ += result.comparisons;
    // Booked at decision time: a completion on the same PE before the
    // decided tasks reach it must not re-ground their time away.
    policy_.commit_round(result.assignments);
    pending_assignments_.clear();
    for (const sched::Assignment& a : result.assignments) {
      pending_assignments_.emplace_back(views[a.queue_index].task_key, a);
      if (tr() != nullptr) {
        tr()->flow(obs::EventKind::kFlowStep, obs::Category::kSched,
                   "dispatch", 0, 0, now_, views[a.queue_index].task_key);
      }
    }
    double duration = config_.costs.sched_fixed +
                      config_.costs.per_comparison *
                          static_cast<double>(result.comparisons);
    if (config_.sched_round_us != nullptr) {
      // The modeled decision cost on the virtual clock (the wakeup term
      // below is main-loop overhead, not decision time).
      config_.sched_round_us->record(duration * 1e6);
    }
    if (main_idle_streak_) {
      runtime_overhead_ += config_.costs.wakeup;
      duration += config_.costs.wakeup;
      main_idle_streak_ = false;
    }
    total_sched_time_ += config_.costs.sched_fixed +
                         config_.costs.per_comparison *
                             static_cast<double>(result.comparisons);
    ++sched_rounds_;
    if (tr() != nullptr) {
      tr()->complete_span(obs::Category::kSched, sched_span_name_.c_str(), 0,
                          0, now_, duration, "ready",
                          static_cast<double>(views.size()), "assigned",
                          static_cast<double>(result.assignments.size()));
    }
    main_busy_ = true;
    main_item_is_sched_ = true;
    main_remaining_ = duration;
  }

  /// Reservation identity: DAG-mode segment tasks are pushed in a fixed
  /// order, so (instance, segment, ordinal-within-segment) names the same
  /// task at reservation time and at release time. Instances are bounded by
  /// the arrival list and segments/ordinals by the model, so the packed key
  /// never collides within a run.
  [[nodiscard]] static std::uint64_t reservation_key(
      std::size_t instance, std::size_t segment, std::size_t ordinal) noexcept {
    return (static_cast<std::uint64_t>(instance) << 32) |
           (static_cast<std::uint64_t>(segment & 0xffffu) << 16) |
           static_cast<std::uint64_t>(ordinal & 0xffffu);
  }

  /// Widens the in-flight round's frontier past the ready queue: for
  /// every instance whose *entire* current segment sits in the queue
  /// (nothing executing, nothing deferred on retry backoff), the next
  /// `lookahead_depth` segments join the window as lookahead tasks whose
  /// in-window predecessors are the full prior level — the emulator's
  /// segment-chain analogue of the runtime's DagPlan-driven window.
  void build_lookahead_window(sched::Frontier& frontier) {
    // Group the queue's current-segment tasks per instance, preserving
    // first-seen queue order so the window layout is deterministic.
    std::unordered_map<std::size_t, std::size_t> group_pos;
    std::vector<std::pair<std::size_t, std::vector<std::size_t>>> groups;
    for (std::size_t i = 0; i < round_size_; ++i) {
      const auto* t = static_cast<const SimTask*>(ready_.payload(i).get());
      const Instance& inst = instances_[t->instance];
      if (inst.terminated || t->segment != inst.segment) continue;
      const auto [it, inserted] =
          group_pos.emplace(t->instance, groups.size());
      if (inserted) groups.emplace_back(t->instance, std::vector<std::size_t>{});
      groups[it->second].second.push_back(i);
    }
    std::vector<std::size_t> level;
    for (auto& [instance_idx, prev] : groups) {
      const Instance& inst = instances_[instance_idx];
      // Partial visibility (tasks already executing, or parked on retry
      // backoff) means predicted finishes for the level are unknowable:
      // skip, exactly as the runtime skips successors with out-of-window
      // predecessors.
      if (prev.size() != inst.outstanding) continue;
      for (std::size_t d = 1; d <= config_.lookahead_depth; ++d) {
        const std::size_t seg_idx = inst.segment + d;
        if (seg_idx >= inst.model->segments.size()) break;
        if (frontier.size() >= sched::PolicyEngine::kMaxLookaheadTasks) return;
        // Reserve once: a fresh reservation from an earlier round stands
        // until honored or invalidated — re-placing the same level every
        // round while its predecessors wait in a backlogged queue is pure
        // O(window^2) waste, the cost the lookahead exists to remove.
        // Levels are reserved atomically (ordinal 0 stands in for all),
        // and deeper levels were reserved by the same earlier round.
        if (policy_.reserved(reservation_key(instance_idx, seg_idx, 0))) {
          break;
        }
        const SimSegment& seg = inst.model->segments[seg_idx];
        const bool glue = seg.kind == SimSegment::Kind::kCpuGlue;
        const platform::KernelId kernel =
            glue ? platform::KernelId::kGeneric : seg.kernel;
        const std::size_t size =
            glue ? static_cast<std::size_t>(seg.glue_work_s *
                                            kGenericUnitsPerSecond)
                 : seg.problem_size;
        const std::size_t bytes = glue ? 0 : seg.data_bytes;
        const std::size_t count = glue ? 1 : seg.count;
        level.clear();
        // Segment levels are barriers: every task in this level depends on
        // the whole previous level. Stage that set once — a 128-wide FFT
        // level then costs one predecessor copy and one earliest-start
        // scan, not 128 of each.
        const std::uint32_t pred_set = frontier.stage_preds(prev);
        for (std::size_t ordinal = 0; ordinal < count; ++ordinal) {
          if (frontier.size() >= sched::PolicyEngine::kMaxLookaheadTasks) {
            return;
          }
          const std::size_t idx = policy_.add_lookahead_staged(
              reservation_key(instance_idx, seg_idx, ordinal),
              sched::ReadyTask{
                  .task_key = 0,
                  .app_instance_id = instance_idx,
                  .kernel = kernel,
                  .problem_size = size,
                  .data_bytes = bytes,
                  .ready_time = now_,
                  .rank = (*inst.ranks)[seg_idx],
                  .class_mask = class_mask_for(kernel, size),
              },
              static_cast<std::uint32_t>(d), pred_set);
          level.push_back(idx);
        }
        prev = level;
      }
    }
  }

  void complete_main_item() {
    main_busy_ = false;
    if (main_item_is_sched_) {
      // Dispatch the decided assignments in queue (push) order, gating
      // probes against the *current* worker state; tasks pushed mid-round
      // and assignments a probe absorbed stay queued for the next round.
      std::unordered_map<std::uint64_t, sched::Assignment> assigned;
      assigned.reserve(pending_assignments_.size());
      for (const auto& [key, a] : pending_assignments_) {
        assigned.emplace(key, a);
      }
      std::vector<std::size_t> taken;
      taken.reserve(assigned.size());
      for (std::size_t i = 0; i < round_size_; ++i) {
        const auto it = assigned.find(ready_.views()[i].task_key);
        if (it == assigned.end()) continue;
        const sched::Assignment& a = it->second;
        if (policy_.gate(a.pe_index) == sched::DispatchGate::kHold) {
          policy_.unbook(a.pe_index, a.estimate_s);
          continue;
        }
        taken.push_back(i);
        SimTask& task = *std::static_pointer_cast<SimTask>(ready_.payload(i));
        task.booked_s = a.estimate_s;
        dispatch_to_worker(a.pe_index, std::move(task));
      }
      ready_.remove(taken);
      round_size_ = 0;
      pending_assignments_.clear();
      return;
    }
    const MgmtEvent event = current_mgmt_;
    Instance& inst = instances_[event.instance];
    switch (event.kind) {
      case MgmtEvent::Kind::kArrival: {
        inst.launch = now_;
        if (config_.model == ProgrammingModel::kDagBased) {
          inst.segment = 0;
          push_segment_tasks(event.instance, 0);
        } else {
          inst.segment = 0;
          app_thread_start_segment(event.instance);
        }
        break;
      }
      case MgmtEvent::Kind::kCompletion: {
        if (config_.model == ProgrammingModel::kDagBased) {
          if (inst.outstanding > 0) --inst.outstanding;
          if (inst.outstanding == 0 && !inst.terminated) {
            ++inst.segment;
            if (inst.segment < inst.model->segments.size()) {
              push_segment_tasks(event.instance, inst.segment);
            } else {
              mgmt_.push_back(
                  MgmtEvent{MgmtEvent::Kind::kTerminate, event.instance});
            }
          }
        }
        break;
      }
      case MgmtEvent::Kind::kTerminate: {
        inst.terminated = true;
        inst.completion = now_;
        if (tr() != nullptr) {
          tr()->instant(obs::Category::kApp, "app_complete",
                        1 + event.instance, 0, now_, "exec_time_s",
                        now_ - inst.launch);
        }
        break;
      }
    }
  }

  // ---- metrics ----------------------------------------------------------

  SimMetrics collect_metrics() const {
    SimMetrics m;
    m.apps = instances_.size();
    m.tasks_executed = tasks_executed_;
    m.sched_rounds = sched_rounds_;
    m.max_ready_queue = max_ready_;
    m.total_comparisons = total_comparisons_;
    m.total_sched_time = total_sched_time_;
    double exec_total = 0.0;
    for (const Instance& inst : instances_) {
      exec_total += inst.completion - inst.launch;
      m.makespan = std::max(m.makespan, inst.completion);
    }
    // The daemon's event loop keeps polling for the workload's whole span;
    // those iterations are part of the paper's "receive, manage, terminate"
    // overhead and shrink per-app as arrivals overlap (Fig. 5's shape).
    m.runtime_overhead =
        runtime_overhead_ +
        config_.costs.poll_cost * (m.makespan / config_.costs.loop_period);
    if (m.apps > 0) {
      m.avg_execution_time = exec_total / static_cast<double>(m.apps);
      m.avg_sched_overhead =
          total_sched_time_ / static_cast<double>(m.apps);
      m.runtime_overhead_per_app =
          m.runtime_overhead / static_cast<double>(m.apps);
    }
    m.pe_busy.reserve(workers_.size());
    for (const Worker& w : workers_) m.pe_busy.push_back(w.busy_work);
    const sched::PolicyCounters& c = policy_.counters();
    m.faults_injected = faults_injected_;
    m.tasks_retried = c.tasks_retried;
    m.pes_quarantined = c.pes_quarantined;
    m.pes_reinstated = c.pes_reinstated;
    m.tasks_lost = c.tasks_lost;
    m.reservation_hits = c.reservation_hits;
    m.reservation_stale = c.reservation_stale;
    return m;
  }

  // ---- state -------------------------------------------------------------

  SimConfig config_;
  double cores_;
  double cpu_speed_factor_ = 1.0;
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Non-null iff scheduler_ is a LookaheadScheduler (owned by scheduler_).
  sched::LookaheadScheduler* lookahead_ = nullptr;
  std::unique_ptr<platform::FaultInjector> injector_;
  std::string sched_span_name_;
  /// PE health, bounded retry, round input, cost view and reservations —
  /// the same policy engine the threaded runtime runs, on the virtual clock.
  sched::PolicyEngine policy_;

  std::vector<Arrival> arrivals_;
  std::size_t arrival_idx_ = 0;

  /// Per-model rank cache: segment_ranks() is pure in (model, platform)
  /// and the platform is fixed for the engine's lifetime, so every arrival
  /// of the same SimApp shares one immutable rank vector. Keys stay valid
  /// because arrival models outlive the engine (Arrival holds `const
  /// SimApp*` into caller-owned storage).
  std::unordered_map<const SimApp*, std::shared_ptr<const std::vector<double>>>
      rank_cache_;

  std::vector<Instance> instances_;
  std::vector<Worker> workers_;

  /// The same ready queue the threaded runtime schedules from.
  sched::ReadyQueue ready_;
  /// Queue entries the in-flight scheduling round decided over (its first
  /// entries); the dispatch at complete_main_item consumes them.
  std::size_t round_size_ = 0;
  bool queue_dirty_ = false;
  std::uint64_t next_key_ = 1;

  double next_round_allowed_ = 0.0;
  std::deque<MgmtEvent> mgmt_;
  MgmtEvent current_mgmt_{};
  bool main_busy_ = false;
  bool main_item_is_sched_ = false;
  bool main_idle_streak_ = true;
  double main_remaining_ = 0.0;
  std::vector<std::pair<std::uint64_t, sched::Assignment>> pending_assignments_;

  double now_ = 0.0;
  double runtime_overhead_ = 0.0;
  double total_sched_time_ = 0.0;
  std::size_t sched_rounds_ = 0;
  std::uint64_t total_comparisons_ = 0;
  std::size_t tasks_executed_ = 0;
  std::size_t max_ready_ = 0;
  std::size_t faults_injected_ = 0;
};

}  // namespace

StatusOr<SimMetrics> simulate(const SimConfig& config,
                              std::span<const Arrival> arrivals) {
  if (arrivals.empty()) return InvalidArgument("no arrivals to simulate");
  for (const Arrival& a : arrivals) {
    if (a.app == nullptr) return InvalidArgument("arrival with null app");
    if (a.time < 0.0) return InvalidArgument("negative arrival time");
    if (a.app->segments.empty()) {
      return InvalidArgument("application model has no segments");
    }
  }
  return Engine(config, arrivals).run();
}

}  // namespace cedr::sim
