// Scheduling rounds and worker threads: run the configured heuristic over
// the ready queue, dispatch assignments to per-worker mailboxes in batches
// (one wakeup per worker per round), and execute tasks on the emulated PEs.
//
// The round runs on whichever thread owns it (round_mutex, see
// drive_rounds): probe dispatch changes PE health under health_mutex, and
// everything else it touches, the ready queue included, is owner-private
// (runtime_impl.h). Probe admission, availability, the cost view and
// reservations come from the policy engine.

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "cedr/common/log.h"
#include "runtime_impl.h"

namespace cedr::rt {

void Runtime::run_scheduling_round(RoundHandoff& out) {
  // A blocked round stays blocked until the inbox brings an arrival or a
  // completion (owner_round clears the flag) or the earliest unblocking
  // timer (backoff release, probe window) passes; re-running the heuristic
  // before then cannot dispatch anything.
  if (impl_->sched_blocked) {
    if (now() < impl_->sched_blocked_until) return;
    impl_->sched_blocked = false;
  }
  // Release deferred retries whose backoff has elapsed. The re-push
  // recomputes the effective class mask, so the retry's failed-class
  // narrowing takes effect in this round. Each re-enqueue opens a new
  // flow, so the stream gives every attempt its own enqueue.
  sched::PolicyEngine& policy = impl_->policy;
  if (policy.deferred_count() != 0) {
    const double release_now = now();
    policy.release_due(release_now, [&](std::shared_ptr<void> task) {
      auto inflight = std::static_pointer_cast<InFlightTask>(std::move(task));
      inflight->enqueue_time = release_now;
      tracer_.flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   inflight->name.c_str(), 1 + inflight->app_instance_id, 0,
                   release_now, inflight->key);
      impl_->push_ready(std::move(inflight));
    });
    impl_->deferred_count.store(policy.deferred_count(),
                                std::memory_order_relaxed);
  }
  // Nothing enters the queue while the round runs: arrivals wait in the
  // inbox for the next owner, so the heuristics read the views in place.
  const std::span<const sched::ReadyTask> ready = impl_->ready.views();
  if (ready.empty()) return;

  const double t_now = now();
  const std::span<sched::PeState> pe_states = policy.round_pes(t_now);
  // With adaptation on, the round schedules against the latest published
  // cost snapshot — one lock-free shared_ptr load, held for the whole round
  // so every finish_time_on comparison sees one consistent table.
  const std::shared_ptr<const platform::CostModel> learned =
      adapt_ != nullptr ? adapt_->snapshot() : nullptr;
  const sched::ScheduleContext ctx{.now = t_now,
                                   .costs = policy.cost_view(learned.get())};
  sched::ScheduleResult result;
  double decision_time = 0.0;
  if (lookahead_ != nullptr) {
    // Frontier round (docs/scheduling.md "Lookahead rounds"): widen the
    // ready queue into the visible DAG window, place it in one pass,
    // dispatch the ready prefix now and remember the rest as reservations.
    Stopwatch round_watch;
    sched::Frontier& frontier = policy.open_window(ready, ctx);
    if (config_.lookahead_depth > 0) {
      impl_->build_lookahead_window(*this, t_now);
    }
    Stopwatch decision;
    sched::FrontierResult window = lookahead_->schedule_window(frontier);
    decision_time = decision.elapsed();
    result.assignments = std::move(window.assignments);
    result.comparisons = window.comparisons;
    policy.reserve(window.reservations);
    count(hot_.reservations_made, window.reservations.size());
    metrics_.set_gauge("sched.frontier_size",
                       static_cast<double>(frontier.size()));
    lookahead_round_us_->record(round_watch.elapsed_us());
  } else {
    Stopwatch decision;
    result = scheduler_->schedule(ready, pe_states, ctx);
    decision_time = decision.elapsed();
  }
  policy.commit_round(result.assignments);
  impl_->avail_lead_s.store(policy.avail_lead(t_now),
                            std::memory_order_relaxed);
  sched_decision_us_->record(decision_time * 1e6);
  tracer_.complete_span(obs::Category::kSched, sched_span_name_.c_str(), 0, 0,
                        t_now, decision_time, "ready",
                        static_cast<double>(ready.size()), "assigned",
                        static_cast<double>(result.assignments.size()));
  count(hot_.sched_rounds);
  count(hot_.sched_comparisons, result.comparisons);

  // Group assigned tasks into one batch per worker; keep the rest queued.
  // A quarantined PE whose probe window admitted it takes exactly one task
  // (the probe); further assignments to it stay queued for the next round.
  // The batches are pushed by hand_off() once the round is released: one
  // mailbox lock and one wakeup per worker per round.
  if (out.batches.empty()) out.batches.resize(impl_->workers.size());
  std::vector<std::size_t> taken;
  taken.reserve(result.assignments.size());
  {
    std::lock_guard health(impl_->health_mutex);
    for (const sched::Assignment& a : result.assignments) {
      const sched::DispatchGate gate = policy.gate(a.pe_index);
      if (gate == sched::DispatchGate::kHold) {  // one probe at a time
        policy.unbook(a.pe_index, a.estimate_s);
        continue;
      }
      if (gate == sched::DispatchGate::kProbe) count("probes_dispatched");
      auto task = std::static_pointer_cast<InFlightTask>(
          impl_->ready.payload(a.queue_index));
      task->booked_s = a.estimate_s;
      out.batches[a.pe_index].push_back(std::move(task));
      taken.push_back(a.queue_index);
    }
  }
  for (const std::size_t i : taken) {
    tracer_.flow(obs::EventKind::kFlowStep, obs::Category::kSched, "dispatch",
                 0, 0, now(),
                 static_cast<const InFlightTask*>(impl_->ready.payload(i).get())
                     ->key);
  }
  // Removed before hand_off() pushes the batches, so a task is never
  // simultaneously queued and executing.
  impl_->ready.remove(taken);
  if (taken.empty()) {
    // Nothing moved: block further rounds until the inbox brings an arrival
    // or a completion, or the earliest timer that could free a PE / release
    // a retry fires.
    impl_->sched_blocked = true;
    impl_->sched_blocked_until =
        std::min(policy.next_release(), policy.next_probe());
    if (result.assignments.empty() &&
        impl_->sched_blocked_until == std::numeric_limits<double>::infinity() &&
        !impl_->probe_inflight()) {
      // The heuristic placed none of the ready tasks, no timer will retry
      // them and no probe completion will unblock them: the queue stalls
      // until some unrelated event happens to arrive.
      count("sched.unplaceable_rounds");
      if (!impl_->unplaceable_warned) {
        impl_->unplaceable_warned = true;
        const sched::ReadyTask& head = ready.front();
        CEDR_LOG(kWarn, kLogTag)
            << "scheduling round placed none of " << ready.size()
            << " ready tasks with no retry or probe pending (first: "
            << platform::kernel_name(head.kernel) << ", size "
            << head.problem_size
            << "); further rounds count in sched.unplaceable_rounds";
      }
    }
  }
}

void Runtime::Impl::build_lookahead_window(Runtime& rt, double t_now) {
  // Level-by-level BFS from the ready DAG tasks over each app's cached
  // DagPlan. A successor joins the window only when *every* uncompleted
  // predecessor is already inside it (in-window predecessor count ==
  // remaining_preds) — a predecessor that is executing, deferred on a retry
  // backoff, or beyond the depth bound keeps it out, so a reservation is
  // never made for a task whose readiness this window cannot predict.
  //
  // Runs under app_mutex (level 0, taken alone): it reads per-instance
  // remaining_preds/impls and the shared plans. The window is bounded by
  // lookahead_depth and kMaxLookaheadTasks, so the hold is short.
  window_of.clear();
  struct LevelItem {
    AppInstance* app;
    std::uint32_t dag_index;
  };
  std::vector<LevelItem> level;
  std::vector<LevelItem> next;
  std::vector<std::size_t> pred_window;
  std::lock_guard lock(app_mutex);
  for (std::size_t i = 0; i < ready.views().size(); ++i) {
    const auto* task = static_cast<const InFlightTask*>(ready.payload(i).get());
    if (!task->is_dag) continue;
    const auto it = apps.find(task->app_instance_id);
    if (it == apps.end()) continue;
    window_of[reservation_key(task->app_instance_id, task->dag_task_index)] = i;
    level.push_back({it->second.get(), task->dag_task_index});
  }
  for (std::uint32_t depth = 1;
       depth <= rt.config_.lookahead_depth && !level.empty(); ++depth) {
    next.clear();
    for (const LevelItem& item : level) {
      const DagPlan& plan = *item.app->plan;
      for (const std::uint32_t succ : plan.successors[item.dag_index]) {
        const std::uint64_t key = reservation_key(item.app->id, succ);
        if (window_of.find(key) != window_of.end()) continue;
        // Reserve once: a fresh reservation from an earlier round stands
        // until honored or invalidated. Re-placing the same successor every
        // round while its predecessors wait in a backlogged queue would
        // make lookahead rounds quadratically more expensive than the
        // rounds they replace. (Its own successors stay out of the window
        // too — their predecessor is no longer inside it.)
        if (policy.reserved(key)) continue;
        const std::uint32_t remaining = item.app->remaining_preds[succ];
        if (remaining == 0) continue;  // released while this round ran
        pred_window.clear();
        for (const std::uint32_t pred : plan.preds[succ]) {
          const auto w = window_of.find(reservation_key(item.app->id, pred));
          if (w != window_of.end()) pred_window.push_back(w->second);
        }
        if (pred_window.size() != remaining) continue;
        const task::Task& t = item.app->dag->graph.tasks()[succ];
        const std::size_t window_index = policy.add_lookahead(
            key,
            sched::ReadyTask{
                .task_key = 0,  // not yet in flight; identity via its key
                .app_instance_id = item.app->id,
                .kernel = t.kernel,
                .problem_size = t.problem_size,
                .data_bytes = t.data_bytes,
                .ready_time = t_now,
                .rank = plan.ranks[succ],
                // A fresh task has no failed classes to narrow by.
                .class_mask = impl_class_mask(item.app->impls[succ]),
            },
            depth, pred_window);
        window_of[key] = window_index;
        next.push_back({item.app, succ});
        if (policy.lookahead_count() >=
            sched::PolicyEngine::kMaxLookaheadTasks) {
          return;
        }
      }
    }
    level.swap(next);
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

Status Runtime::execute_on_pe(InFlightTask& task, Worker& worker) {
  const task::TaskFn& impl =
      task.impls[static_cast<std::size_t>(worker.pe.cls)];
  platform::MmioDevice* device = worker.devices.for_kernel(task.kernel);

  if (fault_injector_ != nullptr) {
    const platform::FaultDecision fault =
        fault_injector_->next(worker.pe_index);
    switch (fault.kind) {
      case platform::FaultKind::kNone:
        break;
      case platform::FaultKind::kTransientFail:
        count("faults_injected");
        return Unavailable("injected transient fault on " + worker.pe.name);
      case platform::FaultKind::kLatencySpike:
        // The execution still succeeds, it just takes longer (thermal
        // throttling / contention); the deadline check may still fail it.
        count("faults_injected");
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fault.duration_s));
        break;
      case platform::FaultKind::kDeviceHang:
        count("faults_injected");
        if (device != nullptr && impl) {
          // Wedge the MMIO device: the impl's polling loop spins until the
          // emulated watchdog flips the status register to kStatusError.
          device->inject_hang();
        } else {
          // CPU-style PE with no device to wedge: the worker is simply
          // unresponsive for the hang dwell (clipped to the task deadline).
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(fault.duration_s,
                       config_.fault_plan.policy.task_timeout_s)));
          return Unavailable("injected PE hang on " + worker.pe.name);
        }
        break;
    }
  }

  // Tasks without implementations (timing/structural studies) are no-ops.
  if (!impl) return Status::Ok();
  task::ExecContext ctx{
      .pe = &worker.pe,
      .device = device,
  };
  Status status = impl(ctx);
  // Recover the device after a failed operation (hang, error) so the next
  // task dispatched here starts from a clean register file.
  if (!status.ok() && device != nullptr) device->reset();
  return status;
}

namespace {
/// Batched completion publication (docs/runtime_lifecycle.md): a worker
/// flushes its pending completions once it has this many, rather than
/// taking event_mutex per task.
constexpr std::size_t kCompletionFlushBatch = 32;
/// A task that ran at least this long flushes immediately: its successors
/// have already waited milliseconds, batching would only add latency.
constexpr double kLongTaskFlushS = 1e-3;
}  // namespace

void Runtime::worker_loop(Worker& worker) {
  // Finished tasks are deposited here and published in batches: one
  // event_mutex acquisition and one round hand-off per flush instead of per
  // task. Flush rules — batch full, a long task, or (the latency bound) the
  // mailbox going idle: a worker never sleeps on undelivered completions.
  std::vector<Impl::CompletionRecord> pending;
  pending.reserve(kCompletionFlushBatch);
  const auto flush = [&] {
    if (pending.empty()) return;
    Stopwatch publish;
    {
      std::lock_guard lock(impl_->event_mutex);
      for (Impl::CompletionRecord& rec : pending) {
        impl_->completions.push_back(std::move(rec));
      }
    }
    if (complete_publish_us_ != nullptr) {
      complete_publish_us_->record(publish.elapsed_us());
    }
    pending.clear();
    drive_rounds(&worker);
  };

  for (;;) {
    std::optional<std::shared_ptr<InFlightTask>> item =
        worker.mailbox.try_pop();
    if (!item) {
      flush();  // flush-on-idle: deliver before blocking
      item = worker.mailbox.pop();
      if (!item) break;  // mailbox closed and drained
    }
    std::shared_ptr<InFlightTask> task = std::move(*item);
    const double start = now();
    worker.busy_since.store(start, std::memory_order_relaxed);
    Status status = execute_on_pe(*task, worker);
    const double end = now();
    worker.busy_seconds.store(
        worker.busy_seconds.load(std::memory_order_relaxed) + (end - start),
        std::memory_order_relaxed);
    worker.busy_since.store(-1.0, std::memory_order_relaxed);
    worker.tasks_done.fetch_add(1, std::memory_order_relaxed);
    // Per-task deadline: when fault injection is active, an execution that
    // overran the policy deadline is treated as a failure (and retried) even
    // if it eventually produced a result — the paper's real-time framing.
    if (fault_injector_ != nullptr && status.ok() &&
        end - start > config_.fault_plan.policy.task_timeout_s) {
      count("deadline_misses");
      status = Unavailable("task exceeded deadline on " + worker.pe.name);
    }
    // Feed the online cost estimator with successful executions only;
    // faulted attempts never describe the pairing's true cost, and latency
    // spikes that slipped through are handled by its outlier rejection.
    if (adapt_ != nullptr && status.ok()) {
      adapt_->observe(task->kernel, worker.pe.cls, task->problem_size,
                      task->data_bytes, end - start);
    }
    count(hot_.tasks_executed);
    queue_delay_us_->record((start - task->enqueue_time) * 1e6);
    service_time_us_->record((end - start) * 1e6);
    // The execute span is the task's execution record (trace/report.h):
    // kernel and problem size in arg0, attempt index and outcome in arg1.
    tracer_.flow(obs::EventKind::kFlowEnd, obs::Category::kWorker, "execute",
                 0, 1 + worker.pe_index, start, task->key);
    tracer_.complete_span(
        obs::Category::kWorker, task->name.c_str(), 0, 1 + worker.pe_index,
        start, end - start, platform::kernel_name(task->kernel).data(),
        static_cast<double>(task->problem_size),
        status.ok() ? obs::kAttemptArg : obs::kFailedAttemptArg,
        static_cast<double>(task->retry.attempt));
    // Fig. 4: the worker signals the sleeping application thread directly —
    // but only on success. Failures first go through the round owner's
    // retry machinery; only a terminal failure is signalled (from there).
    if (status.ok() && task->completion) task->completion->signal(status);
    const bool long_task = end - start > kLongTaskFlushS;
    pending.push_back(Impl::CompletionRecord{
        .task = std::move(task),
        .status = std::move(status),
        .pe_index = worker.pe_index,
        .ran_s = end - start,
    });
    if (pending.size() >= kCompletionFlushBatch || long_task) flush();
  }
  flush();
}

}  // namespace cedr::rt
