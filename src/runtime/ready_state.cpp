// The main event loop and completion processing: worker-reported results
// go through the policy engine (PE health, bounded retry with backoff,
// reservation honouring), then drive DAG successor release and application
// completion. This TU owns the ready state transitions; the scheduling
// round itself lives in dispatch.cpp.
//
// Locking (runtime_impl.h): completion records are drained under the leaf
// event_mutex, then processed with health_mutex (PE health) and app_mutex
// (lifecycle) taken separately and never together with event_mutex held.

#include <chrono>
#include <utility>

#include "cedr/common/log.h"
#include "runtime_impl.h"

namespace cedr::rt {

void Runtime::main_loop() {
  while (true) {
    {
      std::unique_lock lock(impl_->event_mutex);
      impl_->event_cv.wait_for(
          lock, std::chrono::duration<double>(config_.scheduler_period_s),
          [this] {
            // A ready queue the last round could not dispatch from (all
            // capable PEs quarantined / probes pending / retries backing
            // off) is not a wake reason until something changes; otherwise
            // the loop would busy-spin empty scheduling rounds.
            const bool schedulable =
                impl_->ready.size() != 0 &&
                !(impl_->sched_blocked &&
                  impl_->sched_epoch.load(std::memory_order_relaxed) ==
                      impl_->sched_blocked_epoch);
            return impl_->stopping.load(std::memory_order_relaxed) ||
                   !impl_->completions.empty() || schedulable;
          });
      if (impl_->stopping.load(std::memory_order_relaxed) &&
          impl_->completions.empty() && impl_->ready.size() == 0 &&
          impl_->policy.deferred_count() == 0) {
        break;
      }
    }
    process_completions();
    run_scheduling_round();
  }
}

void Runtime::process_completions() {
  // Drain the records under the leaf event lock, process them without it —
  // workers reporting further completions never wait on this loop's health
  // or lifecycle work.
  std::deque<Impl::CompletionRecord> batch;
  {
    std::lock_guard lock(impl_->event_mutex);
    batch.swap(impl_->completions);
  }
  if (batch.empty()) {
    // Still sweep API apps: an application main returning (main_done) is
    // not a completion record but can finish the app.
    finish_idle_api_apps();
    return;
  }
  Stopwatch overhead;
  bool any_app_finished = false;
  // Released tasks with a still-valid reservation bypass the ready queue:
  // collected here per worker across the whole batch, dispatched with one
  // push_batch per touched worker after the loop (no re-decision round).
  std::vector<std::vector<std::shared_ptr<InFlightTask>>> reserved_batches;
  sched::PolicyEngine& policy = impl_->policy;
  for (Impl::CompletionRecord& rec : batch) {
    // Every completion changes PE health or releases work: any blocked
    // scheduling state is stale now.
    impl_->sched_epoch.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<InFlightTask> inflight = std::move(rec.task);
    const Status status = std::move(rec.status);
    const Worker& worker = *impl_->workers[rec.pe_index];
    const std::size_t pe = rec.pe_index;
    const double t_now = now();

    if (!status.ok()) {
      tracer_.instant(obs::Category::kFault, "fault", 0, 1 + pe, t_now,
                      "attempt", static_cast<double>(inflight->retry.attempt));
      sched::FailureOutcome out;
      {
        std::lock_guard health(impl_->health_mutex);
        out = policy.on_failure(pe, inflight->retry, inflight, t_now);
      }
      if (out.health == sched::HealthTransition::kProbeFailed) {
        count("probes_failed");
        tracer_.instant(obs::Category::kFault, "probe_failed", 0, 1 + pe,
                        t_now);
      } else if (out.health == sched::HealthTransition::kQuarantined) {
        const std::uint32_t streak = policy.health(pe).consecutive_faults;
        count("pes_quarantined");
        tracer_.instant(obs::Category::kFault, "pe_quarantined", 0, 1 + pe,
                        t_now, "consecutive_faults",
                        static_cast<double>(streak));
        CEDR_LOG(kWarn, kLogTag) << "PE " << worker.pe.name
                                 << " quarantined after " << streak
                                 << " consecutive faults";
      }
      if (out.retry) {
        count("tasks_retried");
        tracer_.instant(obs::Category::kFault, "retry_backoff", 0, 1 + pe,
                        t_now, "attempt",
                        static_cast<double>(inflight->retry.attempt),
                        "backoff_s", out.backoff_s);
        impl_->deferred_count.store(policy.deferred_count(),
                                    std::memory_order_relaxed);
        continue;  // not terminal: no successor release, no app signal
      }
      // Terminal failure: retries exhausted. Only now does the failure
      // become visible to the application.
      count("tasks_failed");
      tracer_.instant(obs::Category::kFault, "task_failed", 0, 1 + pe, t_now,
                      "attempts",
                      static_cast<double>(inflight->retry.attempt + 1));
      CEDR_LOG(kWarn, kLogTag)
          << "task '" << inflight->name << "' failed after "
          << (inflight->retry.attempt + 1)
          << " attempts: " << status.to_string();
      if (inflight->completion) inflight->completion->signal(status);
    } else {
      // --- Success: reset health, reinstate a probed PE, book recovery. ----
      sched::HealthTransition health;
      {
        std::lock_guard lock(impl_->health_mutex);
        health = policy.on_success(pe);
      }
      if (health == sched::HealthTransition::kReinstated) {
        count("pes_reinstated");
        tracer_.instant(obs::Category::kFault, "pe_reinstated", 0, 1 + pe,
                        t_now);
        CEDR_LOG(kInfo, kLogTag)
            << "PE " << worker.pe.name << " reinstated after probe success";
      }
      if (inflight->retry.attempt > 0) {
        count("tasks_recovered");
        trace_.add_retry_latency(t_now - inflight->first_enqueue_time);
        tracer_.instant(obs::Category::kFault, "task_recovered", 0, 1 + pe,
                        t_now, "latency_s",
                        t_now - inflight->first_enqueue_time);
      }
    }

    // --- Application bookkeeping: successor release / finish. --------------
    // DAG successors are built under app_mutex (they read per-instance
    // state) and pushed to the shards afterwards — shard locks are leaves
    // and must not nest inside, but pushing outside keeps the lifecycle
    // lock narrow anyway.
    std::vector<std::shared_ptr<InFlightTask>> released;
    {
      std::lock_guard lock(impl_->app_mutex);
      auto it = impl_->apps.find(inflight->app_instance_id);
      if (it == impl_->apps.end()) continue;
      AppInstance& app = *it->second;
      if (inflight->is_dag) {
        // Successor release is flat index arithmetic over the shared
        // DagPlan — no TaskId hashing, and the implementation arrays move
        // out of the instance instead of being copied from the descriptor.
        const DagPlan& plan = *app.plan;
        for (const std::uint32_t succ :
             plan.successors[inflight->dag_task_index]) {
          if (--app.remaining_preds[succ] != 0) continue;
          const task::Task& t = app.dag->graph.tasks()[succ];
          auto next = impl_->make_task();
          next->key =
              impl_->next_task_key.fetch_add(1, std::memory_order_relaxed);
          next->app_instance_id = app.id;
          next->name = t.name;
          next->kernel = t.kernel;
          next->problem_size = t.problem_size;
          next->data_bytes = t.data_bytes;
          next->impls = std::move(app.impls[succ]);
          next->is_dag = true;
          next->dag_task_index = succ;
          next->rank = plan.ranks[succ];
          released.push_back(std::move(next));
        }
        if (--app.tasks_remaining == 0) {
          finish_app_locked(app);
          any_app_finished = true;
        }
      } else {
        --app.outstanding_kernels;
      }
    }
    for (auto& next : released) {
      next->enqueue_time = now();
      next->first_enqueue_time = next->enqueue_time;
      tracer_.flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   next->name.c_str(), 1 + next->app_instance_id, 0,
                   next->enqueue_time, next->key);
      // Honour a fresh lookahead reservation; otherwise — or when it has
      // gone stale — the task takes the normal ready path and the next
      // round re-decides it.
      if (lookahead_ != nullptr) {
        const sched::Honoured honoured = policy.honour(Impl::reservation_key(
            next->app_instance_id, next->dag_task_index));
        if (honoured.outcome == sched::Honoured::Outcome::kHit) {
          if (reserved_batches.empty()) {
            reserved_batches.resize(impl_->workers.size());
          }
          reserved_batches[honoured.pe_index].push_back(std::move(next));
          count("sched.reservation_hits");
          continue;
        }
        if (honoured.outcome == sched::Honoured::Outcome::kStale) {
          count("sched.reservation_stale");
        }
      }
      impl_->push_ready(std::move(next));
    }
  }
  for (std::size_t pe = 0; pe < reserved_batches.size(); ++pe) {
    auto& batch = reserved_batches[pe];
    if (batch.empty()) continue;
    for (const auto& task : batch) {
      tracer_.flow(obs::EventKind::kFlowStep, obs::Category::kSched,
                   "dispatch_reserved", 0, 0, now(), task->key);
    }
    impl_->workers[pe]->mailbox.push_batch(std::span(batch));
  }
  if (finish_idle_api_apps()) any_app_finished = true;
  {
    std::lock_guard lock(impl_->app_mutex);
    impl_->runtime_overhead += overhead.elapsed();
  }
  if (any_app_finished) impl_->app_done_cv.notify_all();
}

bool Runtime::finish_idle_api_apps() {
  // API applications finish when their main returned and no kernels remain.
  // Exited app threads are reaped here: collected under the lifecycle lock,
  // joined outside it.
  //
  // Finished instances are then erased from the map. Completion paths treat
  // a missing id as finished, so the only thing lost is the name — saved
  // aside for trace export when tracing is on. Without this, every
  // lifecycle scan and the map itself grow with total submissions, which
  // under a daemon taking tens of thousands of submissions per second
  // turns this function into the scheduler's bottleneck within seconds.
  bool any_finished = false;
  std::vector<std::thread> exited;
  std::vector<std::unique_ptr<AppInstance>> recycled;
  {
    std::lock_guard lock(impl_->app_mutex);
    for (auto it = impl_->apps.begin(); it != impl_->apps.end();) {
      AppInstance& app = *it->second;
      if (!app.is_dag) {
        if (!app.finished && app.main_done.load(std::memory_order_acquire) &&
            app.outstanding_kernels == 0) {
          finish_app_locked(app);
          any_finished = true;
        }
        if (app.thread_exited.load(std::memory_order_acquire) &&
            app.app_thread.joinable()) {
          exited.push_back(std::move(app.app_thread));
          app.thread_reaped = true;
        }
      }
      // Reap once finished and (for API apps) the thread has been claimed
      // for joining — thread_exited alone is not enough, submit_api may not
      // have move-assigned the handle yet. The join happens after the lock
      // is released; nothing touches the instance after its thread exited.
      if (app.finished && (app.is_dag || app.thread_reaped)) {
        if (config_.obs.tracing) {
          impl_->reaped_app_names.emplace_back(it->first, app.name);
        }
        // Collect under the lock, recycle outside it: pool_mutex is a leaf
        // and must not nest inside app_mutex.
        recycled.push_back(std::move(it->second));
        it = impl_->apps.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : exited) t.join();
  if (!recycled.empty()) impl_->recycle_instances(recycled);
  if (any_finished) impl_->app_done_cv.notify_all();
  return any_finished;
}

}  // namespace cedr::rt
