// Round ownership, the main loop and completion processing: worker-reported
// results go through the policy engine (outstanding work, PE health,
// bounded retry with backoff, reservation honouring), then drive DAG
// successor release and application completion. This TU owns the ready
// state transitions; the scheduling round itself lives in dispatch.cpp.
//
// Locking (runtime_impl.h): rounds run under round_mutex, taken by whichever
// thread published the work. The inbox (newly ready tasks and completion
// records) is drained under the leaf event_mutex, then processed with
// health_mutex (PE health, per failed or probed record) and app_mutex
// (lifecycle, once per round for the whole batch) taken separately and
// never together with event_mutex held.

#include <chrono>
#include <utility>

#include "cedr/common/log.h"
#include "runtime_impl.h"

namespace cedr::rt {

void Runtime::drive_rounds(const Worker* worker) {
  Impl& impl = *impl_;
  // Sequentially consistent on purpose: this store must not be reordered
  // after the try-lock below, nor an owner's re-check before its unlock —
  // otherwise a publisher and an unlocking owner could each miss the other.
  impl.round_pending.store(true);
  RoundHandoff handoff;
  // A worker with tasks in its mailbox leaves the round pending for the
  // next publisher or the tick: running it would queue those tasks behind
  // the round. Its own next flush comes at the latest when they finish.
  while (impl.round_pending.load() &&
         (worker == nullptr || worker->mailbox.empty())) {
    {
      std::unique_lock owner(impl.round_mutex, std::try_to_lock);
      // The owner re-checks round_pending after it unlocks, so it (or the
      // thread after it) runs the round this call asked for.
      if (!owner.owns_lock()) return;
      const Stopwatch hold;
      owner_round(handoff);
      handoff.hold_us = hold.elapsed_us();
    }
    hand_off(handoff);
  }
}

void Runtime::owner_round(RoundHandoff& out) {
  Impl& impl = *impl_;
  // Cleared before draining: anything published from here on sets it again
  // and is picked up by the caller's re-check.
  impl.round_pending.store(false);
  {
    const auto lock = impl.lock_inbox();
    impl.drained_completions.swap(impl.completions);
    impl.drained_arrivals.swap(impl.arrivals);
  }
  out.records = impl.drained_completions.size();
  // New work or a changed PE: a blocked round may be able to place now.
  if (!impl.drained_completions.empty() || !impl.drained_arrivals.empty()) {
    impl.sched_blocked = false;
  }
  for (auto& task : impl.drained_arrivals) impl.push_ready(std::move(task));
  impl.drained_arrivals.clear();
  process_completions(out);
  run_scheduling_round(out);
}

void Runtime::hand_off(RoundHandoff& out) {
  for (std::size_t pe = 0; pe < out.batches.size(); ++pe) {
    if (out.batches[pe].empty()) continue;
    impl_->workers[pe]->mailbox.push_batch(std::span(out.batches[pe]));
    out.batches[pe].clear();
  }
  if (out.app_finished) impl_->app_done_cv.notify_all();
  out.app_finished = false;
  round_hold_us_->record(out.hold_us);
  if (out.records != 0) {
    batch_per_round_->record(static_cast<double>(out.records));
    out.records = 0;
  }
  // Last: the round's finished tasks are torn down here, off the round.
  out.finished.clear();
}

void Runtime::main_loop() {
  // Publishers run the rounds their work needs (drive_rounds), so the loop
  // only ticks: a round every scheduler period releases retries whose
  // backoff elapsed and reopens probe windows, events no publisher reports.
  // It also joins exited application threads and ends the runtime.
  const auto period = std::chrono::duration<double>(config_.scheduler_period_s);
  while (true) {
    {
      std::unique_lock lock(impl_->stop_mutex);
      impl_->stop_cv.wait_for(lock, period, [this] {
        return impl_->stopping.load(std::memory_order_relaxed);
      });
    }
    reap_app_threads();
    drive_rounds();
    if (impl_->stopping.load(std::memory_order_relaxed)) {
      // Checked while owning the round: an owner between its inbox drain
      // and its pushes would show an empty inbox and an empty queue.
      std::unique_lock owner(impl_->round_mutex, std::try_to_lock);
      if (!owner.owns_lock()) continue;
      const auto lock = impl_->lock_inbox();
      if (impl_->completions.empty() && impl_->arrivals.empty() &&
          impl_->ready.size() == 0 && impl_->policy.deferred_count() == 0) {
        break;
      }
    }
  }
}

void Runtime::process_completions(RoundHandoff& out) {
  // The records owner_round drained from the inbox, processed without the
  // inbox lock: workers reporting further completions never wait on this
  // round's health or lifecycle work. Three passes over the batch, one
  // clock read each: PE state record by record, then the lifecycle
  // bookkeeping of the whole batch under one app_mutex hold, then the
  // released successors in record order. Each task leaves in out.finished,
  // so its teardown (impl closures, the arena free) runs after the round is
  // released (hand_off).
  std::vector<Impl::CompletionRecord>& batch = impl_->drained_completions;
  if (batch.empty()) return;
  Stopwatch overhead;
  out.finished.reserve(batch.size());
  sched::PolicyEngine& policy = impl_->policy;

  // --- Pass 1: PE availability, health, retry, terminal failure. -----------
  const double t_now = now();
  for (Impl::CompletionRecord& rec : batch) {
    InFlightTask& inflight = *rec.task;
    const Worker& worker = *impl_->workers[rec.pe_index];
    const std::size_t pe = rec.pe_index;
    // The attempt is off its PE either way: re-ground the PE's availability
    // on the work still booked there.
    policy.complete(pe, inflight.booked_s, rec.ran_s, t_now);

    if (!rec.status.ok()) {
      tracer_.instant(obs::Category::kFault, "fault", 0, 1 + pe, t_now,
                      "attempt", static_cast<double>(inflight.retry.attempt));
      sched::FailureOutcome failure;
      {
        std::lock_guard health(impl_->health_mutex);
        failure = policy.on_failure(pe, inflight.retry, rec.task, t_now);
      }
      if (failure.health == sched::HealthTransition::kProbeFailed) {
        count("probes_failed");
        tracer_.instant(obs::Category::kFault, "probe_failed", 0, 1 + pe,
                        t_now);
      } else if (failure.health == sched::HealthTransition::kQuarantined) {
        const std::uint32_t streak = policy.health(pe).consecutive_faults;
        count("pes_quarantined");
        tracer_.instant(obs::Category::kFault, "pe_quarantined", 0, 1 + pe,
                        t_now, "consecutive_faults",
                        static_cast<double>(streak));
        CEDR_LOG(kWarn, kLogTag) << "PE " << worker.pe.name
                                 << " quarantined after " << streak
                                 << " consecutive faults";
      }
      if (failure.retry) {
        count("tasks_retried");
        tracer_.instant(obs::Category::kFault, "retry_backoff", 0, 1 + pe,
                        t_now, "attempt",
                        static_cast<double>(inflight.retry.attempt),
                        "backoff_s", failure.backoff_s);
        impl_->deferred_count.store(policy.deferred_count(),
                                    std::memory_order_relaxed);
        // Not terminal: the policy engine holds the task until its backoff
        // ends. No successor release, no app signal.
        out.finished.push_back(std::move(rec.task));
        continue;
      }
      // Terminal failure: retries exhausted. Only now does the failure
      // become visible to the application.
      count("tasks_failed");
      tracer_.instant(obs::Category::kFault, "task_failed", 0, 1 + pe, t_now,
                      "attempts",
                      static_cast<double>(inflight.retry.attempt + 1));
      CEDR_LOG(kWarn, kLogTag)
          << "task '" << inflight.name << "' failed after "
          << (inflight.retry.attempt + 1)
          << " attempts: " << rec.status.to_string();
      if (inflight.completion) inflight.completion->signal(rec.status);
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
      if (inflight.retry.attempt > 0) {
        count("tasks_recovered");
        const double latency_s = t_now - inflight.first_enqueue_time;
        retry_latency_us_->record(latency_s * 1e6);
        tracer_.instant(obs::Category::kFault, "task_recovered", 0, 1 + pe,
                        t_now, "latency_s", latency_s);
      }
    }
  }

  // --- Pass 2: successor release, finish and retire, one app_mutex hold. ---
  // DAG successors are built under the lock (they read per-instance state)
  // and queued after it is released, to keep the lifecycle lock narrow.
  std::vector<std::shared_ptr<InFlightTask>>& released = impl_->released;
  std::vector<std::unique_ptr<AppInstance>> retired;
  {
    std::lock_guard lock(impl_->app_mutex);
    for (Impl::CompletionRecord& rec : batch) {
      if (rec.task == nullptr) continue;  // deferred for a retry in pass 1
      const InFlightTask& done =
          *out.finished.emplace_back(std::move(rec.task));
      const auto it = impl_->apps.find(done.app_instance_id);
      if (it == impl_->apps.end()) continue;
      AppInstance& app = *it->second;
      if (done.is_dag) {
        // Successor release is flat index arithmetic over the shared
        // DagPlan — no TaskId hashing, and the implementation arrays move
        // out of the instance instead of being copied from the descriptor.
        const DagPlan& plan = *app.plan;
        for (const std::uint32_t succ :
             plan.successors[done.dag_task_index]) {
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
          out.app_finished = true;
          retire_app_locked(app.id, retired);
        }
      } else if (--app.outstanding_kernels == 0 && app.main_done) {
        // main returned with this kernel outstanding (a _NB call): the app
        // finishes with its last completion.
        finish_app_locked(app);
        out.app_finished = true;
        if (app.thread_reaped) retire_app_locked(app.id, retired);
      }
    }
  }
  batch.clear();

  // --- Pass 3: stamp the released tasks, then honour or queue each. --------
  const double t_release = now();
  for (auto& next : released) {
    next->enqueue_time = t_release;
    next->first_enqueue_time = t_release;
    tracer_.flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                 next->name.c_str(), 1 + next->app_instance_id, 0, t_release,
                 next->key);
    // Honour a fresh lookahead reservation: the task bypasses the ready
    // queue into the round's dispatch batch for its reserved PE (no
    // re-decision). Otherwise — or when it has gone stale — it takes the
    // normal ready path and the next round re-decides it.
    if (lookahead_ != nullptr) {
      const sched::Honoured honoured = policy.honour(Impl::reservation_key(
          next->app_instance_id, next->dag_task_index));
      if (honoured.outcome == sched::Honoured::Outcome::kHit) {
        next->booked_s = honoured.estimate_s;
        tracer_.flow(obs::EventKind::kFlowStep, obs::Category::kSched,
                     "dispatch_reserved", 0, 0, t_release, next->key);
        if (out.batches.empty()) out.batches.resize(impl_->workers.size());
        out.batches[honoured.pe_index].push_back(std::move(next));
        count(hot_.reservation_hits);
        continue;
      }
      if (honoured.outcome == sched::Honoured::Outcome::kStale) {
        count("sched.reservation_stale");
      }
    }
    impl_->push_ready(std::move(next));
  }
  released.clear();
  impl_->avail_lead_s.store(policy.avail_lead(t_release),
                            std::memory_order_relaxed);
  impl_->runtime_overhead.fetch_add(overhead.elapsed(),
                                    std::memory_order_relaxed);
  if (!retired.empty()) impl_->recycle_instances(retired);
}

void Runtime::retire_app_locked(
    std::uint64_t id, std::vector<std::unique_ptr<AppInstance>>& retired) {
  // Completion paths treat a missing id as finished, so erasing loses only
  // the name — saved aside for trace export while tracing, until the ring
  // has overwritten the instance's spans. Without the erase, the map would
  // grow with total submissions under a long-running daemon.
  const auto it = impl_->apps.find(id);
  auto& names = impl_->reaped_app_names;
  const std::uint64_t recorded = tracer_.recorded();
  if (config_.obs.tracing) {
    names.push_back({.id = id, .name = it->second->name, .stamp = recorded});
  }
  while (!names.empty() &&
         recorded - names.front().stamp >= tracer_.capacity()) {
    names.pop_front();
  }
  // Recycled by the caller after app_mutex is released: pool_mutex is a
  // leaf and must not nest inside it.
  retired.push_back(std::move(it->second));
  impl_->apps.erase(it);
}

void Runtime::reap_app_threads() {
  // Collected under the lifecycle lock, joined outside it: each thread has
  // already left its main function and touches its instance no more.
  std::vector<std::thread> exited;
  std::vector<std::unique_ptr<AppInstance>> retired;
  {
    std::lock_guard lock(impl_->app_mutex);
    std::vector<std::uint64_t>& ids = impl_->exited_app_threads;
    if (ids.empty()) return;
    std::size_t kept = 0;
    for (const std::uint64_t id : ids) {
      // Unfinished or unclaimed instances are never erased, so `id` is live.
      AppInstance& app = *impl_->apps.at(id);
      if (!app.app_thread.joinable()) {
        // The thread exited before submit_api stored its handle; next tick.
        ids[kept++] = id;
        continue;
      }
      exited.push_back(std::move(app.app_thread));
      app.thread_reaped = true;
      if (app.finished) retire_app_locked(app.id, retired);
    }
    ids.resize(kept);
  }
  for (std::thread& t : exited) t.join();
  if (!retired.empty()) impl_->recycle_instances(retired);
}

}  // namespace cedr::rt
