// Application lifecycle: submissions (DAG and API mode), enqueue_kernel,
// app completion bookkeeping and the wait_* entry points. All lifecycle
// state lives under Impl::app_mutex (Level 0 of the lock hierarchy,
// runtime_impl.h). Newly ready tasks go to the round inbox (the leaf
// event_mutex) after the lifecycle lock is released; the round owner moves
// them into the ready queue, so submitters never wait on a round.

#include <chrono>
#include <cmath>
#include <utility>

#include "cedr/common/log.h"
#include "cedr/sched/rank.h"
#include "runtime_impl.h"

namespace cedr::rt {

namespace {
/// Rejection of a task no PE on the platform can run: no scheduling round
/// would ever place it, and shutdown() would wait on it forever.
Status unplaceable(const std::string& task_name, platform::KernelId kernel) {
  return FailedPrecondition("task '" + task_name + "' (" +
                            std::string(platform::kernel_name(kernel)) +
                            ") has no implementation for any PE on this "
                            "platform");
}
}  // namespace

StatusOr<std::shared_ptr<const DagPlan>> Runtime::Impl::plan_for(
    const std::shared_ptr<const task::AppDescriptor>& app,
    const platform::PlatformConfig& platform) {
  const task::AppDescriptor* key = app.get();
  {
    std::lock_guard lock(plan_mutex);
    auto it = plan_index.find(key);
    if (it != plan_index.end()) {
      plan_lru.splice(plan_lru.begin(), plan_lru, it->second);
      return *it->second;
    }
  }

  // Miss: validate and precompute outside the lock — topological
  // validation, HEFT upward ranks, in-degree counts — once per descriptor.
  const auto topo = app->graph.topological_order();
  if (!topo.ok()) return topo.status();
  auto plan = std::make_shared<DagPlan>();
  plan->descriptor = app;
  const task::TaskGraph& graph = app->graph;
  const std::size_t n = graph.size();
  plan->pred_counts.resize(n);
  plan->ranks.resize(n);
  plan->successors.resize(n);
  plan->preds.resize(n);
  const auto rank_map = sched::upward_ranks(graph, platform);
  for (std::size_t i = 0; i < n; ++i) {
    const task::Task& t = graph.tasks()[i];
    const auto& pred_ids = graph.predecessors(t.id);
    plan->pred_counts[i] = static_cast<std::uint32_t>(pred_ids.size());
    if (pred_ids.empty()) plan->heads.push_back(static_cast<std::uint32_t>(i));
    for (const task::TaskId pred : pred_ids) {
      plan->preds[i].push_back(static_cast<std::uint32_t>(graph.index_of(pred)));
    }
    plan->ranks[i] = rank_map.at(t.id);
    for (const task::TaskId succ : graph.successors(t.id)) {
      plan->successors[i].push_back(
          static_cast<std::uint32_t>(graph.index_of(succ)));
    }
  }

  std::lock_guard lock(plan_mutex);
  auto it = plan_index.find(key);
  if (it != plan_index.end()) {
    // A concurrent submitter built the same plan first; keep theirs.
    plan_lru.splice(plan_lru.begin(), plan_lru, it->second);
    return *it->second;
  }
  plan_lru.push_front(std::shared_ptr<const DagPlan>(std::move(plan)));
  plan_index.emplace(key, plan_lru.begin());
  while (plan_lru.size() > kPlanCacheCapacity) {
    plan_index.erase(plan_lru.back()->descriptor.get());
    plan_lru.pop_back();
  }
  return plan_lru.front();
}

StatusOr<Runtime::Impl::PreparedDag> Runtime::Impl::prepare_dag(
    Runtime& rt, DagSubmission submission) {
  std::shared_ptr<const task::AppDescriptor> app =
      std::move(submission.descriptor);
  if (!app) return InvalidArgument("null application descriptor");
  const std::size_t n = app->graph.size();
  if (n == 0) return InvalidArgument("application graph is empty");
  if (submission.impls.size() != n) {
    return InvalidArgument("submission needs one impl array per task: got " +
                           std::to_string(submission.impls.size()) + " for " +
                           std::to_string(n) + " tasks");
  }
  // Placeability is a property of this instance's implementations, not of
  // the shared skeleton, so it is checked per submission.
  for (std::size_t i = 0; i < n; ++i) {
    const task::Task& t = app->graph.tasks()[i];
    if (!policy.placeable(t.kernel, impl_class_mask(submission.impls[i]))) {
      return unplaceable(t.name, t.kernel);
    }
  }
  auto plan_or = plan_for(app, rt.config_.platform);
  if (!plan_or.ok()) return plan_or.status();
  std::shared_ptr<const DagPlan> plan = std::move(*plan_or);

  PreparedDag out;
  out.instance = acquire_instance();
  AppInstance& instance = *out.instance;
  instance.name = app->name;
  instance.is_dag = true;
  instance.dag = std::move(app);
  instance.tasks_remaining = n;
  instance.remaining_preds.assign(plan->pred_counts.begin(),
                                  plan->pred_counts.end());
  instance.impls = std::move(submission.impls);

  // Head nodes enter the ready queue immediately (paper §II-A). Build them
  // while the instance is still locally owned — after it is published to
  // the apps map, only app_mutex holders may touch it.
  out.heads.reserve(plan->heads.size());
  for (const std::uint32_t head : plan->heads) {
    const task::Task& t = instance.dag->graph.tasks()[head];
    auto inflight = make_task();
    inflight->name = t.name;
    inflight->kernel = t.kernel;
    inflight->problem_size = t.problem_size;
    inflight->data_bytes = t.data_bytes;
    inflight->impls = std::move(instance.impls[head]);
    inflight->is_dag = true;
    inflight->dag_task_index = head;
    inflight->rank = plan->ranks[head];
    out.heads.push_back(std::move(inflight));
  }
  instance.plan = std::move(plan);
  return out;
}

StatusOr<std::uint64_t> Runtime::submit_dag(DagSubmission submission) {
  std::vector<DagSubmission> one;
  one.push_back(std::move(submission));
  auto results = submit_dag_batch(std::move(one));
  return std::move(results.front());
}

std::vector<StatusOr<std::uint64_t>> Runtime::submit_dag_batch(
    std::vector<DagSubmission> submissions) {
  std::vector<StatusOr<std::uint64_t>> results;
  if (submissions.empty()) return results;

  Stopwatch overhead;
  // Phase 1 — prepare every submission lock-free (plan-cache lookup,
  // instance + head-task construction).
  std::vector<StatusOr<Impl::PreparedDag>> prepared;
  prepared.reserve(submissions.size());
  std::size_t ok_count = 0;
  for (DagSubmission& submission : submissions) {
    prepared.push_back(impl_->prepare_dag(*this, std::move(submission)));
    if (prepared.back().ok()) ++ok_count;
  }

  // Phase 2 — publish all accepted instances under one lifecycle-lock hold:
  // the per-submission critical section of the legacy path, paid once per
  // batch.
  std::vector<std::uint64_t> ids(prepared.size(), 0);
  std::vector<std::size_t> task_counts(prepared.size(), 0);
  double arrival = 0.0;
  bool accepting = false;
  if (ok_count != 0) {
    std::lock_guard lock(impl_->app_mutex);
    accepting = impl_->started && impl_->accepting;
    if (accepting) {
      arrival = now();
      for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (!prepared[i].ok()) continue;
        Impl::PreparedDag& prep = *prepared[i];
        const std::uint64_t id = impl_->next_instance_id++;
        prep.instance->id = id;
        prep.instance->arrival_time = arrival;
        prep.instance->launch_time = arrival;
        ids[i] = id;
        task_counts[i] = prep.instance->tasks_remaining;
        impl_->apps.emplace(id, std::move(prep.instance));
      }
      impl_->submitted.fetch_add(ok_count, std::memory_order_relaxed);
      impl_->runtime_overhead.fetch_add(overhead.elapsed(),
                                        std::memory_order_relaxed);
    }
  }

  // Phase 3 — trace arrivals and stamp every head task, then hand them all
  // to the round inbox under one lock hold.
  std::vector<std::shared_ptr<InFlightTask>> heads;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (!prepared[i].ok() || !accepting) continue;
    const std::uint64_t id = ids[i];
    tracer_.instant(obs::Category::kApp, "app_arrival", 1 + id, 0, arrival,
                    "tasks", static_cast<double>(task_counts[i]));
    count(hot_.apps_submitted_dag);
    for (auto& inflight : prepared[i]->heads) {
      inflight->key =
          impl_->next_task_key.fetch_add(1, std::memory_order_relaxed);
      inflight->app_instance_id = id;
      inflight->enqueue_time = now();
      inflight->first_enqueue_time = inflight->enqueue_time;
      tracer_.flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
                   inflight->name.c_str(), 1 + id, 0, inflight->enqueue_time,
                   inflight->key);
      heads.push_back(std::move(inflight));
    }
  }
  if (!heads.empty()) {
    const auto lock = impl_->lock_inbox();
    for (auto& head : heads) impl_->arrivals.push_back(std::move(head));
  }
  if (accepting && instantiate_us_ != nullptr && ok_count != 0) {
    const double per_instance_us =
        overhead.elapsed() * 1e6 / static_cast<double>(submissions.size());
    for (std::size_t i = 0; i < ok_count; ++i) {
      instantiate_us_->record(per_instance_us);
    }
  }

  // After the accounting above, so instantiate_us stays the submission's
  // own cost and excludes the round this thread may now own.
  if (!heads.empty()) drive_rounds();

  results.reserve(prepared.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (!prepared[i].ok()) {
      results.emplace_back(prepared[i].status());
    } else if (!accepting) {
      results.emplace_back(
          FailedPrecondition("runtime is not accepting submissions"));
    } else {
      results.emplace_back(ids[i]);
    }
  }
  return results;
}

StatusOr<std::uint64_t> Runtime::submit_api(std::string app_name,
                                            std::function<void()> main_fn) {
  if (!main_fn) return InvalidArgument("null application main function");

  Stopwatch overhead;
  auto instance = impl_->acquire_instance();
  instance->name = std::move(app_name);
  instance->is_dag = false;
  AppInstance* raw = instance.get();

  std::uint64_t id = 0;
  {
    std::lock_guard lock(impl_->app_mutex);
    if (!impl_->started || !impl_->accepting) {
      return FailedPrecondition("runtime is not accepting submissions");
    }
    id = impl_->next_instance_id++;
    instance->id = id;
    instance->arrival_time = now();
    instance->launch_time = instance->arrival_time;
    impl_->apps.emplace(id, std::move(instance));
    impl_->submitted.fetch_add(1, std::memory_order_relaxed);
    impl_->runtime_overhead.fetch_add(overhead.elapsed(),
                                      std::memory_order_relaxed);
  }
  tracer_.instant(obs::Category::kApp, "app_arrival", 1 + id, 0,
                  raw->arrival_time);
  count(hot_.apps_submitted_api);

  // "A new system thread is spawned that executes that application's main
  // function" (paper §II-C). The binding routes its libCEDR calls here.
  // The AppInstance address is stable (owned by the map via unique_ptr,
  // never erased before its thread is claimed), so spawning after the lock
  // is released is safe. The handle is stored under app_mutex: the spawned
  // thread can run — and queue itself for reaping — before the
  // move-assignment completes, and the main loop's reaper reads
  // app_thread.joinable() under that lock.
  std::thread app_thread([this, raw, fn = std::move(main_fn)] {
    thread_binding() = ThreadBinding{this, raw->id};
    fn();
    thread_binding() = ThreadBinding{};
    // main returned: with no kernel outstanding the app finishes here,
    // otherwise at its last kernel's completion (process_completions).
    bool finished = false;
    {
      std::lock_guard lock(impl_->app_mutex);
      raw->main_done = true;
      if (raw->outstanding_kernels == 0) {
        finish_app_locked(*raw);
        finished = true;
      }
      impl_->exited_app_threads.push_back(raw->id);
    }
    if (finished) impl_->app_done_cv.notify_all();
  });
  {
    std::lock_guard lock(impl_->app_mutex);
    raw->app_thread = std::move(app_thread);
  }
  return id;
}

Status Runtime::enqueue_kernel(KernelRequest request, CompletionPtr completion) {
  const ThreadBinding binding = thread_binding();
  if (binding.runtime != this) {
    return FailedPrecondition(
        "enqueue_kernel called from a thread not bound to this runtime");
  }
  if (!completion) return InvalidArgument("null completion");
  if (!impl_->policy.placeable(request.kernel,
                               Impl::impl_class_mask(request.impls))) {
    return unplaceable(request.name, request.kernel);
  }

  auto inflight = impl_->make_task();
  inflight->app_instance_id = binding.instance_id;
  inflight->name = std::move(request.name);
  inflight->kernel = request.kernel;
  inflight->problem_size = request.problem_size;
  inflight->data_bytes = request.data_bytes;
  inflight->impls = std::move(request.impls);
  inflight->completion = std::move(completion);
  // Single API calls have no DAG context; rank them by their average cost
  // so HEFT_RT still prioritizes heavyweight kernels. Ranks use the live
  // adapted tables when adaptation is on.
  const std::shared_ptr<const platform::CostModel> learned =
      adapt_ != nullptr ? adapt_->snapshot() : nullptr;
  const platform::CostModel& costs =
      learned != nullptr ? *learned : config_.platform.costs;
  double rank_total = 0.0;
  std::size_t rank_count = 0;
  for (const platform::PeDescriptor& pe : config_.platform.pes) {
    const double est = costs.estimate(
        inflight->kernel, pe.cls, inflight->problem_size, inflight->data_bytes);
    if (std::isfinite(est)) {
      rank_total += est;
      ++rank_count;
    }
  }
  inflight->rank = rank_count == 0 ? 0.0 : rank_total / rank_count;

  {
    std::lock_guard lock(impl_->app_mutex);
    auto it = impl_->apps.find(binding.instance_id);
    if (it == impl_->apps.end() || it->second->finished) {
      return FailedPrecondition("application instance is not active");
    }
    // Incrementing under the lifecycle lock pins the app open: it cannot
    // finish until this kernel's completion is processed.
    ++it->second->outstanding_kernels;
  }
  inflight->key = impl_->next_task_key.fetch_add(1, std::memory_order_relaxed);
  inflight->enqueue_time = now();
  inflight->first_enqueue_time = inflight->enqueue_time;
  tracer_.flow(obs::EventKind::kFlowBegin, obs::Category::kApp,
               inflight->name.c_str(), 1 + binding.instance_id, 0,
               inflight->enqueue_time, inflight->key);
  // "Pushing tasks to the ready queue ... is handled by the application
  // thread" in API-based CEDR (paper §IV-A) — this hand-off is on the app
  // thread, not the main loop. It takes only the inbox lock, never waiting
  // on a round: the owner moves the task into the ready queue.
  {
    const auto lock = impl_->lock_inbox();
    impl_->arrivals.push_back(std::move(inflight));
  }
  count(hot_.kernels_enqueued);
  // Fig. 4's hand-off minus the main-loop hop: unless another thread owns
  // the round, this app thread dispatches its own call.
  drive_rounds();
  return Status::Ok();
}

void Runtime::finish_app_locked(AppInstance& app) {
  app.finished = true;
  const double completion = now();
  app_exec_us_->record((completion - app.launch_time) * 1e6);
  tracer_.instant(obs::Category::kApp, "app_complete", 1 + app.id, 0,
                  completion, "exec_time_s", completion - app.arrival_time);
  impl_->completed.fetch_add(1, std::memory_order_relaxed);
  count(hot_.apps_completed);
}

// ---------------------------------------------------------------------------
// Waiting
// ---------------------------------------------------------------------------

namespace {
/// Resolves the caller's timeout against the configured default: negative
/// means "use RuntimeConfig::default_wait_timeout_s", and a resolved value
/// of 0 means wait forever.
double resolve_timeout(double timeout_s, const RuntimeConfig& config) {
  return timeout_s < 0.0 ? config.default_wait_timeout_s : timeout_s;
}
}  // namespace

Status Runtime::wait_all(double timeout_s) {
  const double deadline = resolve_timeout(timeout_s, config_);
  const auto done = [this] {
    return impl_->completed.load(std::memory_order_relaxed) ==
           impl_->submitted.load(std::memory_order_relaxed);
  };
  std::unique_lock lock(impl_->app_mutex);
  if (deadline == 0.0) {
    impl_->app_done_cv.wait(lock, done);
    return Status::Ok();
  }
  if (!impl_->app_done_cv.wait_for(
          lock, std::chrono::duration<double>(deadline), done)) {
    return Unavailable("wait_all timed out");
  }
  return Status::Ok();
}

Status Runtime::wait_app(std::uint64_t instance_id, double timeout_s) {
  const double deadline = resolve_timeout(timeout_s, config_);
  const auto done = [this, instance_id] {
    auto it = impl_->apps.find(instance_id);
    return it == impl_->apps.end() || it->second->finished;
  };
  std::unique_lock lock(impl_->app_mutex);
  if (deadline == 0.0) {
    impl_->app_done_cv.wait(lock, done);
    return Status::Ok();
  }
  if (!impl_->app_done_cv.wait_for(
          lock, std::chrono::duration<double>(deadline), done)) {
    return Unavailable("wait_app timed out");
  }
  return Status::Ok();
}

}  // namespace cedr::rt
