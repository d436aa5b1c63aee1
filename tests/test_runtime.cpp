// Tests for the threaded CEDR runtime: lifecycle, DAG execution, API
// execution, tracing, counters and error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "cedr/api/impls.h"
#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr::rt {
namespace {

RuntimeConfig small_config() {
  RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.scheduler = "EFT";
  return config;
}

TEST(RuntimeLifecycle, StartAndShutdown) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_EQ(runtime.submitted_apps(), 0u);
  EXPECT_TRUE(runtime.shutdown().ok());
  // Idempotent shutdown.
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeLifecycle, DoubleStartFails) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_EQ(runtime.start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeLifecycle, BadSchedulerRejected) {
  RuntimeConfig config = small_config();
  config.scheduler = "BOGUS";
  Runtime runtime(config);
  EXPECT_FALSE(runtime.start().ok());
}

TEST(RuntimeLifecycle, BadPlatformRejected) {
  RuntimeConfig config = small_config();
  config.platform.pes.clear();
  Runtime runtime(config);
  EXPECT_FALSE(runtime.start().ok());
}

TEST(RuntimeLifecycle, SubmitBeforeStartFails) {
  Runtime runtime(small_config());
  EXPECT_EQ(runtime.submit_api("x", [] {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RuntimeApi, ExecutesMainOnOwnThreadWithBinding) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  std::atomic<bool> was_attached{false};
  auto instance = runtime.submit_api("probe", [&runtime, &was_attached] {
    was_attached = thread_binding().runtime == &runtime;
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_app(*instance, 30.0).ok());
  EXPECT_TRUE(was_attached.load());
  EXPECT_EQ(runtime.completed_apps(), 1u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeApi, SchedulesKernelCallsAndTracesThem) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("fft_app", [] {
    std::vector<cedr_cplx> buf(128);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), buf.size()).ok());
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  const auto spans = runtime.tracer().snapshot();
  const auto tasks = trace::task_executions(spans);
  EXPECT_EQ(tasks.size(), 10u);
  for (const auto& task : tasks) {
    EXPECT_EQ(task.kernel, "FFT");
    EXPECT_EQ(task.problem_size, 128u);
    EXPECT_TRUE(task.ok);
    EXPECT_GE(task.start_time, task.enqueue_time);
    EXPECT_GE(task.end_time, task.start_time);
    EXPECT_EQ(task.app_instance_id, *instance);
  }
  EXPECT_EQ(runtime.counters().get("kernels_enqueued"), 10u);
  EXPECT_EQ(runtime.counters().get("tasks_executed"), 10u);
  EXPECT_EQ(runtime.counters().get("apps_completed"), 1u);
  const trace::Report report =
      trace::summarize(spans, runtime.trace_tracks());
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_EQ(report.apps[0].name, "fft_app");
  EXPECT_EQ(report.apps[0].tasks, 10u);
  EXPECT_GE(report.apps[0].execution_time, 0.0);
  // The paper's per-app execution time is also a live histogram.
  EXPECT_EQ(runtime.metrics().histogram("app_exec_us").count(), 1u);
}

TEST(RuntimeApi, ManyConcurrentApps) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  std::atomic<int> finished{0};
  constexpr int kApps = 8;
  for (int a = 0; a < kApps; ++a) {
    auto instance = runtime.submit_api("app" + std::to_string(a), [&finished] {
      std::vector<cedr_cplx> buf(64);
      for (int i = 0; i < 5; ++i) {
        (void)CEDR_FFT(buf.data(), buf.data(), buf.size());
      }
      ++finished;
    });
    ASSERT_TRUE(instance.ok());
  }
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_EQ(finished.load(), kApps);
  EXPECT_EQ(runtime.completed_apps(), static_cast<std::uint64_t>(kApps));
  EXPECT_EQ(runtime.stats().tasks_executed, 40u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeApi, EnqueueFromUnboundThreadFails) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  KernelRequest request;
  request.kernel = platform::KernelId::kFft;
  request.problem_size = 64;
  EXPECT_EQ(runtime.enqueue_kernel(std::move(request),
                                   std::make_shared<Completion>())
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeDag, ExecutesGraphRespectingDependencies) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());

  // 0,1 -> 2 -> 3 with order recorded by the task bodies.
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "dag";
  auto order = std::make_shared<std::vector<int>>();
  auto order_mutex = std::make_shared<std::mutex>();
  std::vector<api::ImplArray> impls;
  for (task::TaskId id = 0; id < 4; ++id) {
    task::Task t;
    t.id = id;
    t.name = "n" + std::to_string(id);
    t.kernel = platform::KernelId::kGeneric;
    t.problem_size = 1000;
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
    impls.push_back(api::make_generic_impls([order, order_mutex, id] {
      std::lock_guard lock(*order_mutex);
      order->push_back(static_cast<int>(id));
    }));
  }
  ASSERT_TRUE(app->graph.add_edge(0, 2).ok());
  ASSERT_TRUE(app->graph.add_edge(1, 2).ok());
  ASSERT_TRUE(app->graph.add_edge(2, 3).ok());

  auto instance = runtime.submit_dag(
      DagSubmission{.descriptor = app, .impls = std::move(impls)});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  ASSERT_EQ(order->size(), 4u);
  auto position = [&](int id) {
    return std::find(order->begin(), order->end(), id) - order->begin();
  };
  EXPECT_LT(position(0), position(2));
  EXPECT_LT(position(1), position(2));
  EXPECT_LT(position(2), position(3));
  EXPECT_EQ(runtime.stats().tasks_executed, 4u);
}

TEST(RuntimeDag, RejectsBadDescriptors) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_FALSE(runtime.submit_dag(DagSubmission{}).ok());
  auto empty = std::make_shared<task::AppDescriptor>();
  empty->name = "empty";
  EXPECT_FALSE(
      runtime.submit_dag(DagSubmission{.descriptor = empty, .impls = {}}).ok());
  auto cyclic = std::make_shared<task::AppDescriptor>();
  cyclic->name = "cyclic";
  for (task::TaskId id = 0; id < 2; ++id) {
    task::Task t;
    t.id = id;
    ASSERT_TRUE(cyclic->graph.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(cyclic->graph.add_edge(0, 1).ok());
  ASSERT_TRUE(cyclic->graph.add_edge(1, 0).ok());
  EXPECT_FALSE(runtime
                   .submit_dag(DagSubmission{
                       .descriptor = cyclic,
                       .impls = std::vector<api::ImplArray>(2)})
                   .ok());
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeDag, MixedWithApiApps) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "mini_dag";
  std::vector<api::ImplArray> impls;
  for (task::TaskId id = 0; id < 3; ++id) {
    task::Task t;
    t.id = id;
    t.kernel = platform::KernelId::kGeneric;
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
    impls.push_back(api::make_generic_impls({}, 1000));
    if (id > 0) {
      ASSERT_TRUE(app->graph.add_edge(id - 1, id).ok());
    }
  }
  ASSERT_TRUE(runtime
                  .submit_dag(DagSubmission{.descriptor = app,
                                            .impls = std::move(impls)})
                  .ok());
  ASSERT_TRUE(runtime
                  .submit_api("api_app",
                              [] {
                                std::vector<cedr_cplx> buf(64);
                                (void)CEDR_FFT(buf.data(), buf.data(), 64);
                              })
                  .ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_EQ(runtime.completed_apps(), 2u);
  EXPECT_EQ(runtime.stats().tasks_executed, 4u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeTrace, SchedulingRoundsRecorded) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("app", [] {
    std::vector<cedr_cplx> buf(64);
    for (int i = 0; i < 4; ++i) (void)CEDR_FFT(buf.data(), buf.data(), 64);
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  std::size_t rounds = 0;
  double assigned = 0.0;
  for (const obs::SpanEvent& e : runtime.tracer().snapshot()) {
    if (e.category != obs::Category::kSched ||
        e.kind != obs::EventKind::kComplete) {
      continue;
    }
    ++rounds;
    ASSERT_NE(e.arg1_name, nullptr);
    EXPECT_STREQ(e.arg1_name, "assigned");
    assigned += e.arg1;
    EXPECT_GE(e.dur, 0.0);
  }
  EXPECT_GE(rounds, 1u);
  EXPECT_EQ(assigned, 4.0);
  EXPECT_EQ(runtime.counters().get("sched_rounds"), rounds);
  EXPECT_GT(runtime.runtime_overhead_s(), 0.0);
}

TEST(RuntimeTrace, ReapedNamesStayBoundedByTheRing) {
  // A traced runtime keeps the names of reaped instances for trace export
  // only while their spans can still be in the ring. After many times more
  // instances than a small ring holds, the track table names every pid in
  // the ring yet holds at most ring-capacity reaped names plus live apps.
  RuntimeConfig config = small_config();
  config.obs.ring_capacity = 64;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto chain = std::make_shared<task::AppDescriptor>();
  chain->name = "chain";
  for (task::TaskId id = 0; id < 2; ++id) {
    task::Task t;
    t.id = id;
    t.name = "nop";
    ASSERT_TRUE(chain->graph.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(chain->graph.add_edge(0, 1).ok());
  constexpr std::size_t kBatch = 20;
  constexpr std::size_t kWaves = 20;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<DagSubmission> batch(
        kBatch, DagSubmission{.descriptor = chain,
                              .impls = std::vector<api::ImplArray>(2)});
    for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
      ASSERT_TRUE(result.ok());
    }
    ASSERT_TRUE(runtime.wait_all(30.0).ok());
  }

  const std::vector<obs::SpanEvent> events = runtime.tracer().snapshot();
  const std::vector<obs::TrackName> tracks = runtime.trace_tracks();
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_GT(runtime.tracer().dropped(), 0u);  // the ring wrapped many times
  std::set<std::uint64_t> named;
  for (const obs::TrackName& track : tracks) {
    if (track.is_process && track.pid > 0) named.insert(track.pid);
  }
  for (const obs::SpanEvent& e : events) {
    if (e.pid > 0) {
      EXPECT_EQ(named.count(e.pid), 1u) << "pid " << e.pid;
    }
  }
  // At most kBatch instances are live at a time.
  EXPECT_LE(named.size(), runtime.tracer().capacity() + kBatch)
      << "of " << kBatch * kWaves << " instances";
}

TEST(RuntimeTasks, FailingImplReportsWithoutKillingRuntime) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("failing", [] {
    KernelRequest request;
    request.name = "boom";
    request.kernel = platform::KernelId::kGeneric;
    request.impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
        [](task::ExecContext&) { return Internal("intentional failure"); };
    auto completion = std::make_shared<Completion>();
    ASSERT_TRUE(thread_binding()
                    .runtime->enqueue_kernel(std::move(request), completion)
                    .ok());
    EXPECT_EQ(completion->wait().code(), StatusCode::kInternal);
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 1u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(Completion, SignalAndWaitSemantics) {
  Completion completion;
  EXPECT_FALSE(completion.done());
  EXPECT_EQ(completion.wait_for(0.01).code(), StatusCode::kUnavailable);
  completion.signal(Status::Ok());
  EXPECT_TRUE(completion.done());
  EXPECT_TRUE(completion.wait().ok());
  EXPECT_TRUE(completion.wait_for(0.01).ok());
}

TEST(Runtime, AcceleratorPeExecutesThroughDevice) {
  RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/1, /*ffts=*/1);
  // Make the FFT accelerator irresistible to EFT so it gets used.
  config.platform.costs.set(platform::KernelId::kFft,
                            platform::PeClass::kFftAccel,
                            {.fixed_s = 1e-9});
  config.platform.costs.set_transfer(platform::PeClass::kFftAccel, 0.0, 0.0);
  config.scheduler = "EFT";
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("accel_app", [] {
    std::vector<cedr_cplx> in(256), out(256);
    in[1] = cedr_cplx(1.0f, 0.0f);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 256).ok());
    }
    // Spectral magnitude of a shifted delta is flat 1.
    EXPECT_NEAR(std::abs(out[17]), 1.0f, 1e-4f);
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  const RuntimeStats stats = runtime.stats();
  const auto fft0 = std::find_if(stats.pes.begin(), stats.pes.end(),
                                 [](const auto& pe) { return pe.name == "fft0"; });
  ASSERT_NE(fft0, stats.pes.end());
  EXPECT_GT(fft0->tasks, 0u);
}

TEST(RuntimeDag, UnplaceableTaskRejectedAndShutdownReturns) {
  // host(2, 1) has CPUs and an FFT accelerator but no MMULT accelerator. A
  // task implemented only for that class could never be placed, so it is
  // rejected at submission — its batchmate still runs — and shutdown() has
  // nothing left to wait for. (Admitted, it would hang shutdown forever;
  // the ctest TIMEOUT turns that into a failure.)
  RuntimeConfig config = small_config();
  config.default_wait_timeout_s = 5.0;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  const task::TaskFn noop = [](task::ExecContext&) { return Status::Ok(); };
  api::ImplArray mmult_impls{};
  mmult_impls[static_cast<std::size_t>(platform::PeClass::kMmultAccel)] = noop;
  api::ImplArray generic_impls{};
  generic_impls[static_cast<std::size_t>(platform::PeClass::kCpu)] = noop;
  auto accel_only = std::make_shared<task::AppDescriptor>();
  accel_only->name = "mmult_accel_only";
  task::Task mmult;
  mmult.id = 0;
  mmult.name = "mmult";
  mmult.kernel = platform::KernelId::kMmult;
  mmult.problem_size = 32 * 32 * 32;
  ASSERT_TRUE(accel_only->graph.add_task(mmult).ok());
  auto runnable = std::make_shared<task::AppDescriptor>();
  runnable->name = "generic";
  task::Task generic;
  generic.id = 0;
  generic.name = "generic";
  ASSERT_TRUE(runnable->graph.add_task(generic).ok());

  std::vector<DagSubmission> batch;
  batch.push_back(
      DagSubmission{.descriptor = accel_only, .impls = {mmult_impls}});
  batch.push_back(
      DagSubmission{.descriptor = runnable, .impls = {generic_impls}});
  const auto results = runtime.submit_dag_batch(std::move(batch));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(results[1].ok());

  // The API path applies the same check to each kernel call.
  Status api_status;
  ASSERT_TRUE(runtime
                  .submit_api("api_mmult",
                              [&runtime, &mmult, &mmult_impls, &api_status] {
                                KernelRequest request;
                                request.name = "mmult";
                                request.kernel = mmult.kernel;
                                request.problem_size = mmult.problem_size;
                                request.impls = mmult_impls;
                                api_status = runtime.enqueue_kernel(
                                    std::move(request),
                                    std::make_shared<Completion>());
                              })
                  .ok());
  EXPECT_TRUE(runtime.wait_all().ok());
  EXPECT_EQ(api_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.completed_apps(), 2u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

/// Resident set size of this process, from /proc/self/statm.
double resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  double total_pages = 0.0;
  double resident_pages = 0.0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

TEST(RuntimeMemory, ResidentSetStaysFlatUnderSustainedLoad) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators retain freed memory, so RSS does "
                  "not measure the runtime";
#endif
  // Executed tasks must leave nothing behind: a daemon under sustained load
  // keeps memory flat. No-op GENERIC tasks in 4-task chains, submitted in
  // batches; after a warm-up that fills every pool, 100k more tasks may
  // grow the resident set by less than 32 bytes each.
  RuntimeConfig config = small_config();
  config.obs.tracing = false;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto chain = std::make_shared<task::AppDescriptor>();
  chain->name = "chain";
  for (task::TaskId id = 0; id < 4; ++id) {
    task::Task t;
    t.id = id;
    t.name = "nop";
    ASSERT_TRUE(chain->graph.add_task(std::move(t)).ok());
    if (id > 0) {
      ASSERT_TRUE(chain->graph.add_edge(id - 1, id).ok());
    }
  }
  constexpr std::size_t kBatch = 250;
  const auto run_tasks = [&](std::size_t tasks) {
    for (std::size_t done = 0; done < tasks; done += kBatch * 4) {
      std::vector<DagSubmission> batch(
          kBatch,
          DagSubmission{.descriptor = chain,
                        .impls = std::vector<api::ImplArray>(4)});
      for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
        ASSERT_TRUE(result.ok());
      }
      ASSERT_TRUE(runtime.wait_all(60.0).ok());
    }
  };
  run_tasks(20000);
  const double before = resident_bytes();
  const std::uint64_t executed_before = runtime.stats().tasks_executed;
  run_tasks(100000);
  const double after = resident_bytes();
  const auto executed =
      static_cast<double>(runtime.stats().tasks_executed - executed_before);
  EXPECT_EQ(executed, 100000.0);
  RecordProperty("rss_growth_b_per_task",
                 std::to_string((after - before) / executed));
  EXPECT_LT((after - before) / executed, 32.0)
      << "resident set grew " << (after - before) / 1e6 << " MB over "
      << executed << " tasks";
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeSched, HostEftAvailabilityLeadStaysBounded) {
  // The host preset prices kernels with nominal ZCU102 costs, milliseconds
  // for a 2048-point FFT, while these tasks have no implementation and end
  // in microseconds. Without re-grounding on completion every placement
  // pushes its PE's availability out by the nominal cost, and the lead over
  // the clock grows by seconds per second of load.
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "fanout";
  constexpr task::TaskId kWidth = 8;
  for (task::TaskId id = 0; id < kWidth; ++id) {
    task::Task t;
    t.id = id;
    t.name = "fft" + std::to_string(id);
    t.kernel = platform::KernelId::kFft;
    t.problem_size = 2048;
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
  }
  std::vector<std::uint64_t> window;
  double max_lead = 0.0;
  std::uint64_t instances = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < deadline) {
    while (window.size() < 8) {
      auto id = runtime.submit_dag(DagSubmission{
          .descriptor = app, .impls = std::vector<api::ImplArray>(kWidth)});
      ASSERT_TRUE(id.ok());
      window.push_back(*id);
    }
    ASSERT_TRUE(runtime.wait_app(window.front(), 30.0).ok());
    window.erase(window.begin());
    ++instances;
    max_lead = std::max(max_lead, runtime.stats().avail_lead_s);
  }
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_GT(instances, 100u);
  // Bounded by the estimates of the work still queued on a PE: a few
  // instances' worth of nominal cost, not the run's accumulated surplus.
  EXPECT_LT(max_lead, 0.1) << instances << " instances";
}

}  // namespace
}  // namespace cedr::rt

namespace cedr::rt {
namespace {

TEST(RuntimeCounters, DisabledByConfiguration) {
  RuntimeConfig config;
  config.platform = platform::host(1);
  config.enable_counters = false;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("quiet", [] {
    std::vector<cedr_cplx> buf(64);
    (void)CEDR_FFT(buf.data(), buf.data(), 64);
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  // Tracing still works; the PAPI-substitute counters stay silent.
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  EXPECT_EQ(trace::task_executions(runtime.tracer().snapshot()).size(), 1u);
  EXPECT_TRUE(runtime.counters().snapshot().empty());
}

}  // namespace
}  // namespace cedr::rt

namespace cedr::rt {
namespace {

// Round ownership (docs/scheduling.md "Round ownership"): the thread that
// publishes work runs the round, so nothing may wait on the main loop's tick.

/// A `length`-task chain of impl-less (no-op) tasks.
std::shared_ptr<task::AppDescriptor> nop_chain(std::size_t length) {
  auto chain = std::make_shared<task::AppDescriptor>();
  chain->name = "chain";
  for (task::TaskId id = 0; id < length; ++id) {
    task::Task t;
    t.id = id;
    t.name = "nop";
    EXPECT_TRUE(chain->graph.add_task(std::move(t)).ok());
    if (id > 0) {
      EXPECT_TRUE(chain->graph.add_edge(id - 1, id).ok());
    }
  }
  return chain;
}

/// An API app main making `calls` blocking 64-point FFT calls, counting
/// the successful ones in `ok`.
std::function<void()> fft_calls(int calls, std::atomic<int>& ok) {
  return [calls, &ok] {
    std::vector<cedr_cplx> buf(64);
    for (int i = 0; i < calls; ++i) {
      if (CEDR_FFT(buf.data(), buf.data(), 64).ok()) ++ok;
    }
  };
}

TEST(RuntimeOwner, PublishersNeverWaitOnTheTick) {
  // A 30 s period means the main loop's tick never fires during the test:
  // every round has to be run by a publisher — an API app thread, a worker
  // reporting completions, or a DAG submitter. A hand-off lost between a
  // publisher and an owner leaves work stranded until the 5 s deadline.
  RuntimeConfig config = small_config();
  config.scheduler_period_s = 30.0;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  constexpr int kApps = 4;
  constexpr int kCalls = 100;
  constexpr std::size_t kChains = 200;
  constexpr std::size_t kChainTasks = 4;
  std::atomic<int> calls_ok{0};
  for (int a = 0; a < kApps; ++a) {
    ASSERT_TRUE(runtime
                    .submit_api("app" + std::to_string(a),
                                fft_calls(kCalls, calls_ok))
                    .ok());
  }
  const auto chain = nop_chain(kChainTasks);
  std::vector<std::thread> submitters;
  std::atomic<std::size_t> admitted{0};
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&runtime, &chain, &admitted] {
      // 10 batches of 10 chains per thread.
      for (int b = 0; b < 10; ++b) {
        std::vector<DagSubmission> batch(
            kChains / 20,
            DagSubmission{.descriptor = chain,
                          .impls = std::vector<api::ImplArray>(kChainTasks)});
        for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
          if (result.ok()) ++admitted;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(admitted.load(), kChains);
  ASSERT_TRUE(runtime.wait_all(5.0).ok())
      << runtime.completed_apps() << " of " << runtime.submitted_apps()
      << " instances completed";
  EXPECT_EQ(calls_ok.load(), kApps * kCalls);
  EXPECT_EQ(runtime.stats().tasks_executed,
            static_cast<std::uint64_t>(kApps * kCalls) + kChains * kChainTasks);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeOwner, ApiAppFinishesAtItsLastNonBlockingCompletion) {
  // main returns while its kernel is still running: the app must stay open
  // until that kernel's completion is processed, and finish right then —
  // with a 30 s period, not on a main-loop sweep.
  RuntimeConfig config = small_config();
  config.scheduler_period_s = 30.0;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> main_returned{false};
  auto completion = std::make_shared<Completion>();
  auto instance = runtime.submit_api("nb", [&] {
    KernelRequest request;
    request.name = "gated";
    request.impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
        [opened](task::ExecContext&) {
          opened.wait();
          return Status::Ok();
        };
    EXPECT_TRUE(runtime.enqueue_kernel(std::move(request), completion).ok());
    main_returned = true;
  });
  ASSERT_TRUE(instance.ok());
  for (int i = 0; i < 500 && !main_returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(main_returned.load());
  EXPECT_EQ(runtime.wait_app(*instance, 0.1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(runtime.completed_apps(), 0u);
  gate.set_value();
  EXPECT_TRUE(completion->wait_for(5.0).ok());
  ASSERT_TRUE(runtime.wait_app(*instance, 5.0).ok());
  EXPECT_EQ(runtime.completed_apps(), 1u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeOwner, ConcurrentPublishersUnderTransientFaults) {
  // Submitters, API app threads and workers all publish while a tenth of
  // the attempts fail and are retried on a backoff that only the tick
  // releases. Every instance completes, and every attempt is accounted
  // for: one per task plus one per retry.
  RuntimeConfig config = small_config();
  config.fault_plan.seed = 33;
  config.fault_plan.defaults.fail_prob = 0.1;
  config.fault_plan.policy.max_retries = 8;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  constexpr int kApps = 3;
  constexpr int kCalls = 40;
  constexpr std::size_t kChainTasks = 4;
  constexpr int kSubmitters = 2;
  constexpr int kBatches = 20;
  constexpr std::size_t kBatch = 5;
  std::atomic<int> calls_ok{0};
  for (int a = 0; a < kApps; ++a) {
    ASSERT_TRUE(runtime
                    .submit_api("app" + std::to_string(a),
                                fft_calls(kCalls, calls_ok))
                    .ok());
  }
  const auto chain = nop_chain(kChainTasks);
  // CPU-only implementations: failed-class narrowing must not steer an
  // unconstrained GENERIC task onto the FFT class, which cannot run it.
  const std::vector<api::ImplArray> cpu_impls(kChainTasks,
                                              api::make_generic_impls({}));
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&runtime, &chain, &cpu_impls] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<DagSubmission> batch(
            kBatch, DagSubmission{.descriptor = chain, .impls = cpu_impls});
        for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
          EXPECT_TRUE(result.ok());
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  constexpr std::uint64_t kInstances = kApps + kSubmitters * kBatches * kBatch;
  constexpr std::uint64_t kTasks =
      kApps * kCalls + kSubmitters * kBatches * kBatch * kChainTasks;
  EXPECT_EQ(runtime.completed_apps(), kInstances);
  EXPECT_EQ(calls_ok.load(), kApps * kCalls);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_GT(runtime.counters().get("tasks_retried"), 0u);
  EXPECT_EQ(runtime.counters().get("tasks_executed"),
            kTasks + runtime.counters().get("tasks_retried"));
  EXPECT_EQ(runtime.stats().tasks_executed,
            runtime.counters().get("tasks_executed"));
}

TEST(RuntimeOwner, ImplLessChainsSurviveCpuFaults) {
  // An implementation-less GENERIC task may run on any class, but only the
  // CPUs of host(2,1) can run GENERIC. After a CPU failure its retry must
  // go back to the CPUs, not be narrowed to the FFT accelerator, where no
  // round could ever place it and shutdown() would wait on it forever.
  RuntimeConfig config = small_config();
  config.fault_plan.seed = 34;
  config.fault_plan.per_pe["cpu0"].fail_prob = 0.1;
  config.fault_plan.per_pe["cpu1"].fail_prob = 0.1;
  config.fault_plan.policy.max_retries = 8;
  Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  constexpr std::size_t kChainTasks = 4;
  constexpr std::size_t kChains = 100;
  const auto chain = nop_chain(kChainTasks);
  std::vector<DagSubmission> batch(
      kChains,
      DagSubmission{.descriptor = chain,
                    .impls = std::vector<api::ImplArray>(kChainTasks)});
  for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
    ASSERT_TRUE(result.ok());
  }
  ASSERT_TRUE(runtime.wait_all(30.0).ok())
      << runtime.completed_apps() << " of " << runtime.submitted_apps()
      << " instances completed";
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.completed_apps(), kChains);
  EXPECT_GT(runtime.counters().get("tasks_retried"), 0u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_EQ(runtime.counters().get("tasks_executed"),
            kChains * kChainTasks + runtime.counters().get("tasks_retried"));
}

}  // namespace
}  // namespace cedr::rt
