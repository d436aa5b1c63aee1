// Tests for the threaded CEDR runtime: lifecycle, DAG execution, API
// execution, tracing, counters and error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>

#include "cedr/api/impls.h"
#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"

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

  const auto tasks = runtime.trace_log().tasks();
  EXPECT_EQ(tasks.size(), 10u);
  for (const auto& task : tasks) {
    EXPECT_EQ(task.kernel_name, "FFT");
    EXPECT_GE(task.start_time, task.enqueue_time);
    EXPECT_GE(task.end_time, task.start_time);
    EXPECT_EQ(task.app_instance_id, *instance);
  }
  EXPECT_EQ(runtime.counters().get("kernels_enqueued"), 10u);
  EXPECT_EQ(runtime.counters().get("tasks_executed"), 10u);
  EXPECT_EQ(runtime.counters().get("apps_completed"), 1u);
  const auto apps = runtime.trace_log().apps();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_GE(apps[0].execution_time(), 0.0);
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
  EXPECT_EQ(runtime.trace_log().tasks().size(), 40u);
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
  for (task::TaskId id = 0; id < 4; ++id) {
    task::Task t;
    t.id = id;
    t.name = "n" + std::to_string(id);
    t.kernel = platform::KernelId::kGeneric;
    t.problem_size = 1000;
    t.impls = api::make_generic_impls([order, order_mutex, id] {
      std::lock_guard lock(*order_mutex);
      order->push_back(static_cast<int>(id));
    });
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(app->graph.add_edge(0, 2).ok());
  ASSERT_TRUE(app->graph.add_edge(1, 2).ok());
  ASSERT_TRUE(app->graph.add_edge(2, 3).ok());

  auto instance = runtime.submit_dag(app);
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
  EXPECT_EQ(runtime.trace_log().tasks().size(), 4u);
}

TEST(RuntimeDag, RejectsBadDescriptors) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_FALSE(runtime.submit_dag(nullptr).ok());
  auto empty = std::make_shared<task::AppDescriptor>();
  empty->name = "empty";
  EXPECT_FALSE(runtime.submit_dag(empty).ok());
  auto cyclic = std::make_shared<task::AppDescriptor>();
  cyclic->name = "cyclic";
  for (task::TaskId id = 0; id < 2; ++id) {
    task::Task t;
    t.id = id;
    ASSERT_TRUE(cyclic->graph.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(cyclic->graph.add_edge(0, 1).ok());
  ASSERT_TRUE(cyclic->graph.add_edge(1, 0).ok());
  EXPECT_FALSE(runtime.submit_dag(cyclic).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeDag, MixedWithApiApps) {
  Runtime runtime(small_config());
  ASSERT_TRUE(runtime.start().ok());
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "mini_dag";
  for (task::TaskId id = 0; id < 3; ++id) {
    task::Task t;
    t.id = id;
    t.kernel = platform::KernelId::kGeneric;
    t.impls = api::make_generic_impls({}, 1000);
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
    if (id > 0) {
      ASSERT_TRUE(app->graph.add_edge(id - 1, id).ok());
    }
  }
  ASSERT_TRUE(runtime.submit_dag(app).ok());
  ASSERT_TRUE(runtime
                  .submit_api("api_app",
                              [] {
                                std::vector<cedr_cplx> buf(64);
                                (void)CEDR_FFT(buf.data(), buf.data(), 64);
                              })
                  .ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_EQ(runtime.completed_apps(), 2u);
  EXPECT_EQ(runtime.trace_log().tasks().size(), 4u);
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
  const auto rounds = runtime.trace_log().sched_rounds();
  EXPECT_GE(rounds.size(), 1u);
  std::size_t assigned = 0;
  for (const auto& round : rounds) {
    assigned += round.assigned;
    EXPECT_GE(round.decision_time, 0.0);
  }
  EXPECT_EQ(assigned, 4u);
  EXPECT_GT(runtime.runtime_overhead_s(), 0.0);
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
  EXPECT_GT(runtime.counters().get("tasks_on_fft0"), 0u);
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
      auto id = runtime.submit_dag(app);
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
  EXPECT_EQ(runtime.trace_log().tasks().size(), 1u);
  EXPECT_TRUE(runtime.counters().snapshot().empty());
}

}  // namespace
}  // namespace cedr::rt
