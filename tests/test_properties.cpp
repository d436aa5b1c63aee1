// Property-based and stress tests across module boundaries: randomized
// DAGs through the threaded runtime, randomized API workloads checked
// against kernel oracles, emulator invariants over random workload sweeps,
// and JSON parser robustness under mutation.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "cedr/api/impls.h"
#include "cedr/cedr.h"
#include "cedr/common/rng.h"
#include "cedr/json/json.h"
#include "cedr/kernels/fft.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"
#include "cedr/sim/model.h"
#include "cedr/sim/simulator.h"
#include "cedr/workload/workload.h"

namespace cedr {
namespace {

// ---- Random DAGs through the threaded runtime -------------------------------

class RandomDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperty, RuntimeRespectsAllDependencies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const std::size_t node_count = 10 + rng.next_below(30);

  // Random DAG: each node depends on a random subset of earlier nodes.
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "random_dag";
  auto completion_order = std::make_shared<std::vector<task::TaskId>>();
  auto order_mutex = std::make_shared<std::mutex>();
  std::vector<std::pair<task::TaskId, task::TaskId>> edges;
  std::vector<api::ImplArray> impls;
  for (task::TaskId id = 0; id < node_count; ++id) {
    task::Task t;
    t.id = id;
    t.name = "n" + std::to_string(id);
    t.kernel = platform::KernelId::kGeneric;
    t.problem_size = 500 + rng.next_below(2000);
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
    impls.push_back(
        api::make_generic_impls([completion_order, order_mutex, id] {
          std::lock_guard lock(*order_mutex);
          completion_order->push_back(id);
        }));
    if (id > 0) {
      const std::size_t preds = rng.next_below(std::min<std::uint64_t>(id, 3)) +
                                (rng.next_below(2) == 0 ? 1 : 0);
      for (std::size_t p = 0; p < preds; ++p) {
        const task::TaskId from = rng.next_below(id);
        if (app->graph.add_edge(from, id).ok()) edges.emplace_back(from, id);
      }
    }
  }

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = GetParam() % 2 == 0 ? "EFT" : "HEFT_RT";
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime
                  .submit_dag(rt::DagSubmission{.descriptor = app,
                                                .impls = std::move(impls)})
                  .ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  // Every node completed exactly once, and every edge is respected in the
  // observed completion order.
  ASSERT_EQ(completion_order->size(), node_count);
  std::vector<std::size_t> position(node_count);
  std::vector<bool> seen(node_count, false);
  for (std::size_t i = 0; i < completion_order->size(); ++i) {
    const task::TaskId id = (*completion_order)[i];
    ASSERT_LT(id, node_count);
    EXPECT_FALSE(seen[id]) << "node executed twice";
    seen[id] = true;
    position[id] = i;
  }
  for (const auto& [from, to] : edges) {
    EXPECT_LT(position[from], position[to])
        << "edge " << from << "->" << to << " violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, ::testing::Range(0, 6));

// ---- Random API workloads against the kernel oracle -------------------------

class RandomApiWorkload : public ::testing::TestWithParam<int> {};

TEST_P(RandomApiWorkload, ScheduledResultsMatchOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());

  constexpr std::size_t kCalls = 24;
  struct Call {
    std::vector<cedr_cplx> input;
    std::vector<cedr_cplx> output;
    bool inverse;
  };
  auto calls = std::make_shared<std::vector<Call>>(kCalls);
  for (auto& call : *calls) {
    const std::size_t n = 32u << rng.next_below(4);  // 32..256
    call.input.resize(n);
    call.output.resize(n);
    for (auto& v : call.input) {
      v = cedr_cplx(static_cast<float>(rng.uniform(-1, 1)),
                    static_cast<float>(rng.uniform(-1, 1)));
    }
    call.inverse = rng.next_below(2) == 1;
  }

  auto instance = runtime.submit_api("random_api", [calls] {
    std::vector<cedr_handle_t> handles;
    handles.reserve(calls->size());
    for (auto& call : *calls) {
      cedr_handle_t handle =
          call.inverse
              ? CEDR_IFFT_NB(call.input.data(), call.output.data(),
                             call.input.size())
              : CEDR_FFT_NB(call.input.data(), call.output.data(),
                            call.input.size());
      ASSERT_NE(handle, nullptr);
      handles.push_back(handle);
    }
    ASSERT_TRUE(CEDR_BARRIER(handles.data(), handles.size()).ok());
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  for (const auto& call : *calls) {
    std::vector<cedr_cplx> expected(call.input.size());
    ASSERT_TRUE(kernels::fft(call.input, expected, call.inverse).ok());
    EXPECT_LT(max_abs_diff(call.output, expected), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomApiWorkload, ::testing::Range(0, 4));

// ---- Emulator invariants over randomized workloads ---------------------------

class SimInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SimInvariants, HoldAcrossRandomConfigurations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const sim::SimApp pd = sim::make_pulse_doppler_model(rng.next_below(2) == 1);
  const sim::SimApp tx = sim::make_wifi_tx_model(rng.next_below(2) == 1);

  sim::SimConfig config;
  const std::size_t which = rng.next_below(3);
  if (which == 0) {
    config.platform = platform::zcu102(1 + rng.next_below(3),
                                       rng.next_below(9), rng.next_below(2));
  } else if (which == 1) {
    config.platform = platform::jetson(1 + rng.next_below(7), 1);
  } else {
    config.platform =
        platform::biglittle(1 + rng.next_below(2), rng.next_below(5),
                            rng.next_below(4));
  }
  const auto names = sched::scheduler_names();
  config.scheduler = std::string(names[rng.next_below(names.size())]);
  config.model = rng.next_below(2) == 0 ? sim::ProgrammingModel::kDagBased
                                        : sim::ProgrammingModel::kApiBased;

  std::vector<sim::Arrival> arrivals;
  const std::size_t pd_n = 1 + rng.next_below(4);
  const std::size_t tx_n = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < pd_n; ++i) {
    arrivals.push_back({&pd, rng.uniform(0.0, 30e-3)});
  }
  for (std::size_t i = 0; i < tx_n; ++i) {
    arrivals.push_back({&tx, rng.uniform(0.0, 30e-3)});
  }

  const auto metrics = sim::simulate(config, arrivals);
  ASSERT_TRUE(metrics.ok()) << config.scheduler << " on "
                            << config.platform.name;
  // Conservation and ordering invariants.
  EXPECT_EQ(metrics->apps, pd_n + tx_n);
  const std::size_t expected_tasks =
      config.model == sim::ProgrammingModel::kDagBased
          ? pd_n * pd.dag_task_count() + tx_n * tx.dag_task_count()
          : pd_n * pd.kernel_call_count() + tx_n * tx.kernel_call_count();
  EXPECT_EQ(metrics->tasks_executed, expected_tasks);
  EXPECT_GT(metrics->avg_execution_time, 0.0);
  EXPECT_GE(metrics->makespan, metrics->avg_execution_time);
  EXPECT_GE(metrics->runtime_overhead, 0.0);
  EXPECT_GE(metrics->total_sched_time, 0.0);
  ASSERT_EQ(metrics->pe_busy.size(), config.platform.pes.size());
  for (const double busy : metrics->pe_busy) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, metrics->makespan * 3.5 + 1e-9);  // occupancy-bounded
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimInvariants, ::testing::Range(0, 12));

// ---- Scheduler invariants under faults ---------------------------------------

class QuarantineInvariant : public ::testing::TestWithParam<int> {};

TEST_P(QuarantineInvariant, NoHeuristicAssignsToQuarantinedPe) {
  // Randomized ready queues and quarantine patterns: no heuristic may ever
  // place a task on a PE the runtime marked quarantined.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  const auto platform = platform::zcu102(1 + rng.next_below(4),
                                         1 + rng.next_below(2),
                                         rng.next_below(2));
  for (const std::string_view name : sched::scheduler_names()) {
    auto scheduler = sched::make_scheduler(name);
    ASSERT_TRUE(scheduler.ok());
    for (int round = 0; round < 20; ++round) {
      std::vector<sched::ReadyTask> ready;
      const std::size_t q_len = 1 + rng.next_below(12);
      for (std::size_t q = 0; q < q_len; ++q) {
        const bool fft = rng.next_below(2) == 0;
        ready.push_back(sched::ReadyTask{
            .task_key = q + 1,
            .app_instance_id = rng.next_below(4),
            .kernel = fft ? platform::KernelId::kFft
                          : platform::KernelId::kGeneric,
            .problem_size = 64u << rng.next_below(4),
            .data_bytes = 1024,
            .ready_time = 0.0,
            .rank = rng.uniform(0.0, 1.0),
            .class_mask = 0xffffffffu,
        });
      }
      std::vector<sched::PeState> pes;
      for (std::size_t i = 0; i < platform.pes.size(); ++i) {
        pes.push_back(sched::PeState{
            .pe_index = i,
            .cls = platform.pes[i].cls,
            .available_time = rng.uniform(0.0, 1e-3),
            .speed = platform.pes[i].speed_factor,
            .quarantined = rng.next_below(3) == 0,
        });
      }
      const sched::ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
      const sched::ScheduleResult result =
          (*scheduler)->schedule(ready, pes, ctx);
      for (const sched::Assignment& a : result.assignments) {
        EXPECT_FALSE(pes[a.pe_index].quarantined)
            << name << " assigned task to quarantined PE "
            << platform.pes[a.pe_index].name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuarantineInvariant, ::testing::Range(0, 6));

class RetryBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(RetryBoundProperty, AttemptsNeverExceedPolicyBound) {
  // Under an aggressive random fault plan, no task execution in the trace
  // may carry an attempt index beyond the policy's retry bound, and every
  // app must still finish (retry exhaustion surfaces as a status, not a
  // hang).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = GetParam() % 2 == 0 ? "EFT" : "RR";
  config.fault_plan.seed = rng.next_u64();
  config.fault_plan.defaults.fail_prob = 0.35;
  config.fault_plan.policy.max_retries = 1 + rng.next_below(3);
  config.fault_plan.policy.backoff_base_s = 50e-6;
  config.fault_plan.policy.quarantine_threshold = 2 + rng.next_below(3);
  config.fault_plan.policy.probe_period_s = 1e-3;
  const std::uint32_t bound = config.fault_plan.policy.max_retries;

  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  for (int a = 0; a < 6; ++a) {
    auto instance = runtime.submit_api("flaky", [] {
      std::vector<cedr_cplx> buf(64);
      for (int i = 0; i < 8; ++i) {
        (void)CEDR_FFT(buf.data(), buf.data(), buf.size());
      }
    });
    ASSERT_TRUE(instance.ok());
  }
  ASSERT_TRUE(runtime.wait_all(120.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  for (const auto& task :
       trace::task_executions(runtime.tracer().snapshot())) {
    EXPECT_LE(task.attempt, bound)
        << "retry bound exceeded on " << config.platform.pes[task.pe_index].name;
  }
  EXPECT_EQ(runtime.completed_apps(), 6u);
  const std::uint64_t recovered = runtime.counters().get("tasks_recovered");
  const std::uint64_t failed = runtime.counters().get("tasks_failed");
  const std::uint64_t retried = runtime.counters().get("tasks_retried");
  // Every retry either eventually recovers or terminates in a bounded
  // failure; retried counts attempts, so it is at least the number of
  // tasks that needed any retry and at most bound * that.
  EXPECT_GE(retried, recovered + failed > 0 ? 1u : 0u);
  EXPECT_LE(failed * 1u, runtime.stats().tasks_executed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryBoundProperty, ::testing::Range(0, 4));

// ---- JSON parser robustness under mutation -----------------------------------

TEST(JsonFuzzLite, MutatedDocumentsNeverCrash) {
  const std::string base =
      R"({"app_name":"x","tasks":[{"id":0,"kernel":"FFT","size":256,)"
      R"("bytes":4096,"predecessors":[]},{"id":1,"predecessors":[0]}]})";
  Rng rng(99);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = base;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(rng.next_below(94) + 33);
          break;
        case 1:  // delete a character
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a character
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
      if (mutated.empty()) break;
    }
    // Must either parse to a value or return a clean error; never crash.
    const auto parsed = json::parse(mutated);
    if (parsed.ok()) {
      (void)parsed->dump();  // serializer must handle whatever parsed
    }
  }
  SUCCEED();
}

// ---- Workload determinism across the full stack ------------------------------

TEST(WorkloadProperty, SweepIsMonotoneInWorkloadSize) {
  // More instances of the same app at the same rate can only increase (or
  // hold) the makespan.
  const sim::SimApp pd = sim::make_pulse_doppler_model();
  sim::SimConfig config;
  config.platform = platform::zcu102(3, 1, 0);
  double previous = 0.0;
  for (const std::size_t instances : {1u, 3u, 6u}) {
    const workload::Stream stream{.app = &pd, .instances = instances};
    auto result = workload::run_point(config, {&stream, 1}, 500.0, 2, 7);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->mean.makespan, previous - 1e-9);
    previous = result->mean.makespan;
  }
}

}  // namespace
}  // namespace cedr
