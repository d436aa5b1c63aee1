// Soak test: hundreds of dynamically arriving application instances pushed
// through a small heterogeneous platform while a 5% fault plan fires, with
// every completion accounted for — the "zero lost work" contract of the
// retry/quarantine machinery. Also serves as the designated workload for the
// sanitizer builds (tools/run_tsan_tests.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr {
namespace {

constexpr std::size_t kInstances = 500;

rt::RuntimeConfig soak_config() {
  rt::RuntimeConfig config;
  // The paper's ZCU102 shape: 3 worker cores + 1 FFT accelerator (emulated
  // MMIO device), 4 PEs total.
  config.platform = platform::zcu102(/*cpus=*/3, /*ffts=*/1, /*mmults=*/0);
  config.scheduler = "EFT";
  config.fault_plan.seed = 0x50a4;
  config.fault_plan.defaults.fail_prob = 0.05;
  // 5% per-attempt failure with independent retries: 6 attempts drive the
  // terminal-failure probability below 1e-7 per task, so "zero lost
  // completions" is a deterministic expectation at this scale.
  config.fault_plan.policy.max_retries = 5;
  config.fault_plan.policy.quarantine_threshold = 4;
  config.fault_plan.policy.probe_period_s = 2e-3;
  return config;
}

void run_pd() {  // radar-ish: two chained FFTs
  std::vector<cedr_cplx> buf(128);
  buf[1] = cedr_cplx(1.0f, 0.0f);
  ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), buf.size()).ok());
  ASSERT_TRUE(CEDR_IFFT(buf.data(), buf.data(), buf.size()).ok());
}

void run_tx() {  // comms-ish: FFT + element-wise product
  std::vector<cedr_cplx> a(64), b(64, cedr_cplx(1.0f, 0.0f));
  a[1] = cedr_cplx(1.0f, 0.0f);
  ASSERT_TRUE(CEDR_FFT(a.data(), a.data(), a.size()).ok());
  ASSERT_TRUE(CEDR_ZIP(a.data(), b.data(), a.data(), a.size(),
                       CedrZipOp::kMultiply)
                  .ok());
}

void run_ld() {  // vision-ish: small dense matmul
  std::vector<float> a(8 * 8, 0.5f), b(8 * 8, 0.25f), c(8 * 8);
  ASSERT_TRUE(CEDR_MMULT(a.data(), b.data(), c.data(), 8, 8, 8).ok());
}

TEST(StressSoak, FiveHundredInstancesWithFivePercentFaults) {
  rt::Runtime runtime(soak_config());
  ASSERT_TRUE(runtime.start().ok());

  std::atomic<std::size_t> finished{0};
  for (std::size_t i = 0; i < kInstances; ++i) {
    const char* name = i % 3 == 0 ? "PD" : (i % 3 == 1 ? "TX" : "LD");
    auto body = [i, &finished] {
      if (i % 3 == 0) run_pd();
      else if (i % 3 == 1) run_tx();
      else run_ld();
      finished.fetch_add(1, std::memory_order_relaxed);
    };
    auto instance = runtime.submit_api(name, body);
    ASSERT_TRUE(instance.ok()) << "submission " << i << " failed";
    // Dynamic arrival: a steady trickle, not one pre-loaded batch, so the
    // ready queue sees churn while earlier instances retire.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // The soak's core contract: wait_all converges (no deadlock between
  // retries, quarantine probes and app completions) and nothing is lost.
  ASSERT_TRUE(runtime.wait_all(240.0).ok());
  EXPECT_EQ(finished.load(), kInstances);
  EXPECT_EQ(runtime.submitted_apps(), kInstances);
  EXPECT_EQ(runtime.completed_apps(), kInstances);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_GT(runtime.counters().get("faults_injected"), 0u);
  EXPECT_GT(runtime.counters().get("tasks_retried"), 0u);
  EXPECT_EQ(runtime.counters().get("apps_completed"), kInstances);
  EXPECT_TRUE(runtime.shutdown().ok());

  // Trace integrity under churn: timestamps are per-task monotonic and the
  // task count covers at least one attempt per submitted kernel call.
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  const auto spans = runtime.tracer().snapshot();
  const auto tasks = trace::task_executions(spans);
  EXPECT_GE(tasks.size(), kInstances * 2 - kInstances / 3);
  EXPECT_EQ(tasks.size(), runtime.stats().tasks_executed);
  for (const auto& task : tasks) {
    EXPECT_GE(task.start_time, task.enqueue_time);
    EXPECT_GE(task.end_time, task.start_time);
  }

  // The offline report surfaces the fault-tolerance story by name.
  const trace::Report report = trace::summarize(spans, runtime.trace_tracks());
  const std::string text = trace::render_text(report);
  EXPECT_NE(text.find("tasks_retried"), std::string::npos);
  EXPECT_NE(text.find("pes_quarantined"), std::string::npos);
  EXPECT_GE(report.retried_attempts, 1u);
}

TEST(StressSoak, CleanSoakHasNoFaultArtifacts) {
  // Control run: same shape, no fault plan. Guards against the fault
  // machinery perturbing the non-faulting fast path.
  rt::RuntimeConfig config = soak_config();
  config.fault_plan = platform::FaultPlan{};
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  for (std::size_t i = 0; i < 64; ++i) {
    auto instance = runtime.submit_api("TX", [] { run_tx(); });
    ASSERT_TRUE(instance.ok());
  }
  ASSERT_TRUE(runtime.wait_all(120.0).ok());
  EXPECT_EQ(runtime.completed_apps(), 64u);
  EXPECT_EQ(runtime.counters().get("faults_injected"), 0u);
  EXPECT_EQ(runtime.counters().get("tasks_retried"), 0u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_TRUE(runtime.shutdown().ok());
}

}  // namespace
}  // namespace cedr
