// Tests for the fault-injection subsystem: deterministic FaultPlan streams,
// scripted events, bounded retry onto an alternate PE type, quarantine with
// probe-based reinstatement, and graceful CPU fallback for quarantined
// accelerators (bit-identical results through the same dispatch table).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "cedr/cedr.h"
#include "cedr/platform/fault.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sim/model.h"
#include "cedr/sim/simulator.h"

namespace cedr {
namespace {

using platform::FaultKind;
using platform::FaultPlan;
using platform::FaultSpec;
using platform::ScriptedFault;

// ---- FaultPlan / FaultInjector determinism --------------------------------

FaultPlan noisy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.defaults.fail_prob = 0.2;
  plan.defaults.hang_prob = 0.1;
  plan.defaults.latency_prob = 0.3;
  return plan;
}

std::vector<FaultKind> draw_sequence(const FaultPlan& plan,
                                     const platform::PlatformConfig& platform,
                                     std::size_t pe_index, std::size_t count) {
  platform::FaultInjector injector(plan, platform.pes);
  std::vector<FaultKind> kinds;
  kinds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    kinds.push_back(injector.next(pe_index).kind);
  }
  return kinds;
}

TEST(FaultInjector, SameSeedReproducesSameSequence) {
  const auto platform = platform::host(2, 1);
  const FaultPlan plan = noisy_plan(0xfeedu);
  for (std::size_t pe = 0; pe < platform.pes.size(); ++pe) {
    EXPECT_EQ(draw_sequence(plan, platform, pe, 500),
              draw_sequence(plan, platform, pe, 500))
        << "stream for PE " << pe << " is not reproducible";
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const auto platform = platform::host(2, 1);
  EXPECT_NE(draw_sequence(noisy_plan(1), platform, 0, 500),
            draw_sequence(noisy_plan(2), platform, 0, 500));
}

TEST(FaultInjector, StreamsAreIndependentPerPe) {
  // A PE's stream depends only on (seed, PE name, ordinal): interleaving
  // draws across PEs must not change any individual sequence.
  const auto platform = platform::host(2, 1);
  const FaultPlan plan = noisy_plan(0xabcdu);
  platform::FaultInjector interleaved(plan, platform.pes);
  std::vector<std::vector<FaultKind>> seqs(platform.pes.size());
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t pe = 0; pe < platform.pes.size(); ++pe) {
      seqs[pe].push_back(interleaved.next(pe).kind);
    }
  }
  for (std::size_t pe = 0; pe < platform.pes.size(); ++pe) {
    EXPECT_EQ(seqs[pe], draw_sequence(plan, platform, pe, 200));
    EXPECT_EQ(interleaved.decided(pe), 200u);
  }
}

TEST(FaultInjector, ScriptedEventOverridesWithoutShiftingStream) {
  const auto platform = platform::host(1);
  FaultPlan quiet;  // no probabilistic faults at all
  quiet.seed = 99;
  FaultPlan scripted = quiet;
  scripted.scripted.push_back(
      ScriptedFault{.pe = "cpu0", .task_index = 5, .kind = FaultKind::kDeviceHang});
  const auto base = draw_sequence(quiet, platform, 0, 10);
  const auto with = draw_sequence(scripted, platform, 0, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 5) {
      EXPECT_EQ(with[i], FaultKind::kDeviceHang);
    } else {
      EXPECT_EQ(with[i], base[i]) << "ordinal " << i << " shifted";
    }
  }
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan = noisy_plan(0x1234u);
  plan.per_pe["fft0"] = FaultSpec{.fail_prob = 1.0};
  plan.scripted.push_back(
      ScriptedFault{.pe = "cpu1", .task_index = 7, .kind = FaultKind::kLatencySpike});
  plan.policy.max_retries = 5;
  plan.policy.quarantine_threshold = 2;
  auto parsed = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->seed, plan.seed);
  EXPECT_DOUBLE_EQ(parsed->defaults.fail_prob, plan.defaults.fail_prob);
  ASSERT_EQ(parsed->per_pe.count("fft0"), 1u);
  EXPECT_DOUBLE_EQ(parsed->per_pe.at("fft0").fail_prob, 1.0);
  ASSERT_EQ(parsed->scripted.size(), 1u);
  EXPECT_EQ(parsed->scripted[0].pe, "cpu1");
  EXPECT_EQ(parsed->scripted[0].task_index, 7u);
  EXPECT_EQ(parsed->scripted[0].kind, FaultKind::kLatencySpike);
  EXPECT_EQ(parsed->policy.max_retries, 5u);
  EXPECT_EQ(parsed->policy.quarantine_threshold, 2u);
}

TEST(FaultPlan, ValidateRejectsBadValues) {
  FaultPlan plan;
  plan.defaults.fail_prob = 1.5;
  EXPECT_FALSE(plan.validate().ok());
  plan.defaults.fail_prob = -0.1;
  EXPECT_FALSE(plan.validate().ok());
  plan.defaults.fail_prob = 0.5;
  plan.policy.backoff_factor = 0.0;
  EXPECT_FALSE(plan.validate().ok());
}

// ---- threaded runtime: retry / quarantine / fallback ----------------------

/// A host platform where EFT finds the FFT accelerator irresistible, so FFT
/// work lands on fft0 first and the fault path gets exercised.
rt::RuntimeConfig accel_config() {
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.platform.costs.set(platform::KernelId::kFft,
                            platform::PeClass::kFftAccel, {.fixed_s = 1e-9});
  config.platform.costs.set_transfer(platform::PeClass::kFftAccel, 0.0, 0.0);
  config.scheduler = "EFT";
  return config;
}

TEST(RuntimeFaults, RetryLandsOnAlternatePeType) {
  rt::RuntimeConfig config = accel_config();
  // fft0 always fails; CPUs are clean. Every FFT first fails on the
  // accelerator, then the retry's narrowed class mask routes it to a CPU.
  config.fault_plan.per_pe["fft0"] = FaultSpec{.fail_prob = 1.0};
  config.fault_plan.policy.quarantine_threshold = 0;  // isolate retry logic
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("retry_app", [] {
    std::vector<cedr_cplx> in(256), out(256);
    in[1] = cedr_cplx(1.0f, 0.0f);
    ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 256).ok());
    // Spectral magnitude of a shifted delta is flat 1: the retried result
    // is numerically correct, not just "some status".
    for (std::size_t k = 0; k < 256; k += 17) {
      EXPECT_NEAR(std::abs(out[k]), 1.0f, 1e-4f);
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  EXPECT_GE(runtime.counters().get("faults_injected"), 1u);
  EXPECT_GE(runtime.counters().get("tasks_retried"), 1u);
  EXPECT_GE(runtime.counters().get("tasks_recovered"), 1u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  // The failed attempt ran on fft0; the successful one must not have.
  bool saw_failed_on_fft = false;
  bool saw_recovery_elsewhere = false;
  for (const auto& task : runtime.trace_log().tasks()) {
    if (!task.ok) saw_failed_on_fft |= task.pe_name == "fft0";
    if (task.ok && task.attempt > 0) {
      saw_recovery_elsewhere |= task.pe_name != "fft0";
    }
  }
  EXPECT_TRUE(saw_failed_on_fft);
  EXPECT_TRUE(saw_recovery_elsewhere);
  // Recovered tasks feed the retry-latency histogram.
  EXPECT_GE(runtime.trace_log().retry_latency().count(), 1u);
}

TEST(RuntimeFaults, QuarantineAfterConsecutiveFaults) {
  rt::RuntimeConfig config = accel_config();
  config.fault_plan.per_pe["fft0"] = FaultSpec{.fail_prob = 1.0};
  config.fault_plan.policy.quarantine_threshold = 2;
  config.fault_plan.policy.probe_period_s = 1000.0;  // never reinstated here
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("quarantine_app", [] {
    std::vector<cedr_cplx> in(128), out(128);
    in[1] = cedr_cplx(1.0f, 0.0f);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 128).ok());
      EXPECT_NEAR(std::abs(out[5]), 1.0f, 1e-4f);
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());

  EXPECT_GE(runtime.counters().get("pes_quarantined"), 1u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  bool fft_quarantined = false;
  for (const rt::PeHealth& pe : runtime.pe_health()) {
    if (pe.pe_name == "fft0") {
      fft_quarantined = pe.quarantined;
      EXPECT_GE(pe.quarantines, 1u);
      EXPECT_GE(pe.faults_seen, 2u);
    }
  }
  EXPECT_TRUE(fft_quarantined);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeFaults, ProbeReinstatesRecoveredPe) {
  rt::RuntimeConfig config = accel_config();
  // The accelerator fails its first three tasks (a transient brown-out),
  // then behaves: the probe task after quarantine must reinstate it.
  for (std::uint64_t i = 0; i < 3; ++i) {
    config.fault_plan.scripted.push_back(ScriptedFault{
        .pe = "fft0", .task_index = i, .kind = FaultKind::kTransientFail});
  }
  config.fault_plan.policy.quarantine_threshold = 3;
  config.fault_plan.policy.probe_period_s = 1e-3;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("probe_app", [] {
    std::vector<cedr_cplx> in(128), out(128);
    in[1] = cedr_cplx(1.0f, 0.0f);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 128).ok());
      // Keep the app alive past the probe window so the reinstated PE
      // actually sees post-recovery work.
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());

  EXPECT_GE(runtime.counters().get("pes_quarantined"), 1u);
  EXPECT_GE(runtime.counters().get("pes_reinstated"), 1u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  for (const rt::PeHealth& pe : runtime.pe_health()) {
    if (pe.pe_name == "fft0") {
      EXPECT_FALSE(pe.quarantined);
    }
  }
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeFaults, RetriesExhaustedSurfaceTerminalFailure) {
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2);
  config.scheduler = "EFT";
  config.fault_plan.defaults.fail_prob = 1.0;  // every PE always fails
  config.fault_plan.policy.max_retries = 2;
  config.fault_plan.policy.quarantine_threshold = 0;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("doomed", [] {
    std::vector<cedr_cplx> buf(64);
    EXPECT_FALSE(CEDR_FFT(buf.data(), buf.data(), 64).ok());
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  // 1 first attempt + 2 retries, then the failure becomes visible.
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 1u);
  EXPECT_EQ(runtime.counters().get("tasks_retried"), 2u);
  EXPECT_GE(runtime.counters().get("faults_injected"), 3u);
  EXPECT_EQ(runtime.counters().get("tasks_recovered"), 0u);
}

TEST(RuntimeFaults, MmultFallbackMatchesCpuGolden) {
  constexpr std::size_t kM = 12, kK = 9, kN = 7;
  std::vector<float> a(kM * kK), b(kK * kN);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(0.37f * static_cast<float>(i));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = std::cos(0.53f * static_cast<float>(i));
  }

  auto run_once = [&](bool faulty, std::vector<float>& c) {
    rt::RuntimeConfig config;
    config.platform = platform::host(/*cpus=*/2, /*ffts=*/0, /*mmults=*/1);
    config.platform.costs.set(platform::KernelId::kMmult,
                              platform::PeClass::kMmultAccel,
                              {.fixed_s = 1e-9});
    config.platform.costs.set_transfer(platform::PeClass::kMmultAccel, 0.0,
                                       0.0);
    config.scheduler = "EFT";
    if (faulty) {
      config.fault_plan.per_pe["mmult0"] = FaultSpec{.fail_prob = 1.0};
      config.fault_plan.policy.quarantine_threshold = 1;
      config.fault_plan.policy.probe_period_s = 1000.0;
    }
    rt::Runtime runtime(config);
    ASSERT_TRUE(runtime.start().ok());
    auto instance = runtime.submit_api("mmult_app", [&] {
      ASSERT_TRUE(CEDR_MMULT(a.data(), b.data(), c.data(), kM, kK, kN).ok());
    });
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(runtime.wait_all(60.0).ok());
    ASSERT_TRUE(runtime.shutdown().ok());
    if (faulty) {
      EXPECT_GE(runtime.counters().get("pes_quarantined"), 1u);
      EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
    } else {
      EXPECT_EQ(runtime.counters().get("faults_injected"), 0u);
    }
  };

  std::vector<float> golden(kM * kN, -1.0f), fallback(kM * kN, -2.0f);
  run_once(/*faulty=*/false, golden);
  run_once(/*faulty=*/true, fallback);
  // The fallback runs the *same* CPU implementation the clean run used, so
  // the result is bit-identical, not merely close.
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i], fallback[i]) << "element " << i;
  }
}

TEST(RuntimeFaults, DeviceHangRecoversThroughWatchdog) {
  rt::RuntimeConfig config = accel_config();
  config.fault_plan.scripted.push_back(ScriptedFault{
      .pe = "fft0", .task_index = 0, .kind = FaultKind::kDeviceHang});
  config.fault_plan.policy.quarantine_threshold = 0;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("hang_app", [] {
    std::vector<cedr_cplx> in(128), out(128);
    in[1] = cedr_cplx(1.0f, 0.0f);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 128).ok());
      EXPECT_NEAR(std::abs(out[3]), 1.0f, 1e-4f);
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_GE(runtime.counters().get("faults_injected"), 1u);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_GE(runtime.counters().get("tasks_recovered"), 1u);
}

TEST(RuntimeFaults, LookaheadReservationsGoStaleUnderQuarantine) {
  rt::RuntimeConfig config = accel_config();
  config.scheduler = "HEFT_LA";
  // fft0 fails half its executions, so it cycles through quarantine, probe
  // and reinstatement while HEFT_LA holds reservations on it. Every such
  // transition bumps the reservation epoch, so reservations decided before
  // it must come back stale when their tasks are released.
  config.fault_plan.seed = 11;
  config.fault_plan.per_pe["fft0"] = FaultSpec{.fail_prob = 0.5};
  config.fault_plan.policy.quarantine_threshold = 2;
  config.fault_plan.policy.probe_period_s = 1e-3;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());

  // source -> 6 FFTs -> join -> 6 FFTs -> sink. The tasks carry no
  // implementation, so they cost nothing to run, but the fault plan still
  // applies to every attempt.
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "fanout";
  const auto add_task = [&](task::TaskId id, platform::KernelId kernel) {
    task::Task t;
    t.id = id;
    t.kernel = kernel;
    t.problem_size = 256;
    ASSERT_TRUE(app->graph.add_task(std::move(t)).ok());
  };
  constexpr task::TaskId kWidth = 6;
  constexpr task::TaskId kJoin = kWidth + 1;
  constexpr task::TaskId kSink = 2 * kWidth + 2;
  add_task(0, platform::KernelId::kGeneric);
  add_task(kJoin, platform::KernelId::kGeneric);
  add_task(kSink, platform::KernelId::kGeneric);
  for (task::TaskId i = 1; i <= kWidth; ++i) {
    add_task(i, platform::KernelId::kFft);
    add_task(kJoin + i, platform::KernelId::kFft);
    ASSERT_TRUE(app->graph.add_edge(0, i).ok());
    ASSERT_TRUE(app->graph.add_edge(i, kJoin).ok());
    ASSERT_TRUE(app->graph.add_edge(kJoin, kJoin + i).ok());
    ASSERT_TRUE(app->graph.add_edge(kJoin + i, kSink).ok());
  }

  constexpr std::uint64_t kInstances = 40;
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(runtime.submit_dag(app).ok());
  }
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  EXPECT_EQ(runtime.completed_apps(), kInstances);
  EXPECT_EQ(runtime.counters().get("tasks_failed"), 0u);
  EXPECT_GT(runtime.counters().get("pes_quarantined"), 0u);
  EXPECT_GT(runtime.counters().get("sched.reservation_stale"), 0u);
}

// ---- discrete-event emulator parity ---------------------------------------

TEST(SimFaults, DeterministicAndLossless) {
  sim::SimConfig config;
  config.platform = platform::zcu102(3, 1, 0);
  config.scheduler = "EFT";
  config.faults.seed = 17;
  config.faults.defaults.fail_prob = 0.05;
  config.faults.policy.quarantine_threshold = 3;
  config.faults.policy.probe_period_s = 5e-3;

  const sim::SimApp pd = sim::make_pulse_doppler_model(false);
  std::vector<sim::Arrival> arrivals;
  for (int i = 0; i < 8; ++i) {
    arrivals.push_back(sim::Arrival{&pd, 0.002 * i});
  }
  auto first = sim::simulate(config, arrivals);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  auto second = sim::simulate(config, arrivals);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->faults_injected, 0u);
  EXPECT_GT(first->tasks_retried, 0u);
  EXPECT_EQ(first->tasks_lost, 0u);
  EXPECT_EQ(first->faults_injected, second->faults_injected);
  EXPECT_EQ(first->tasks_retried, second->tasks_retried);
  EXPECT_EQ(first->pes_quarantined, second->pes_quarantined);
  EXPECT_DOUBLE_EQ(first->makespan, second->makespan);
}

// Regression: at high fault rates every PE cycles through quarantine and the
// event loop used to spin at a frozen virtual clock (an open probe window
// kept reporting an event at now_ while the scheduling round was gated).
// The simulation must terminate — with terminal losses, not a hang.
TEST(SimFaults, HighFaultRateTerminates) {
  sim::SimConfig config;
  config.platform = platform::zcu102(3, 1, 0);
  config.scheduler = "EFT";
  config.faults.seed = 42;
  config.faults.defaults.fail_prob = 0.35;
  config.faults.policy.max_retries = 4;
  config.faults.policy.quarantine_threshold = 3;
  config.faults.policy.probe_period_s = 5e-3;

  const sim::SimApp pd = sim::make_pulse_doppler_model(false);
  std::vector<sim::Arrival> arrivals;
  for (int i = 0; i < 8; ++i) {
    arrivals.push_back(sim::Arrival{&pd, 0.002 * i});
  }
  auto metrics = sim::simulate(config, arrivals);
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  EXPECT_GT(metrics->faults_injected, 0u);
  EXPECT_GT(metrics->pes_quarantined, 0u);
}

}  // namespace
}  // namespace cedr
