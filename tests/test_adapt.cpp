// Tests for the online cost-model adaptation subsystem (cedr::adapt):
// recursive-least-squares coefficient recovery, exponential-decay tracking
// of drifting device latency, outlier rejection under fault injection,
// lock-free snapshot publication, determinism, and the end-to-end wiring
// through the discrete-event emulator and the threaded runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "cedr/adapt/fit.h"
#include "cedr/adapt/online_estimator.h"
#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sim/model.h"
#include "cedr/sim/simulator.h"

namespace cedr::adapt {
namespace {

using platform::KernelCost;
using platform::KernelId;
using platform::PeClass;

/// Ground-truth polynomial used by the synthetic-feed tests.
constexpr KernelCost kTruth{
    .fixed_s = 5.0e-6, .per_point_s = 2.0e-8, .per_nlogn_s = 3.0e-9};

double eval(const KernelCost& c, std::size_t n) { return c.eval(n); }

/// Returns a copy of `model` with every kernel coefficient multiplied by
/// `factor` (transfer terms untouched) — a uniformly mis-calibrated table.
platform::CostModel perturb(const platform::CostModel& model, double factor) {
  platform::CostModel out = model;
  for (std::size_t k = 0; k < platform::kNumKernelIds; ++k) {
    for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
      const auto kernel = static_cast<KernelId>(k);
      const auto cls = static_cast<PeClass>(c);
      const KernelCost& cost = model.get(kernel, cls);
      out.set(kernel, cls,
              KernelCost{.fixed_s = cost.fixed_s * factor,
                         .per_point_s = cost.per_point_s * factor,
                         .per_nlogn_s = cost.per_nlogn_s * factor});
    }
  }
  return out;
}

TEST(RlsFitTest, RecoversPolynomialCoefficientsExactly) {
  RlsFit fit(FitBasis::kPoly, RlsFit::kNoDecay);
  const std::size_t sizes[] = {64, 256, 1024, 4096};
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = sizes[i % 4];
    fit.update(static_cast<double>(n), eval(kTruth, n));
  }
  const KernelCost got = fit.coefficients();
  EXPECT_NEAR(got.fixed_s, kTruth.fixed_s, 1e-6 * kTruth.fixed_s);
  EXPECT_NEAR(got.per_point_s, kTruth.per_point_s, 1e-6 * kTruth.per_point_s);
  EXPECT_NEAR(got.per_nlogn_s, kTruth.per_nlogn_s, 1e-6 * kTruth.per_nlogn_s);
  EXPECT_TRUE(fit.multi_size());
}

TEST(RlsFitTest, DecayTracksStepChangeInLatency) {
  RlsFit fit(FitBasis::kPoly, /*half_life_samples=*/16.0);
  const std::size_t sizes[] = {128, 512, 2048};
  // Phase 1: the device behaves per the table...
  for (int i = 0; i < 120; ++i) {
    const std::size_t n = sizes[i % 3];
    fit.update(static_cast<double>(n), eval(kTruth, n));
  }
  // ...phase 2: it gets 3x slower (thermal throttling, say).
  const KernelCost slow{.fixed_s = 3 * kTruth.fixed_s,
                        .per_point_s = 3 * kTruth.per_point_s,
                        .per_nlogn_s = 3 * kTruth.per_nlogn_s};
  for (int i = 0; i < 120; ++i) {
    const std::size_t n = sizes[i % 3];
    fit.update(static_cast<double>(n), eval(slow, n));
  }
  // 120 samples ~= 7.5 half-lives: phase-1 weight is down to < 1 %.
  for (const std::size_t n : sizes) {
    EXPECT_NEAR(fit.predict(static_cast<double>(n)), eval(slow, n),
                0.05 * eval(slow, n));
  }
}

TEST(RlsFitTest, NoDecayAveragesWholeHistory) {
  // Without decay the same step-change splits the difference instead of
  // tracking it — the property that motivates the forgetting factor.
  RlsFit fit(FitBasis::kPoly, RlsFit::kNoDecay);
  for (int i = 0; i < 100; ++i) fit.update(256.0, eval(kTruth, 256));
  for (int i = 0; i < 100; ++i) fit.update(256.0, 3.0 * eval(kTruth, 256));
  EXPECT_NEAR(fit.predict(256.0), 2.0 * eval(kTruth, 256),
              0.05 * eval(kTruth, 256));
}

TEST(FitAffineTest, SingleSizeFallsBackToMean) {
  std::vector<FitSample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back({.n = 256.0, .service_s = 4e-6 + 1e-7 * (i % 3)});
  }
  const KernelCost cost = fit_affine(samples);
  EXPECT_GT(cost.fixed_s, 0.0);
  EXPECT_EQ(cost.per_point_s, 0.0);
  EXPECT_EQ(cost.per_nlogn_s, 0.0);
  double mean = 0.0;
  for (const FitSample& s : samples) mean += s.service_s;
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(cost.fixed_s, mean, 1e-12);
}

TEST(FitAffineTest, NegativeSlopeFallsBackToMean) {
  // Service time *decreasing* with size is non-physical measurement noise.
  std::vector<FitSample> samples{{.n = 64.0, .service_s = 9e-6},
                                 {.n = 256.0, .service_s = 6e-6},
                                 {.n = 1024.0, .service_s = 3e-6}};
  const KernelCost cost = fit_affine(samples);
  EXPECT_EQ(cost.per_point_s, 0.0);
  EXPECT_NEAR(cost.fixed_s, 6e-6, 1e-12);
}

TEST(FitAffineTest, RecoversAffineCoefficients) {
  std::vector<FitSample> samples;
  for (const double n : {64.0, 256.0, 1024.0, 64.0, 4096.0}) {
    samples.push_back({.n = n, .service_s = 2e-6 + 3e-9 * n});
  }
  const KernelCost cost = fit_affine(samples);
  EXPECT_NEAR(cost.fixed_s, 2e-6, 1e-11);
  EXPECT_NEAR(cost.per_point_s, 3e-9, 1e-14);
}

TEST(AdaptConfigTest, JsonRoundTripAndValidation) {
  AdaptConfig config;
  config.enabled = true;
  config.half_life = 32.0;
  config.min_samples = 4;
  config.outlier_threshold = 6.0;
  config.publish_interval = 8;
  auto parsed = AdaptConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->enabled);
  EXPECT_EQ(parsed->half_life, 32.0);
  EXPECT_EQ(parsed->min_samples, 4u);
  EXPECT_EQ(parsed->outlier_threshold, 6.0);
  EXPECT_EQ(parsed->publish_interval, 8u);

  auto bad = AdaptConfig::from_json(json::Object{{"half_life", json::Value(-1.0)}});
  EXPECT_FALSE(bad.ok());
  bad = AdaptConfig::from_json(json::Object{{"min_samples", json::Value(0)}});
  EXPECT_FALSE(bad.ok());
  bad = AdaptConfig::from_json(
      json::Object{{"outlier_threshold", json::Value(0.5)}});
  EXPECT_FALSE(bad.ok());
  bad = AdaptConfig::from_json(
      json::Object{{"publish_interval", json::Value(0)}});
  EXPECT_FALSE(bad.ok());
}

TEST(OnlineEstimatorTest, ColdStartServesPresetTables) {
  const platform::PlatformConfig zcu = platform::zcu102(3, 1, 0);
  AdaptConfig config;
  config.enabled = true;
  OnlineCostEstimator estimator(config, zcu.costs);
  const auto snap = estimator.snapshot();
  for (const std::size_t n : {64u, 256u, 1024u}) {
    EXPECT_EQ(snap->estimate(KernelId::kFft, PeClass::kCpu, n, 8 * n),
              zcu.costs.estimate(KernelId::kFft, PeClass::kCpu, n, 8 * n));
  }
  EXPECT_EQ(estimator.observations(), 0u);
  EXPECT_EQ(estimator.mean_rel_error(), 0.0);
}

TEST(OnlineEstimatorTest, WarmupGateBlendsTowardLearned) {
  const platform::PlatformConfig zcu = platform::zcu102(3, 1, 0);
  AdaptConfig config;
  config.enabled = true;
  config.min_samples = 8;
  config.publish_interval = 1;
  // Preset deliberately 4x the observed truth for this pairing.
  OnlineCostEstimator estimator(config, perturb(zcu.costs, 4.0));
  const KernelCost& truth = zcu.costs.get(KernelId::kFft, PeClass::kCpu);
  const std::size_t sizes[] = {128, 256, 1024};

  auto feed = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::size_t n = sizes[i % 3];
      estimator.observe(KernelId::kFft, PeClass::kCpu, n, 8 * n,
                        eval(truth, n));
    }
  };
  feed(4);  // below the warmup gate: snapshot must still be all-preset
  EXPECT_EQ(estimator.snapshot()->get(KernelId::kFft, PeClass::kCpu).fixed_s,
            4.0 * truth.fixed_s);
  feed(20);  // past 2x min_samples: blending complete, learned served
  const KernelCost served =
      estimator.snapshot()->get(KernelId::kFft, PeClass::kCpu);
  for (const std::size_t n : sizes) {
    EXPECT_NEAR(eval(served, n), eval(truth, n), 0.01 * eval(truth, n));
  }
  const auto stats = estimator.pair_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].blend, 1.0);
  EXPECT_EQ(stats[0].samples, 24u);
}

TEST(OnlineEstimatorTest, StepChangeIsTrackedWithinOutlierBounds) {
  const platform::PlatformConfig zcu = platform::zcu102(3, 1, 0);
  AdaptConfig config;
  config.enabled = true;
  config.half_life = 16.0;
  config.min_samples = 4;
  config.publish_interval = 1;
  config.outlier_threshold = 4.0;
  OnlineCostEstimator estimator(config, zcu.costs);
  const KernelCost& truth = zcu.costs.get(KernelId::kFft, PeClass::kFftAccel);
  const std::size_t sizes[] = {128, 256, 1024};
  // Accelerator observations carry the DMA transfer term (the estimator
  // strips it before fitting, as estimate() re-adds it when serving).
  auto transfer = [&](std::size_t n) {
    return zcu.costs.estimate(KernelId::kFft, PeClass::kFftAccel, n, 0) -
           eval(truth, n);
  };
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = sizes[i % 3];
    estimator.observe(KernelId::kFft, PeClass::kFftAccel, n, 0,
                      eval(truth, n) + transfer(n));
  }
  // Device compute slows down 3x — inside the 4x outlier gate, so the
  // decayed fit must follow rather than reject the new regime.
  for (int i = 0; i < 150; ++i) {
    const std::size_t n = sizes[i % 3];
    estimator.observe(KernelId::kFft, PeClass::kFftAccel, n, 0,
                      3.0 * eval(truth, n) + transfer(n));
  }
  EXPECT_EQ(estimator.rejected(), 0u);
  const KernelCost served =
      estimator.snapshot()->get(KernelId::kFft, PeClass::kFftAccel);
  for (const std::size_t n : sizes) {
    EXPECT_NEAR(eval(served, n), 3.0 * eval(truth, n),
                0.10 * 3.0 * eval(truth, n));
  }
}

TEST(OnlineEstimatorTest, OutliersAreRejectedAfterWarmup) {
  const platform::PlatformConfig zcu = platform::zcu102(3, 1, 0);
  AdaptConfig config;
  config.enabled = true;
  config.min_samples = 4;
  config.publish_interval = 1;
  config.outlier_threshold = 4.0;
  OnlineCostEstimator estimator(config, zcu.costs);
  const KernelCost& truth = zcu.costs.get(KernelId::kFft, PeClass::kCpu);
  for (int i = 0; i < 50; ++i) {
    estimator.observe(KernelId::kFft, PeClass::kCpu, 256, 0, eval(truth, 256));
  }
  // A 1 ms latency spike against a microsecond-scale kernel: rejected.
  estimator.observe(KernelId::kFft, PeClass::kCpu, 256, 0,
                    eval(truth, 256) + 1e-3);
  EXPECT_EQ(estimator.rejected(), 1u);
  const KernelCost served =
      estimator.snapshot()->get(KernelId::kFft, PeClass::kCpu);
  EXPECT_NEAR(eval(served, 256), eval(truth, 256), 0.01 * eval(truth, 256));
}

// ---------------------------------------------------------------------------
// Emulator integration: the estimator fed by the sim engine's virtual
// service times.

sim::SimConfig convergence_config() {
  sim::SimConfig config;
  config.platform = platform::zcu102(3, 1, 0);
  config.scheduler = "EFT";
  // Blocking API model: the app thread issues one kernel at a time, so the
  // CPU pool never oversubscribes and virtual service times match the
  // analytic tables exactly. (Under contention the estimator learns the
  // *effective* — stretched — costs instead; bench/micro_adapt.cpp covers
  // the full-engine experiment.)
  config.model = sim::ProgrammingModel::kApiBased;
  config.costs.accel_occupancy = 1.0;  // isolated-cost accel service
  config.costs.signal_overhead = 0.0;  // no per-call worker-side tax
  return config;
}

std::vector<sim::Arrival> spaced_arrivals(const sim::SimApp& app, int count,
                                          double spacing_s) {
  std::vector<sim::Arrival> arrivals;
  for (int i = 0; i < count; ++i) {
    arrivals.push_back({.app = &app, .time = i * spacing_s});
  }
  return arrivals;
}

TEST(AdaptSimTest, ConvergesToAnalyticCoefficientsUnderStationaryWorkload) {
  sim::SimConfig config = convergence_config();
  AdaptConfig adapt_config;
  adapt_config.enabled = true;
  adapt_config.min_samples = 8;
  // Estimator cold-starts from a 4x mis-calibrated table; the workload's
  // observed service times are generated from the true platform tables.
  OnlineCostEstimator estimator(adapt_config, perturb(config.platform.costs, 4.0));
  config.adapt = &estimator;

  const sim::SimApp pd = sim::make_pulse_doppler_model();
  auto result = sim::simulate(config, spaced_arrivals(pd, 3, 0.5));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(estimator.observations(), 500u);

  const auto snap = estimator.snapshot();
  for (const PairStats& pair : estimator.pair_stats()) {
    if (pair.samples < 2 * adapt_config.min_samples) continue;
    if (pair.kernel == KernelId::kGeneric) continue;  // glue: no true poly
    // Learned tables must predict the true analytic cost to within 10 %
    // at the sizes the workload exercised (256-point transforms).
    const double learned = eval(snap->get(pair.kernel, pair.cls), 256);
    const double truth = eval(config.platform.costs.get(pair.kernel, pair.cls), 256);
    EXPECT_NEAR(learned, truth, 0.10 * truth)
        << platform::kernel_name(pair.kernel) << " on "
        << platform::pe_class_name(pair.cls) << " (" << pair.samples
        << " samples)";
  }
  EXPECT_LT(estimator.mean_rel_error(), 0.10);
}

TEST(AdaptSimTest, FaultPlanSpikesAreRejectedNotLearned) {
  sim::SimConfig config = convergence_config();
  // 5 % latency spikes, three orders of magnitude above a 256-point FFT.
  config.faults.seed = 0xadap7;
  config.faults.defaults.latency_prob = 0.05;
  config.faults.defaults.latency_spike_s = 5e-3;

  AdaptConfig adapt_config;
  adapt_config.enabled = true;
  adapt_config.min_samples = 8;
  OnlineCostEstimator estimator(adapt_config, config.platform.costs);
  config.adapt = &estimator;

  const sim::SimApp pd = sim::make_pulse_doppler_model();
  auto result = sim::simulate(config, spaced_arrivals(pd, 3, 0.5));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(estimator.rejected(), 0u);

  const auto snap = estimator.snapshot();
  for (const PairStats& pair : estimator.pair_stats()) {
    if (pair.samples < 2 * adapt_config.min_samples) continue;
    if (pair.kernel == KernelId::kGeneric) continue;
    const double learned = eval(snap->get(pair.kernel, pair.cls), 256);
    const double truth = eval(config.platform.costs.get(pair.kernel, pair.cls), 256);
    EXPECT_NEAR(learned, truth, 0.10 * truth)
        << platform::kernel_name(pair.kernel) << " on "
        << platform::pe_class_name(pair.cls);
  }
}

TEST(AdaptSimTest, IdenticalSeededRunsEmitIdenticalLearnedTables) {
  auto run = [] {
    sim::SimConfig config = convergence_config();
    config.faults.seed = 0x5eed;
    config.faults.defaults.latency_prob = 0.02;
    AdaptConfig adapt_config;
    adapt_config.enabled = true;
    OnlineCostEstimator estimator(adapt_config, config.platform.costs);
    config.adapt = &estimator;
    const sim::SimApp pd = sim::make_pulse_doppler_model();
    auto result = sim::simulate(config, spaced_arrivals(pd, 2, 0.25));
    EXPECT_TRUE(result.ok());
    return estimator.to_json().dump();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Concurrency: snapshot-swap thread safety (run under
// tools/run_tsan_tests.sh; test_adapt is part of the TSAN tier).

TEST(AdaptConcurrencyTest, SnapshotSwapHammer) {
  const platform::PlatformConfig zcu = platform::zcu102(3, 1, 0);
  AdaptConfig config;
  config.enabled = true;
  config.min_samples = 2;
  config.publish_interval = 1;  // publish on every accept: maximal swapping
  OnlineCostEstimator estimator(config, zcu.costs);
  const KernelCost& truth = zcu.costs.get(KernelId::kFft, PeClass::kCpu);

  constexpr int kWriters = 4;
  constexpr int kObservations = 4000;
  std::atomic<bool> stop{false};
  // Writers start only once the reader has completed a read, so the reader
  // can never be scheduled for the first time after they finished.
  std::latch first_read(1);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&estimator, &truth, &first_read, w] {
      first_read.wait();
      const std::size_t sizes[] = {128, 256, 512, 1024};
      for (int i = 0; i < kObservations; ++i) {
        const std::size_t n = sizes[(w + i) % 4];
        estimator.observe(KernelId::kFft, PeClass::kCpu, n, 0, eval(truth, n));
      }
    });
  }
  std::thread reader([&estimator, &stop, &first_read] {
    std::size_t reads = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = estimator.snapshot();
      const double est = snap->estimate(KernelId::kFft, PeClass::kCpu, 256, 0);
      if (reads++ == 0) first_read.count_down();
      ASSERT_TRUE(std::isfinite(est));
      ASSERT_GT(est, 0.0);
    }
    EXPECT_GT(reads, 0u);
  });
  std::thread stats_reader([&estimator, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)estimator.pair_stats();
      (void)estimator.mean_rel_error();
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  stats_reader.join();

  EXPECT_EQ(estimator.observations(),
            static_cast<std::uint64_t>(kWriters * kObservations));
  EXPECT_GT(estimator.publishes(), 0u);
  const KernelCost served =
      estimator.snapshot()->get(KernelId::kFft, PeClass::kCpu);
  for (const std::size_t n : {128u, 256u, 1024u}) {
    EXPECT_NEAR(eval(served, n), eval(truth, n), 0.02 * eval(truth, n));
  }
}

// ---------------------------------------------------------------------------
// Threaded-runtime integration: workers feed the estimator, scheduling
// rounds consume snapshots, COSTS JSON is well formed.

TEST(AdaptRuntimeTest, RuntimeLearnsFromLiveServiceTimes) {
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.scheduler = "EFT";
  config.adapt.enabled = true;
  config.adapt.min_samples = 4;
  config.adapt.publish_interval = 4;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_NE(runtime.adapt_estimator(), nullptr);

  auto instance = runtime.submit_api("adapt_app", [] {
    std::vector<cedr_cplx> buf(256);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), buf.size()).ok());
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_app(*instance, 30.0).ok());

  const OnlineCostEstimator* estimator = runtime.adapt_estimator();
  EXPECT_GE(estimator->observations(), 32u);
  EXPECT_GT(estimator->publishes(), 0u);
  const json::Value doc = estimator->to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("pairs")->is_array());
  EXPECT_FALSE(doc.find("pairs")->as_array().empty());
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(AdaptRuntimeTest, DisabledByDefault) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = "EFT";
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_EQ(runtime.adapt_estimator(), nullptr);
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(AdaptRuntimeTest, ConfigRoundTripsThroughRuntimeJson) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = "EFT";
  config.adapt.enabled = true;
  config.adapt.half_life = 48.0;
  config.adapt.min_samples = 6;
  auto parsed = rt::RuntimeConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->adapt.enabled);
  EXPECT_EQ(parsed->adapt.half_life, 48.0);
  EXPECT_EQ(parsed->adapt.min_samples, 6u);
}

}  // namespace
}  // namespace cedr::adapt
