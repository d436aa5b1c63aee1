// Tests for the ecosystem extensions beyond the paper's core: MET/RANDOM
// schedulers, runtime-configuration files, and the big.LITTLE future-work
// platform.
#include <gtest/gtest.h>

#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sched/heuristics.h"
#include "cedr/sim/model.h"
#include "cedr/sim/simulator.h"

namespace cedr {
namespace {

// ---- MET / RANDOM schedulers ----------------------------------------------

sched::ReadyTask fft_task(std::uint64_t key, std::size_t size = 1024) {
  return sched::ReadyTask{.task_key = key,
                          .kernel = platform::KernelId::kFft,
                          .problem_size = size,
                          .data_bytes = 2 * size * 8};
}

TEST(MetScheduler, AlwaysPicksCheapestPeIgnoringQueues) {
  sched::MetScheduler met;
  platform::PlatformConfig plat = platform::zcu102(2, 1, 0);
  // Make the accelerator the cheapest FFT executor by a wide margin.
  plat.costs.set(platform::KernelId::kFft, platform::PeClass::kFftAccel,
                 {.fixed_s = 1e-9});
  plat.costs.set_transfer(platform::PeClass::kFftAccel, 0.0, 0.0);
  std::vector<sched::PeState> pes;
  for (std::size_t i = 0; i < plat.pes.size(); ++i) {
    pes.push_back(sched::PeState{.pe_index = i, .cls = plat.pes[i].cls});
  }
  std::vector<sched::ReadyTask> ready;
  for (std::uint64_t i = 0; i < 20; ++i) ready.push_back(fft_task(i));
  const sched::ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const auto result = met.schedule(ready, pes, ctx);
  ASSERT_EQ(result.assignments.size(), 20u);
  for (const auto& a : result.assignments) {
    // Every task piles onto the single "fastest" PE — MET's pathology.
    EXPECT_EQ(plat.pes[a.pe_index].cls, platform::PeClass::kFftAccel);
  }
}

TEST(RandomScheduler, CoversCompatiblePesAndIsSeeded) {
  platform::PlatformConfig plat = platform::zcu102(3, 1, 0);
  auto make_pes = [&] {
    std::vector<sched::PeState> pes;
    for (std::size_t i = 0; i < plat.pes.size(); ++i) {
      pes.push_back(sched::PeState{.pe_index = i, .cls = plat.pes[i].cls});
    }
    return pes;
  };
  std::vector<sched::ReadyTask> ready;
  for (std::uint64_t i = 0; i < 400; ++i) ready.push_back(fft_task(i, 256));
  const sched::ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};

  sched::RandomScheduler a(7), b(7), c(8);
  auto pes1 = make_pes();
  auto pes2 = make_pes();
  auto pes3 = make_pes();
  const auto ra = a.schedule(ready, pes1, ctx);
  const auto rb = b.schedule(ready, pes2, ctx);
  const auto rc = c.schedule(ready, pes3, ctx);
  ASSERT_EQ(ra.assignments.size(), 400u);
  // Same seed -> identical assignment; different seed -> diverges.
  bool same_seed_equal = true;
  bool diff_seed_equal = true;
  std::vector<int> hits(plat.pes.size(), 0);
  for (std::size_t i = 0; i < ra.assignments.size(); ++i) {
    same_seed_equal &= ra.assignments[i].pe_index == rb.assignments[i].pe_index;
    diff_seed_equal &= ra.assignments[i].pe_index == rc.assignments[i].pe_index;
    ++hits[ra.assignments[i].pe_index];
  }
  EXPECT_TRUE(same_seed_equal);
  EXPECT_FALSE(diff_seed_equal);
  // All four compatible PEs (3 CPU + FFT accel) get a fair share.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(hits[i], 50);
}

TEST(ExtensionSchedulers, AvailableFromFactoryAndSim) {
  EXPECT_TRUE(sched::make_scheduler("MET").ok());
  EXPECT_TRUE(sched::make_scheduler("RANDOM").ok());
  // They must drive the emulator end to end.
  const sim::SimApp pd = sim::make_pulse_doppler_model();
  const sim::Arrival arrival{&pd, 0.0};
  for (const char* name : {"MET", "RANDOM"}) {
    sim::SimConfig config;
    config.platform = platform::zcu102(3, 1, 0);
    config.scheduler = name;
    const auto metrics = sim::simulate(config, {&arrival, 1});
    ASSERT_TRUE(metrics.ok()) << name;
    EXPECT_EQ(metrics->apps, 1u);
  }
}

// ---- Runtime configuration files -------------------------------------------

TEST(RuntimeConfigFile, RoundTrips) {
  rt::RuntimeConfig config;
  config.platform = platform::jetson(5, 1);
  config.scheduler = "ETF";
  config.scheduler_period_s = 1e-3;
  config.enable_counters = false;
  auto parsed = rt::RuntimeConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->scheduler, "ETF");
  EXPECT_DOUBLE_EQ(parsed->scheduler_period_s, 1e-3);
  EXPECT_FALSE(parsed->enable_counters);
  EXPECT_EQ(parsed->platform.pes.size(), config.platform.pes.size());
  EXPECT_EQ(parsed->platform.total_app_cores, 7u);
}

TEST(RuntimeConfigFile, LoadsFromDiskAndStartsRuntime) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = "HEFT_RT";
  const std::string path = ::testing::TempDir() + "/cedr_rtcfg.json";
  ASSERT_TRUE(json::write_file(path, config.to_json()).ok());
  auto loaded = rt::RuntimeConfig::load(path);
  ASSERT_TRUE(loaded.ok());
  rt::Runtime runtime(*std::move(loaded));
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(RuntimeConfigFile, RejectsBadDocuments) {
  EXPECT_FALSE(rt::RuntimeConfig::from_json(json::Value(3)).ok());
  EXPECT_FALSE(rt::RuntimeConfig::from_json(json::Object{}).ok());
  rt::RuntimeConfig config;
  config.platform = platform::host(1);
  json::Value doc = config.to_json();
  doc.as_object()["scheduler"] = json::Value("NOPE");
  EXPECT_FALSE(rt::RuntimeConfig::from_json(doc).ok());
  doc = config.to_json();
  doc.as_object()["scheduler_period_s"] = json::Value(-1.0);
  EXPECT_FALSE(rt::RuntimeConfig::from_json(doc).ok());
  EXPECT_EQ(rt::RuntimeConfig::load("/nope.json").status().code(),
            StatusCode::kNotFound);
}

// ---- big.LITTLE future-work platform ---------------------------------------

TEST(BigLittle, PresetShapeAndValidation) {
  const auto plat = platform::biglittle(1, 4, 2);
  EXPECT_TRUE(plat.validate().ok());
  EXPECT_EQ(plat.count(platform::PeClass::kCpu), 5u);
  EXPECT_EQ(plat.count(platform::PeClass::kFftAccel), 2u);
  EXPECT_EQ(plat.total_app_cores, 5u);
  std::size_t little = 0;
  for (const auto& pe : plat.pes) {
    if (pe.speed_factor < 1.0) ++little;
  }
  EXPECT_EQ(little, 4u);
  // speed_factor survives the JSON round trip.
  auto parsed = platform::PlatformConfig::from_json(plat.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->pes[1].speed_factor, 0.45);
}

TEST(BigLittle, SchedulersSeeSlowerLittleCores) {
  // EFT must prefer the big core until its queue grows long enough.
  const auto plat = platform::biglittle(1, 1, 0);
  std::vector<sched::PeState> pes;
  for (std::size_t i = 0; i < plat.pes.size(); ++i) {
    pes.push_back(sched::PeState{.pe_index = i,
                                 .cls = plat.pes[i].cls,
                                 .speed = plat.pes[i].speed_factor});
  }
  std::vector<sched::ReadyTask> one{fft_task(0, 256)};
  const sched::ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  sched::EftScheduler eft;
  const auto result = eft.schedule(one, pes, ctx);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].pe_index, 0u);  // the big core
}

TEST(BigLittle, LittleCoresAbsorbAcceleratorManagement) {
  // The paper's §VI hypothesis: lightweight cores added for worker-thread
  // management relieve the accelerator-management contention of
  // accelerator-rich configurations. Adding 4 LITTLE cores to a 2-big-core
  // + 8-FFT platform must reduce execution time even though each LITTLE
  // core has under half the throughput.
  // Non-blocking issue exposes the parallelism the extra cores serve.
  const sim::SimApp ld =
      sim::make_lane_detection_model(16, /*nonblocking=*/true);
  const sim::Arrival arrival{&ld, 0.0};
  double exec[2] = {0.0, 0.0};
  int idx = 0;
  for (const std::size_t little : {0u, 4u}) {
    sim::SimConfig config;
    config.platform = platform::biglittle(2, little, 8);
    config.scheduler = "EFT";
    const auto metrics = sim::simulate(config, {&arrival, 1});
    ASSERT_TRUE(metrics.ok());
    exec[idx++] = metrics->avg_execution_time;
  }
  EXPECT_LT(exec[1], 0.9 * exec[0]);
}

TEST(BigLittle, RuntimeExecutesOnLittleCores) {
  rt::RuntimeConfig config;
  config.platform = platform::biglittle(1, 2, 0);
  config.platform.name = "host-biglittle";
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("bl", [] {
    std::vector<cedr_cplx> buf(128);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), 128).ok());
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, 12u);
}

}  // namespace
}  // namespace cedr
