// End-to-end application tests: PD / TX / LD through the public API,
// standalone and under the runtime, blocking and non-blocking, plus the
// DAG-based variants — all must produce correct domain results.
#include <gtest/gtest.h>

#include <set>

#include "cedr/apps/dag_apps.h"
#include "cedr/apps/lane_detection.h"
#include "cedr/apps/pulse_doppler.h"
#include "cedr/apps/wifi_tx.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr::apps {
namespace {

PulseDopplerConfig small_pd(bool nonblocking) {
  PulseDopplerConfig config;
  config.params.num_pulses = 32;
  config.params.samples_per_pulse = 128;
  config.truth = {.range_bin = 30, .doppler_hz = 1250.0, .magnitude = 3.0};
  config.noise_stddev = 0.02;
  config.seed = 5;
  config.nonblocking = nonblocking;
  return config;
}

WifiTxConfig small_tx(bool nonblocking) {
  WifiTxConfig config;
  config.num_packets = 8;
  config.seed = 5;
  config.nonblocking = nonblocking;
  return config;
}

LaneDetectionConfig small_ld(bool nonblocking) {
  LaneDetectionConfig config;
  config.rows = 72;
  config.cols = 128;
  config.noise_stddev = 0.01;
  config.seed = 5;
  config.nonblocking = nonblocking;
  return config;
}

class BlockingModes : public ::testing::TestWithParam<bool> {};

TEST_P(BlockingModes, PulseDopplerRecoversTarget) {
  const auto result = run_pulse_doppler(small_pd(GetParam()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->range_correct);
  // Doppler resolution = prf / pulses = 312.5 Hz -> ~15.6 m/s at 3 GHz.
  EXPECT_LT(result->velocity_error_mps, 16.0);
}

TEST_P(BlockingModes, WifiTxRoundTripsEveryPacket) {
  const WifiTxConfig config = small_tx(GetParam());
  const auto result = run_wifi_tx(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->symbols.size(), config.num_packets);
  for (std::size_t p = 0; p < config.num_packets; ++p) {
    const auto decoded = decode_wifi_symbol(result->symbols[p], config);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, result->payloads[p]) << "packet " << p;
  }
}

TEST_P(BlockingModes, LaneDetectionFindsBothLanes) {
  const auto result = run_lane_detection(small_ld(GetParam()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->both_lanes_found);
  EXPECT_LT(result->left_slope_error, 0.2);
  EXPECT_LT(result->right_slope_error, 0.2);
  EXPECT_GT(result->fft_calls, 0u);
  EXPECT_GT(result->ifft_calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(Api, BlockingModes, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "nonblocking" : "blocking";
                         });

TEST(AppsValidation, RejectBadConfigs) {
  PulseDopplerConfig pd = small_pd(false);
  pd.params.samples_per_pulse = 100;  // not a power of two
  EXPECT_FALSE(run_pulse_doppler(pd).ok());

  WifiTxConfig tx = small_tx(false);
  tx.ofdm_size = 100;
  EXPECT_FALSE(run_wifi_tx(tx).ok());
  tx = small_tx(false);
  tx.payload_bits = 63;
  EXPECT_FALSE(run_wifi_tx(tx).ok());

  LaneDetectionConfig ld = small_ld(false);
  ld.gaussian_ksize = 4;  // even kernel
  EXPECT_FALSE(run_lane_detection(ld).ok());
}

TEST(AppsUnderRuntime, AllThreeRunConcurrently) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  config.scheduler = "HEFT_RT";
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());

  StatusOr<PulseDopplerResult> pd = PulseDopplerResult{};
  StatusOr<WifiTxResult> tx = WifiTxResult{};
  StatusOr<LaneDetectionResult> ld = LaneDetectionResult{};
  ASSERT_TRUE(runtime
                  .submit_api("pd", [&pd] { pd = run_pulse_doppler(small_pd(true)); })
                  .ok());
  ASSERT_TRUE(
      runtime.submit_api("tx", [&tx] { tx = run_wifi_tx(small_tx(true)); }).ok());
  ASSERT_TRUE(runtime
                  .submit_api("ld", [&ld] { ld = run_lane_detection(small_ld(true)); })
                  .ok());
  ASSERT_TRUE(runtime.wait_all(120.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  ASSERT_TRUE(pd.ok());
  EXPECT_TRUE(pd->range_correct);
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(tx->symbols.size(), 8u);
  ASSERT_TRUE(ld.ok());
  EXPECT_TRUE(ld->both_lanes_found);
  // All scheduled work accounted: the trace saw tasks from 3 instances.
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  std::set<std::uint64_t> instances;
  for (const auto& task :
       trace::task_executions(runtime.tracer().snapshot())) {
    instances.insert(task.app_instance_id);
  }
  EXPECT_EQ(instances.size(), 3u);
}

TEST(AppsResultEquivalence, RuntimeMatchesStandalone) {
  // Deterministic seed: the PD estimate must be identical whether the APIs
  // run inline or through the scheduler/devices.
  const auto standalone = run_pulse_doppler(small_pd(false));
  ASSERT_TRUE(standalone.ok());

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  StatusOr<PulseDopplerResult> under_runtime = PulseDopplerResult{};
  ASSERT_TRUE(runtime
                  .submit_api("pd", [&under_runtime] {
                    under_runtime = run_pulse_doppler(small_pd(false));
                  })
                  .ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_TRUE(under_runtime.ok());
  EXPECT_EQ(under_runtime->estimate.range_bin, standalone->estimate.range_bin);
  EXPECT_NEAR(under_runtime->estimate.doppler_hz,
              standalone->estimate.doppler_hz, 1e-6);
}

TEST(DagApps, PulseDopplerDagMatchesApiResult) {
  const PulseDopplerConfig config = small_pd(false);
  const auto api_result = run_pulse_doppler(config);
  ASSERT_TRUE(api_result.ok());

  auto dag = make_pulse_doppler_dag(config);
  ASSERT_TRUE(dag.ok());
  // chirp_fft + 3 per pulse + corner turn + one Doppler FFT per range bin
  // + peak search.
  EXPECT_EQ(dag->submission.descriptor->graph.size(),
            3 + 3 * config.params.num_pulses + config.params.samples_per_pulse);

  rt::RuntimeConfig rt_config;
  rt_config.platform = platform::host(2, 1);
  rt::Runtime runtime(rt_config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_dag(std::move(dag->submission));
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  const PulseDopplerResult dag_result = dag->result();
  EXPECT_EQ(dag_result.estimate.range_bin, api_result->estimate.range_bin);
  EXPECT_NEAR(dag_result.estimate.doppler_hz, api_result->estimate.doppler_hz,
              1e-3);
  EXPECT_TRUE(dag_result.range_correct);
}

TEST(DagApps, WifiTxDagProducesDecodablePackets) {
  const WifiTxConfig config = small_tx(false);
  auto dag = make_wifi_tx_dag(config);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->submission.descriptor->graph.size(),
            2 * config.num_packets);

  rt::RuntimeConfig rt_config;
  rt_config.platform = platform::host(2, 1);
  rt::Runtime runtime(rt_config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime.submit_dag(std::move(dag->submission)).ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  const WifiTxResult result = dag->result();
  ASSERT_EQ(result.symbols.size(), config.num_packets);
  for (std::size_t p = 0; p < config.num_packets; ++p) {
    const auto decoded = decode_wifi_symbol(result.symbols[p], config);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, result.payloads[p]) << "packet " << p;
  }
}

TEST(DagApps, RejectBadConfigs) {
  PulseDopplerConfig pd = small_pd(false);
  pd.params.num_pulses = 33;
  EXPECT_FALSE(make_pulse_doppler_dag(pd).ok());
  WifiTxConfig tx = small_tx(false);
  tx.ofdm_size = 77;
  EXPECT_FALSE(make_wifi_tx_dag(tx).ok());
}

}  // namespace
}  // namespace cedr::apps
