// Cross-module integration tests: API-to-scheduler routing constraints,
// app-pipeline equivalences, and concurrent IPC clients.
#include <gtest/gtest.h>

#include <thread>

#include "cedr/apps/lane_detection.h"
#include "cedr/cedr.h"
#include "cedr/ipc/ipc.h"
#include "cedr/kernels/image.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr {
namespace {

TEST(Integration, OversizeFftNeverRoutesToAccelerator) {
  // The FFT IP caps at 2048 points (paper §III); a 4096-point CEDR_FFT must
  // execute on a CPU even when the accelerator looks infinitely cheap.
  rt::RuntimeConfig config;
  config.platform = platform::host(1, 1);
  config.platform.costs.set(platform::KernelId::kFft,
                            platform::PeClass::kFftAccel, {.fixed_s = 1e-12});
  config.platform.costs.set_transfer(platform::PeClass::kFftAccel, 0.0, 0.0);
  config.scheduler = "EFT";
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("big_fft", [] {
    std::vector<cedr_cplx> buf(4096);
    buf[1] = cedr_cplx(1.0f, 0.0f);
    ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), 4096).ok());
    EXPECT_NEAR(std::abs(buf[100]), 1.0f, 1e-3f);
    // A 2048-point transform is accelerator-eligible by contrast.
    std::vector<cedr_cplx> small(2048);
    ASSERT_TRUE(CEDR_FFT(small.data(), small.data(), 2048).ok());
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(60.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  bool oversize_on_cpu = false;
  bool small_on_accel = false;
  for (const auto& task :
       trace::task_executions(runtime.tracer().snapshot())) {
    const std::string& pe = config.platform.pes[task.pe_index].name;
    if (task.problem_size == 4096) oversize_on_cpu = pe.rfind("cpu", 0) == 0;
    if (task.problem_size == 2048) small_on_accel = pe.rfind("fft", 0) == 0;
  }
  EXPECT_TRUE(oversize_on_cpu);
  EXPECT_TRUE(small_on_accel);
}

TEST(Integration, CedrBlurMatchesKernelBlur) {
  // The decomposed CEDR-API Gaussian blur (per-row/column scheduled
  // transforms) must agree with the monolithic kernel implementation.
  kernels::GrayImage image(24, 40);
  Rng rng(3);
  for (auto& px : image.pixels) px = static_cast<float>(rng.uniform(0, 1));
  const auto reference = kernels::gaussian_blur_fft(image, 5, 1.1);
  ASSERT_TRUE(reference.ok());
  std::size_t fft_calls = 0;
  std::size_t ifft_calls = 0;
  const auto via_api = apps::gaussian_blur_cedr(image, 5, 1.1,
                                                /*nonblocking=*/true,
                                                fft_calls, ifft_calls);
  ASSERT_TRUE(via_api.ok());
  EXPECT_GT(fft_calls, 0u);
  EXPECT_GT(ifft_calls, 0u);
  for (std::size_t i = 0; i < reference->pixels.size(); ++i) {
    EXPECT_NEAR(reference->pixels[i], via_api->pixels[i], 1e-3f);
  }
}

TEST(Integration, ConcurrentIpcClients) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ipc::IpcServer server(runtime,
                        ::testing::TempDir() + "/cedr_concurrent.sock");
  ASSERT_TRUE(server.start().ok());

  // Several client threads hammer STATUS/WAIT concurrently; the daemon's
  // one-command-per-connection protocol must serve them all.
  constexpr int kClients = 6;
  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &successes] {
      ipc::IpcClient client(server.socket_path());
      for (int i = 0; i < 20; ++i) {
        if (client.status().ok() && client.wait_all().ok()) ++successes;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(successes.load(), kClients * 20);
  server.stop();
  EXPECT_TRUE(runtime.shutdown().ok());
}

TEST(Integration, ShutdownWithInFlightApplicationsDrainsCleanly) {
  // shutdown() must wait for running applications instead of abandoning
  // them (destructor path included).
  auto runtime = std::make_unique<rt::Runtime>([] {
    rt::RuntimeConfig config;
    config.platform = platform::host(2, 1);
    return config;
  }());
  ASSERT_TRUE(runtime->start().ok());
  std::atomic<bool> finished{false};
  for (int a = 0; a < 4; ++a) {
    ASSERT_TRUE(runtime
                    ->submit_api("inflight" + std::to_string(a),
                                 [&finished] {
                                   std::vector<cedr_cplx> buf(1024);
                                   for (int i = 0; i < 20; ++i) {
                                     (void)CEDR_FFT(buf.data(), buf.data(),
                                                    1024);
                                   }
                                   finished = true;
                                 })
                    .ok());
  }
  // No wait_all: destructor-driven shutdown must drain everything.
  runtime.reset();
  EXPECT_TRUE(finished.load());
}

}  // namespace
}  // namespace cedr
