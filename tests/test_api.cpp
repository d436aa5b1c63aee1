// Tests for the public cedr.h API: standalone correctness of every call,
// non-blocking handle semantics, argument validation, and equivalence of
// standalone vs runtime-attached execution.
#include <gtest/gtest.h>

#include "cedr/cedr.h"
#include "cedr/common/rng.h"
#include "cedr/kernels/fft.h"
#include "cedr/kernels/mmult.h"
#include "cedr/kernels/zip.h"
#include "cedr/runtime/runtime.h"

namespace cedr {
namespace {

std::vector<cedr_cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cedr_cplx> v(n);
  for (auto& x : v) {
    x = cedr_cplx(static_cast<float>(rng.uniform(-1, 1)),
                  static_cast<float>(rng.uniform(-1, 1)));
  }
  return v;
}

TEST(ApiStandalone, NotAttachedOutsideRuntime) {
  EXPECT_FALSE(api::runtime_attached());
}

TEST(ApiStandalone, FftMatchesKernel) {
  const auto in = random_signal(256, 1);
  std::vector<cedr_cplx> out(256), expected(256);
  ASSERT_TRUE(CEDR_FFT(in.data(), out.data(), 256).ok());
  ASSERT_TRUE(kernels::fft(in, expected, false).ok());
  EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
}

TEST(ApiStandalone, IfftInvertsFft) {
  const auto in = random_signal(512, 2);
  std::vector<cedr_cplx> freq(512), back(512);
  ASSERT_TRUE(CEDR_FFT(in.data(), freq.data(), 512).ok());
  ASSERT_TRUE(CEDR_IFFT(freq.data(), back.data(), 512).ok());
  EXPECT_LT(max_abs_diff(in, back), 1e-4f);
}

TEST(ApiStandalone, FftAllowsInPlace) {
  auto buf = random_signal(128, 3);
  const auto copy = buf;
  std::vector<cedr_cplx> expected(128);
  ASSERT_TRUE(kernels::fft(copy, expected, false).ok());
  ASSERT_TRUE(CEDR_FFT(buf.data(), buf.data(), 128).ok());
  EXPECT_LT(max_abs_diff(buf, expected), 1e-6f);
}

TEST(ApiStandalone, ZipAllOps) {
  const auto a = random_signal(64, 4);
  const auto b = random_signal(64, 5);
  std::vector<cedr_cplx> out(64);
  for (const auto op :
       {CedrZipOp::kMultiply, CedrZipOp::kConjugateMultiply, CedrZipOp::kAdd,
        CedrZipOp::kSubtract}) {
    ASSERT_TRUE(CEDR_ZIP(a.data(), b.data(), out.data(), 64, op).ok());
    std::vector<cedr_cplx> expected(64);
    ASSERT_TRUE(
        kernels::zip(a, b, expected, static_cast<kernels::ZipOp>(op)).ok());
    EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
  }
}

TEST(ApiStandalone, MmultMatchesKernel) {
  Rng rng(6);
  std::vector<float> a(6 * 4), b(4 * 5), c(6 * 5), expected(6 * 5);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  ASSERT_TRUE(CEDR_MMULT(a.data(), b.data(), c.data(), 6, 4, 5).ok());
  ASSERT_TRUE(kernels::mmult(a, b, expected, 6, 4, 5).ok());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-4f);
  }
}

TEST(ApiValidation, RejectsBadArguments) {
  std::vector<cedr_cplx> buf(100);
  EXPECT_EQ(CEDR_FFT(nullptr, buf.data(), 64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CEDR_FFT(buf.data(), buf.data(), 100).code(),
            StatusCode::kInvalidArgument);  // not a power of two
  EXPECT_EQ(CEDR_ZIP(buf.data(), nullptr, buf.data(), 64).code(),
            StatusCode::kInvalidArgument);
  std::vector<float> m(4);
  EXPECT_EQ(CEDR_MMULT(m.data(), m.data(), m.data(), 0, 2, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CEDR_MMULT(nullptr, m.data(), m.data(), 2, 1, 2).code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiNonBlocking, RejectsBadArgumentsWithNullHandle) {
  std::vector<cedr_cplx> buf(100);
  EXPECT_EQ(CEDR_FFT_NB(nullptr, buf.data(), 64), nullptr);
  EXPECT_EQ(CEDR_FFT_NB(buf.data(), buf.data(), 100), nullptr);
  EXPECT_EQ(CEDR_ZIP_NB(buf.data(), buf.data(), nullptr, 64), nullptr);
  EXPECT_EQ(CEDR_MMULT_NB(nullptr, nullptr, nullptr, 1, 1, 1), nullptr);
}

TEST(ApiNonBlocking, StandaloneHandlesAreBornComplete) {
  auto in = random_signal(128, 7);
  std::vector<cedr_cplx> out(128);
  cedr_handle_t handle = CEDR_FFT_NB(in.data(), out.data(), 128);
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(CEDR_POLL(handle));
  EXPECT_TRUE(CEDR_WAIT(handle).ok());
  std::vector<cedr_cplx> expected(128);
  ASSERT_TRUE(kernels::fft(in, expected, false).ok());
  EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
}

TEST(ApiNonBlocking, BarrierWaitsAllAndReportsFirstError) {
  auto a = random_signal(64, 8);
  std::vector<cedr_cplx> out1(64), out2(64);
  cedr_handle_t handles[3] = {
      CEDR_FFT_NB(a.data(), out1.data(), 64),
      CEDR_IFFT_NB(a.data(), out2.data(), 64),
      nullptr,  // invalid entry must surface as an error
  };
  EXPECT_EQ(CEDR_BARRIER(handles, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(handles[0], nullptr);  // consumed
  EXPECT_EQ(handles[1], nullptr);
}

TEST(ApiNonBlocking, WaitOnNullHandleFails) {
  EXPECT_EQ(CEDR_WAIT(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(CEDR_POLL(nullptr));
  EXPECT_TRUE(CEDR_BARRIER(nullptr, 0).ok());
}

TEST(ApiUnderRuntime, MatchesStandaloneResults) {
  const auto in = random_signal(256, 9);
  std::vector<cedr_cplx> standalone_out(256);
  ASSERT_TRUE(CEDR_FFT(in.data(), standalone_out.data(), 256).ok());

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  std::vector<cedr_cplx> runtime_out(256);
  auto instance = runtime.submit_api("fft", [&in, &runtime_out] {
    ASSERT_TRUE(api::runtime_attached());
    ASSERT_TRUE(CEDR_FFT(in.data(), runtime_out.data(), 256).ok());
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_LT(max_abs_diff(runtime_out, standalone_out), 1e-6f);
}

TEST(ApiUnderRuntime, NonBlockingOverlapsAndCompletes) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  constexpr std::size_t kCalls = 16;
  auto instance = runtime.submit_api("nb", [] {
    std::vector<std::vector<cedr_cplx>> bufs(kCalls,
                                             std::vector<cedr_cplx>(128));
    std::vector<cedr_handle_t> handles(kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) {
      bufs[i][i] = cedr_cplx(1.0f, 0.0f);
      handles[i] = CEDR_FFT_NB(bufs[i].data(), bufs[i].data(), 128);
      ASSERT_NE(handles[i], nullptr);
    }
    ASSERT_TRUE(CEDR_BARRIER(handles.data(), handles.size()).ok());
    for (std::size_t i = 0; i < kCalls; ++i) {
      // FFT of a shifted delta has unit magnitude everywhere.
      EXPECT_NEAR(std::abs(bufs[i][3]), 1.0f, 1e-4f);
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, kCalls);
}

TEST(ApiUnderRuntime, LargeFftRunsOnJetsonGpu) {
  // Past the FPGA IP's 2048-point cap: the GPU must run it, not fail it.
  constexpr std::size_t kN = 4096;
  const auto in = random_signal(kN, 13);
  std::vector<cedr_cplx> expected(kN);
  ASSERT_TRUE(kernels::fft(in, expected, false).ok());

  rt::RuntimeConfig config;
  config.platform = platform::jetson(1, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  std::vector<cedr_cplx> out(kN);
  Status call_status;
  auto instance = runtime.submit_api("fft4096", [&] {
    call_status = CEDR_FFT(in.data(), out.data(), kN);
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  const rt::RuntimeStats stats = runtime.stats();
  const std::vector<rt::PeHealth> health = runtime.pe_health();
  EXPECT_TRUE(runtime.shutdown().ok());

  EXPECT_TRUE(call_status.ok()) << call_status.message();
  EXPECT_EQ(out, expected);
  std::uint64_t gpu_tasks = 0;
  for (std::size_t i = 0; i < health.size(); ++i) {
    EXPECT_EQ(health[i].faults_seen, 0u) << health[i].pe_name;
    if (health[i].cls == platform::PeClass::kGpu) gpu_tasks += stats.pes[i].tasks;
  }
  EXPECT_EQ(gpu_tasks, 1u);
}

TEST(ApiUnderRuntime, PollEventuallyTrue) {
  rt::RuntimeConfig config;
  config.platform = platform::host(1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("poll", [] {
    std::vector<cedr_cplx> buf(64);
    cedr_handle_t handle = CEDR_FFT_NB(buf.data(), buf.data(), 64);
    ASSERT_NE(handle, nullptr);
    while (!CEDR_POLL(handle)) {
    }
    EXPECT_TRUE(CEDR_WAIT(handle).ok());
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
}

}  // namespace
}  // namespace cedr
