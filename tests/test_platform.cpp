// Tests for the platform model: PE support matrix, cost model, presets,
// JSON round-trips and the emulated MMIO devices.
#include <gtest/gtest.h>

#include "cedr/common/rng.h"
#include "cedr/kernels/fft.h"
#include "cedr/kernels/mmult.h"
#include "cedr/kernels/zip.h"
#include "cedr/platform/mmio_device.h"
#include "cedr/platform/platform.h"

namespace cedr::platform {
namespace {

TEST(KernelId, NamesRoundTrip) {
  for (std::size_t k = 0; k < kNumKernelIds; ++k) {
    const auto id = static_cast<KernelId>(k);
    const auto back = kernel_from_name(kernel_name(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(kernel_from_name("NOPE").has_value());
}

TEST(PeSupport, CpuRunsEverything) {
  for (std::size_t k = 0; k < kNumKernelIds; ++k) {
    EXPECT_TRUE(pe_class_supports(PeClass::kCpu, static_cast<KernelId>(k)));
  }
}

TEST(PeSupport, AcceleratorsAreFunctionSpecific) {
  EXPECT_TRUE(pe_class_supports(PeClass::kFftAccel, KernelId::kFft));
  EXPECT_TRUE(pe_class_supports(PeClass::kFftAccel, KernelId::kIfft));
  EXPECT_FALSE(pe_class_supports(PeClass::kFftAccel, KernelId::kZip));
  EXPECT_FALSE(pe_class_supports(PeClass::kFftAccel, KernelId::kGeneric));
  EXPECT_TRUE(pe_class_supports(PeClass::kMmultAccel, KernelId::kMmult));
  EXPECT_FALSE(pe_class_supports(PeClass::kMmultAccel, KernelId::kFft));
  // The Jetson GPU hosts FFT and ZIP CUDA kernels (paper §III).
  EXPECT_TRUE(pe_class_supports(PeClass::kGpu, KernelId::kFft));
  EXPECT_TRUE(pe_class_supports(PeClass::kGpu, KernelId::kZip));
  EXPECT_FALSE(pe_class_supports(PeClass::kGpu, KernelId::kMmult));
}

TEST(CostModel, PolynomialEvaluation) {
  KernelCost cost{.fixed_s = 1.0, .per_point_s = 2.0, .per_nlogn_s = 3.0};
  // n=4: 1 + 2*4 + 3*4*2 = 33
  EXPECT_DOUBLE_EQ(cost.eval(4), 33.0);
  EXPECT_DOUBLE_EQ(cost.eval(1), 3.0);  // log term vanishes at n=1
}

TEST(CostModel, UnsupportedPairingIsInfinite) {
  CostModel model;
  EXPECT_TRUE(std::isinf(
      model.estimate(KernelId::kGeneric, PeClass::kFftAccel, 100, 0)));
}

TEST(CostModel, TransferAddsOnlyForAccelerators) {
  CostModel model;
  model.set(KernelId::kFft, PeClass::kCpu, {.fixed_s = 1.0});
  model.set(KernelId::kFft, PeClass::kFftAccel, {.fixed_s = 1.0});
  model.set_transfer(PeClass::kFftAccel, /*seconds_per_byte=*/0.5,
                     /*fixed_s=*/2.0);
  EXPECT_DOUBLE_EQ(model.estimate(KernelId::kFft, PeClass::kCpu, 8, 100), 1.0);
  EXPECT_DOUBLE_EQ(model.estimate(KernelId::kFft, PeClass::kFftAccel, 8, 100),
                   1.0 + 2.0 + 50.0);
}

TEST(CostModel, JsonRoundTrip) {
  const PlatformConfig zcu = zcu102(3, 2, 1);
  auto parsed = CostModel::from_json(zcu.costs.to_json());
  ASSERT_TRUE(parsed.ok());
  for (std::size_t k = 0; k < kNumKernelIds; ++k) {
    for (std::size_t c = 0; c < kNumPeClasses; ++c) {
      const auto kernel = static_cast<KernelId>(k);
      const auto cls = static_cast<PeClass>(c);
      EXPECT_DOUBLE_EQ(parsed->estimate(kernel, cls, 256, 2048),
                       zcu.costs.estimate(kernel, cls, 256, 2048));
    }
  }
}

TEST(CostModel, FromJsonRejectsUnknownKernelName) {
  auto doc = json::parse(R"({"kernels": {"FFTT": {"cpu": {"fixed_s": 1.0}}}})");
  ASSERT_TRUE(doc.ok());
  auto parsed = CostModel::from_json(*doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // The error must name the offending key, not silently skip it.
  EXPECT_NE(parsed.status().to_string().find("FFTT"), std::string::npos)
      << parsed.status().to_string();
}

TEST(CostModel, FromJsonRejectsUnknownPeClassName) {
  auto doc = json::parse(R"({"kernels": {"FFT": {"cppu": {"fixed_s": 1.0}}}})");
  ASSERT_TRUE(doc.ok());
  auto parsed = CostModel::from_json(*doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().to_string().find("cppu"), std::string::npos)
      << parsed.status().to_string();

  auto transfers = json::parse(R"({"transfers": {"fftt": {"fixed_s": 1.0}}})");
  ASSERT_TRUE(transfers.ok());
  auto parsed2 = CostModel::from_json(*transfers);
  ASSERT_FALSE(parsed2.ok());
  EXPECT_NE(parsed2.status().to_string().find("fftt"), std::string::npos);
}

TEST(CostModel, FromJsonRejectsNegativeCoefficients) {
  auto doc = json::parse(
      R"({"kernels": {"FFT": {"cpu": {"fixed_s": 1.0, "per_point_s": -2.0}}}})");
  ASSERT_TRUE(doc.ok());
  auto parsed = CostModel::from_json(*doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().to_string().find("per_point_s"), std::string::npos)
      << parsed.status().to_string();

  auto transfers =
      json::parse(R"({"transfers": {"fft": {"per_byte_s": -1e-9}}})");
  ASSERT_TRUE(transfers.ok());
  EXPECT_FALSE(CostModel::from_json(*transfers).ok());
}

TEST(CostModel, FromJsonAcceptsValidDocument) {
  auto doc = json::parse(
      R"({"kernels": {"FFT": {"cpu": {"fixed_s": 1.0, "per_point_s": 2.0}}},
          "transfers": {"fft": {"per_byte_s": 1e-9, "fixed_s": 1e-6}}})");
  ASSERT_TRUE(doc.ok());
  auto parsed = CostModel::from_json(*doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->get(KernelId::kFft, PeClass::kCpu).fixed_s, 1.0);
  EXPECT_DOUBLE_EQ(parsed->get(KernelId::kFft, PeClass::kCpu).per_point_s, 2.0);
}

TEST(PeClassNames, RoundTrip) {
  for (std::size_t c = 0; c < kNumPeClasses; ++c) {
    const auto cls = static_cast<PeClass>(c);
    const auto back = pe_class_from_name(pe_class_name(cls));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, cls);
  }
  EXPECT_FALSE(pe_class_from_name("not-a-class").has_value());
  EXPECT_FALSE(pe_class_from_name("").has_value());
}

TEST(Platform, Zcu102Preset) {
  const PlatformConfig p = zcu102(3, 8, 1);
  EXPECT_TRUE(p.validate().ok());
  EXPECT_EQ(p.count(PeClass::kCpu), 3u);
  EXPECT_EQ(p.count(PeClass::kFftAccel), 8u);
  EXPECT_EQ(p.count(PeClass::kMmultAccel), 1u);
  EXPECT_EQ(p.worker_cores, 3u);
  EXPECT_EQ(p.total_app_cores, 3u);
}

TEST(Platform, JetsonPresetHasSevenAppCores) {
  const PlatformConfig p = jetson(3, 1);
  EXPECT_TRUE(p.validate().ok());
  EXPECT_EQ(p.count(PeClass::kCpu), 3u);
  EXPECT_EQ(p.count(PeClass::kGpu), 1u);
  // OS spreads app threads across all 7 non-runtime cores (paper §IV-C).
  EXPECT_EQ(p.total_app_cores, 7u);
}

TEST(Platform, ValidationCatchesBadConfigs) {
  PlatformConfig p = zcu102(3, 1, 0);
  p.pes[1].name = p.pes[0].name;  // duplicate
  EXPECT_FALSE(p.validate().ok());

  PlatformConfig q = zcu102(3, 0, 0);
  q.worker_cores = 0;
  EXPECT_FALSE(q.validate().ok());

  PlatformConfig r = zcu102(3, 0, 0);
  r.pes.clear();
  EXPECT_FALSE(r.validate().ok());
}

TEST(Platform, JsonRoundTrip) {
  const PlatformConfig p = jetson(5, 1);
  auto parsed = PlatformConfig::from_json(p.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "jetson");
  EXPECT_EQ(parsed->pes.size(), p.pes.size());
  EXPECT_EQ(parsed->worker_cores, p.worker_cores);
  EXPECT_EQ(parsed->total_app_cores, p.total_app_cores);
  for (std::size_t i = 0; i < p.pes.size(); ++i) {
    EXPECT_EQ(parsed->pes[i].name, p.pes[i].name);
    EXPECT_EQ(parsed->pes[i].cls, p.pes[i].cls);
  }
}

// ---- Emulated MMIO devices ------------------------------------------------

template <typename T>
std::span<const std::uint8_t> bytes_of(const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

template <typename T>
std::span<std::uint8_t> writable_bytes_of(std::vector<T>& v) {
  return {reinterpret_cast<std::uint8_t*>(v.data()), v.size() * sizeof(T)};
}

std::uint32_t poll(MmioDevice& device) {
  std::uint32_t status = device.read_reg(DeviceReg::kStatus);
  int spins = 0;
  while (status == kStatusBusy && spins++ < 100000) {
    status = device.read_reg(DeviceReg::kStatus);
  }
  return status;
}

TEST(FftDevice, MatchesCpuKernelThroughMmioProtocol) {
  constexpr std::size_t kN = 256;
  Rng rng(1);
  std::vector<cfloat> input(kN);
  for (auto& v : input) {
    v = cfloat(static_cast<float>(rng.uniform(-1, 1)),
               static_cast<float>(rng.uniform(-1, 1)));
  }
  FftDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(input)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, kN).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kMode, 0).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(poll(device), kStatusDone);
  std::vector<cfloat> output(kN);
  ASSERT_TRUE(device.dma_read(writable_bytes_of(output)).ok());

  std::vector<cfloat> expected(kN);
  ASSERT_TRUE(kernels::fft(input, expected, false).ok());
  EXPECT_LT(max_abs_diff(output, expected), 1e-6f);
}

TEST(FftDevice, InverseModeAndReArm) {
  constexpr std::size_t kN = 64;
  std::vector<cfloat> input(kN, cfloat(1.0f, 0.0f));
  FftDevice device;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(device.dma_write_a(bytes_of(input)).ok());
    ASSERT_TRUE(device.write_reg(DeviceReg::kSize, kN).ok());
    ASSERT_TRUE(device.write_reg(DeviceReg::kMode, 1).ok());  // inverse
    ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
    EXPECT_EQ(poll(device), kStatusDone);
    std::vector<cfloat> output(kN);
    ASSERT_TRUE(device.dma_read(writable_bytes_of(output)).ok());
    // IFFT of constant 1 -> delta/N scaled: output[0] == 1, rest 0.
    EXPECT_NEAR(output[0].real(), 1.0f, 1e-5f);
    EXPECT_NEAR(std::abs(output[5]), 0.0f, 1e-5f);
    // dma_read re-armed the device; status back to idle.
    EXPECT_EQ(device.read_reg(DeviceReg::kStatus), kStatusIdle);
  }
}

TEST(FftDevice, RejectsOversizeTransforms) {
  // The paper's IP supports up to 2048-point FFTs.
  std::vector<cfloat> input(4096);
  FftDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(input)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, 4096).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(device.read_reg(DeviceReg::kStatus), kStatusError);
}

TEST(FftDevice, GpuClassRunsBeyondTheIpCap) {
  // A GPU-backed device takes every size the kernel does.
  constexpr std::size_t kN = 4096;
  Rng rng(3);
  std::vector<cfloat> input(kN);
  for (auto& v : input) {
    v = cfloat(static_cast<float>(rng.uniform(-1, 1)),
               static_cast<float>(rng.uniform(-1, 1)));
  }
  FftDevice device(kernels::kMaxFftSize);
  for (const std::uint32_t mode : {0u, 1u}) {
    ASSERT_TRUE(device.dma_write_a(bytes_of(input)).ok());
    ASSERT_TRUE(device.write_reg(DeviceReg::kSize, kN).ok());
    ASSERT_TRUE(device.write_reg(DeviceReg::kMode, mode).ok());
    ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
    EXPECT_EQ(poll(device), kStatusDone);
    std::vector<cfloat> output(kN);
    ASSERT_TRUE(device.dma_read(writable_bytes_of(output)).ok());
    std::vector<cfloat> expected(kN);
    ASSERT_TRUE(kernels::fft(input, expected, mode != 0).ok());
    EXPECT_EQ(output, expected) << "mode " << mode;
  }
}

TEST(FftDevice, RejectsOperandSizeMismatch) {
  std::vector<cfloat> input(32);
  FftDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(input)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, 64).ok());  // wrong
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(device.read_reg(DeviceReg::kStatus), kStatusError);
}

TEST(FftDevice, DmaReadBeforeCompletionFails) {
  FftDevice device;
  std::vector<cfloat> out(8);
  EXPECT_EQ(device.dma_read(writable_bytes_of(out)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FftDevice, StatusRegisterIsReadOnly) {
  FftDevice device;
  EXPECT_EQ(device.write_reg(DeviceReg::kStatus, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(FftDevice, LatencyScalesWithSize) {
  FftDevice device;
  EXPECT_GE(device.latency_polls(2048), device.latency_polls(256));
  EXPECT_GE(device.latency_polls(16), 1u);
}

TEST(ZipDevice, MatchesCpuKernel) {
  constexpr std::size_t kN = 128;
  Rng rng(2);
  std::vector<cfloat> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = cfloat(static_cast<float>(rng.uniform(-1, 1)), 0.5f);
    b[i] = cfloat(0.25f, static_cast<float>(rng.uniform(-1, 1)));
  }
  ZipDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(a)).ok());
  ASSERT_TRUE(device.dma_write_b(bytes_of(b)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, kN).ok());
  ASSERT_TRUE(device.write_reg(
      DeviceReg::kMode,
      static_cast<std::uint32_t>(kernels::ZipOp::kConjugateMultiply)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(poll(device), kStatusDone);
  std::vector<cfloat> out(kN);
  ASSERT_TRUE(device.dma_read(writable_bytes_of(out)).ok());
  std::vector<cfloat> expected(kN);
  ASSERT_TRUE(
      kernels::zip(a, b, expected, kernels::ZipOp::kConjugateMultiply).ok());
  EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
}

TEST(ZipDevice, RejectsBadMode) {
  std::vector<cfloat> a(8), b(8);
  ZipDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(a)).ok());
  ASSERT_TRUE(device.dma_write_b(bytes_of(b)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, 8).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kMode, 17).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(device.read_reg(DeviceReg::kStatus), kStatusError);
}

TEST(MmultDevice, MatchesCpuKernel) {
  constexpr std::size_t kM = 7, kK = 5, kN = 9;
  Rng rng(3);
  std::vector<float> a(kM * kK), b(kK * kN);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  MmultDevice device;
  ASSERT_TRUE(device.dma_write_a(bytes_of(a)).ok());
  ASSERT_TRUE(device.dma_write_b(bytes_of(b)).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, kM).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSizeAux, kK).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kSizeAux2, kN).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kControl, kCmdStart).ok());
  EXPECT_EQ(poll(device), kStatusDone);
  std::vector<float> out(kM * kN);
  ASSERT_TRUE(device.dma_read(writable_bytes_of(out)).ok());
  std::vector<float> expected(kM * kN);
  ASSERT_TRUE(kernels::mmult(a, b, expected, kM, kK, kN).ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-4f);
  }
}

TEST(MmioDevice, ConfigRegistersReadBack) {
  FftDevice device;
  ASSERT_TRUE(device.write_reg(DeviceReg::kSize, 512).ok());
  ASSERT_TRUE(device.write_reg(DeviceReg::kMode, 1).ok());
  EXPECT_EQ(device.read_reg(DeviceReg::kSize), 512u);
  EXPECT_EQ(device.read_reg(DeviceReg::kMode), 1u);
}

}  // namespace
}  // namespace cedr::platform
