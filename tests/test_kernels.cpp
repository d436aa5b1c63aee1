// Tests for ZIP, MMULT and convolution kernels.
#include <gtest/gtest.h>

#include "cedr/common/rng.h"
#include "cedr/kernels/conv.h"
#include "cedr/kernels/mmult.h"
#include "cedr/kernels/zip.h"

namespace cedr::kernels {
namespace {

std::vector<cfloat> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-2.0, 2.0)),
               static_cast<float>(rng.uniform(-2.0, 2.0)));
  }
  return v;
}

std::vector<float> random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(Zip, Multiply) {
  const auto a = random_complex(64, 1);
  const auto b = random_complex(64, 2);
  std::vector<cfloat> out(64);
  ASSERT_TRUE(zip(a, b, out, ZipOp::kMultiply).ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(std::abs(out[i] - a[i] * b[i]), 1e-5f);
  }
}

TEST(Zip, ConjugateMultiply) {
  const auto a = random_complex(32, 3);
  const auto b = random_complex(32, 4);
  std::vector<cfloat> out(32);
  ASSERT_TRUE(zip(a, b, out, ZipOp::kConjugateMultiply).ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(std::abs(out[i] - a[i] * std::conj(b[i])), 1e-5f);
  }
}

TEST(Zip, AddAndSubtractAreInverses) {
  const auto a = random_complex(48, 5);
  const auto b = random_complex(48, 6);
  std::vector<cfloat> sum(48), back(48);
  ASSERT_TRUE(zip(a, b, sum, ZipOp::kAdd).ok());
  ASSERT_TRUE(zip(sum, b, back, ZipOp::kSubtract).ok());
  EXPECT_LT(max_abs_diff(a, back), 1e-5f);
}

TEST(Zip, AllowsAliasedOutput) {
  auto a = random_complex(16, 7);
  const auto a_copy = a;
  const auto b = random_complex(16, 8);
  ASSERT_TRUE(zip(a, b, a, ZipOp::kMultiply).ok());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(std::abs(a[i] - a_copy[i] * b[i]), 1e-5f);
  }
}

TEST(Zip, AliasedOutputMatchesSeparateBuffer) {
  const auto a = random_complex(256, 11);
  const auto b = random_complex(256, 12);
  for (const ZipOp op : {ZipOp::kMultiply, ZipOp::kConjugateMultiply,
                         ZipOp::kAdd, ZipOp::kSubtract}) {
    std::vector<cfloat> separate(a.size());
    ASSERT_TRUE(zip(a, b, separate, op).ok());
    auto out_is_a = a;
    ASSERT_TRUE(zip(out_is_a, b, out_is_a, op).ok());
    auto out_is_b = b;
    ASSERT_TRUE(zip(a, out_is_b, out_is_b, op).ok());
    EXPECT_EQ(out_is_a, separate) << static_cast<int>(op);
    EXPECT_EQ(out_is_b, separate) << static_cast<int>(op);
  }
  std::vector<cfloat> scaled(a.size());
  scale(a, cfloat(0.5f, -1.5f), scaled);
  auto in_place = a;
  scale(in_place, cfloat(0.5f, -1.5f), in_place);
  EXPECT_EQ(in_place, scaled);
}

TEST(Zip, RejectsSizeMismatch) {
  std::vector<cfloat> a(4), b(5), out(4);
  EXPECT_EQ(zip(a, b, out, ZipOp::kAdd).code(), StatusCode::kInvalidArgument);
}

TEST(Zip, ScaleMultipliesEveryElement) {
  const auto a = random_complex(10, 9);
  std::vector<cfloat> out(10);
  scale(a, cfloat(0.0f, 2.0f), out);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(std::abs(out[i] - a[i] * cfloat(0.0f, 2.0f)), 1e-6f);
  }
}

TEST(Mmult, KnownSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  ASSERT_TRUE(mmult(a, b, c, 2, 2, 2).ok());
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Mmult, IdentityLeavesMatrixUnchanged) {
  constexpr std::size_t kN = 16;
  std::vector<float> eye(kN * kN, 0.0f);
  for (std::size_t i = 0; i < kN; ++i) eye[i * kN + i] = 1.0f;
  const auto m = random_real(kN * kN, 10);
  std::vector<float> out(kN * kN);
  ASSERT_TRUE(mmult(eye, m, out, kN, kN, kN).ok());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], m[i]);
}

struct MmultShape {
  std::size_t m, k, n;
};

class MmultShapes : public ::testing::TestWithParam<MmultShape> {};

TEST_P(MmultShapes, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const auto a = random_real(m * k, m + k);
  const auto b = random_real(k * n, k + n);
  std::vector<float> naive(m * n), blocked(m * n);
  ASSERT_TRUE(mmult(a, b, naive, m, k, n).ok());
  ASSERT_TRUE(mmult_blocked(a, b, blocked, m, k, n, 8).ok());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i], blocked[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MmultShapes,
    ::testing::Values(MmultShape{1, 1, 1}, MmultShape{3, 5, 7},
                      MmultShape{8, 8, 8}, MmultShape{16, 4, 32},
                      MmultShape{33, 17, 9}, MmultShape{64, 64, 64}));

TEST(Mmult, RejectsInconsistentShapes) {
  std::vector<float> a(6), b(6), c(6);
  EXPECT_EQ(mmult(a, b, c, 2, 3, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mmult(a, b, c, 0, 3, 2).code(), StatusCode::kInvalidArgument);
}

TEST(Mmult, TransposeIsInvolution) {
  constexpr std::size_t kM = 5, kN = 9;
  const auto m = random_real(kM * kN, 11);
  std::vector<float> t(kM * kN), back(kM * kN);
  transpose(m, t, kM, kN);
  transpose(t, back, kN, kM);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_FLOAT_EQ(back[i], m[i]);
}

TEST(Conv1d, DirectMatchesHandComputed) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{1, 1};
  const auto out = conv1d_direct(a, b);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FLOAT_EQ(out[0], 1);
  EXPECT_FLOAT_EQ(out[1], 3);
  EXPECT_FLOAT_EQ(out[2], 5);
  EXPECT_FLOAT_EQ(out[3], 3);
}

class ConvLengths
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ConvLengths, FftMatchesDirect) {
  const auto [la, lb] = GetParam();
  const auto a = random_real(la, la * 3 + 1);
  const auto b = random_real(lb, lb * 5 + 2);
  const auto direct = conv1d_direct(a, b);
  const auto viafft = conv1d_fft(a, b);
  ASSERT_TRUE(viafft.ok());
  ASSERT_EQ(viafft->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], (*viafft)[i], 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ConvLengths,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{4, 4},
                                           std::pair<std::size_t, std::size_t>{16, 5},
                                           std::pair<std::size_t, std::size_t>{31, 17},
                                           std::pair<std::size_t, std::size_t>{100, 64}));

TEST(CircularConv, MatchesBruteForce) {
  constexpr std::size_t kN = 16;
  const auto a = random_complex(kN, 12);
  const auto b = random_complex(kN, 13);
  std::vector<cfloat> fast(kN);
  ASSERT_TRUE(circular_conv_fft(a, b, fast).ok());
  for (std::size_t i = 0; i < kN; ++i) {
    cfloat acc(0.0f, 0.0f);
    for (std::size_t j = 0; j < kN; ++j) {
      acc += a[j] * b[(i + kN - j) % kN];
    }
    EXPECT_LT(std::abs(fast[i] - acc), 1e-3f);
  }
}

TEST(Conv2d, FftMatchesDirect) {
  constexpr std::size_t kRows = 24, kCols = 17, kK = 5;
  const auto img = random_real(kRows * kCols, 14);
  const auto kern = random_real(kK * kK, 15);
  std::vector<float> direct(kRows * kCols), viafft(kRows * kCols);
  ASSERT_TRUE(conv2d_direct(img, kRows, kCols, kern, kK, direct).ok());
  ASSERT_TRUE(conv2d_fft(img, kRows, kCols, kern, kK, viafft).ok());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], viafft[i], 1e-3f);
  }
}

TEST(Conv2d, RejectsEvenKernel) {
  std::vector<float> img(16), kern(16), out(16);
  EXPECT_EQ(conv2d_direct(img, 4, 4, kern, 4, out).code(),
            StatusCode::kInvalidArgument);
}

TEST(Conv2d, RejectsBufferMismatch) {
  std::vector<float> img(15), kern(9), out(16);
  EXPECT_EQ(conv2d_fft(img, 4, 4, kern, 3, out).code(),
            StatusCode::kInvalidArgument);
}

TEST(GaussianKernel, NormalizedAndSymmetric) {
  const auto k = gaussian_kernel(5, 1.2);
  ASSERT_EQ(k.size(), 25u);
  float total = 0.0f;
  for (const float v : k) total += v;
  EXPECT_NEAR(total, 1.0f, 1e-5f);
  // Center is the max; symmetric under 180-degree rotation.
  for (std::size_t i = 0; i < k.size(); ++i) {
    EXPECT_LE(k[i], k[12] + 1e-7f);
    EXPECT_NEAR(k[i], k[24 - i], 1e-6f);
  }
}

}  // namespace
}  // namespace cedr::kernels
