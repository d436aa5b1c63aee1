// FFT kernel tests: oracle comparison, algebraic properties, error paths,
// and the shared plan cache under concurrent first use.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>

#include "cedr/common/rng.h"
#include "cedr/kernels/fft.h"

namespace cedr::kernels {
namespace {

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> signal(n);
  for (auto& s : signal) {
    s = cfloat(static_cast<float>(rng.uniform(-1.0, 1.0)),
               static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  return signal;
}

bool bit_identical(std::span<const cfloat> a, std::span<const cfloat> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

// Defined first so that when the whole binary runs in one process these
// threads make its first transform calls and race to build every plan.
TEST(FftPlanCache, ConcurrentFirstCallsMatchSingleThreaded) {
  struct Job {
    std::vector<cfloat> input;
    bool inverse;
  };
  std::vector<Job> jobs;
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    jobs.push_back({random_signal(n, 100 + n), false});
    jobs.push_back({random_signal(n, 200 + n), true});
  }
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::vector<cfloat>>> results(
      kThreads, std::vector<std::vector<cfloat>>(jobs.size()));
  std::vector<std::size_t> failures(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each thread walks the sizes from its own offset, so threads meet on
      // the same size from both directions at once.
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t idx = (j + t * 3) % jobs.size();
        const Job& job = jobs[idx];
        std::vector<cfloat>& out = results[t][idx];
        out.resize(job.input.size());
        if (!fft(job.input, out, job.inverse).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<cfloat> expected(jobs[j].input.size());
    ASSERT_TRUE(fft(jobs[j].input, expected, jobs[j].inverse).ok());
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(bit_identical(results[t][j], expected))
          << "thread " << t << " size " << expected.size() << " inverse "
          << jobs[j].inverse;
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0u);
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesDirectDft) {
  const std::size_t n = GetParam();
  const std::vector<cfloat> signal = random_signal(n, n);
  std::vector<cfloat> fast(n);
  ASSERT_TRUE(fft(signal, fast, /*inverse=*/false).ok());
  const std::vector<cfloat> slow = dft_reference(signal, /*inverse=*/false);
  EXPECT_LT(max_abs_diff(fast, slow), 2e-3f * static_cast<float>(n));
}

TEST_P(FftSizes, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const std::vector<cfloat> signal = random_signal(n, n + 1);
  std::vector<cfloat> freq(n), back(n);
  ASSERT_TRUE(fft(signal, freq, false).ok());
  ASSERT_TRUE(fft(freq, back, true).ok());
  EXPECT_LT(max_abs_diff(signal, back), 1e-4f);
}

TEST_P(FftSizes, ParsevalEnergyConservation) {
  const std::size_t n = GetParam();
  const std::vector<cfloat> signal = random_signal(n, n + 2);
  std::vector<cfloat> freq(n);
  ASSERT_TRUE(fft(signal, freq, false).ok());
  // sum |x|^2 == (1/N) sum |X|^2 for the unnormalized forward transform.
  EXPECT_NEAR(energy(signal), energy(freq) / static_cast<double>(n),
              1e-3 * energy(signal) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 128, 256, 512,
                                           1024, 2048));

// Tighter than FftSizes' absolute bounds: the worst error relative to the
// reference's largest magnitude. A single-precision radix-2 FFT reads about
// 1.5e-7 here; 1e-6 catches a lost digit that the bounds above would not.
TEST(FftAccuracy, RelativeErrorWithinOnePpm) {
  for (std::size_t n = 64; n <= 2048; n <<= 1) {
    for (const bool inverse : {false, true}) {
      const std::vector<cfloat> signal = random_signal(n, 7 * n + inverse);
      std::vector<cfloat> fast(n);
      ASSERT_TRUE(fft(signal, fast, inverse).ok());
      const std::vector<cfloat> slow = dft_reference(signal, inverse);
      float peak = 0.0f;
      for (const cfloat& v : slow) peak = std::max(peak, std::abs(v));
      EXPECT_LE(max_abs_diff(fast, slow) / peak, 1e-6f)
          << "size " << n << " inverse " << inverse;
    }
  }
}

TEST(Fft, AlternatingDirectionsMatchFreshCalls) {
  for (const std::size_t n : {256u, 1024u}) {
    const std::vector<cfloat> x = random_signal(n, n + 5);
    // Reference results from a thread that has run no transform before.
    std::vector<cfloat> fresh_fwd(n), fresh_inv(n);
    std::thread([&] {
      ASSERT_TRUE(fft(x, fresh_fwd, false).ok());
    }).join();
    std::thread([&] {
      ASSERT_TRUE(fft(x, fresh_inv, true).ok());
    }).join();
    // FFT, IFFT, FFT back to back on one thread.
    std::vector<cfloat> fwd1(n), inv(n), fwd2(n);
    ASSERT_TRUE(fft(x, fwd1, false).ok());
    ASSERT_TRUE(fft(x, inv, true).ok());
    ASSERT_TRUE(fft(x, fwd2, false).ok());
    EXPECT_TRUE(bit_identical(fwd1, fresh_fwd));
    EXPECT_TRUE(bit_identical(inv, fresh_inv));
    EXPECT_TRUE(bit_identical(fwd2, fresh_fwd));
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cfloat> x(64, cfloat(0.0f, 0.0f));
  x[0] = cfloat(1.0f, 0.0f);
  ASSERT_TRUE(fft_inplace(x, false).ok());
  for (const cfloat& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft, DcGivesSingleBin) {
  std::vector<cfloat> x(32, cfloat(2.0f, 0.0f));
  ASSERT_TRUE(fft_inplace(x, false).ok());
  EXPECT_NEAR(x[0].real(), 64.0f, 1e-4f);
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0f, 1e-4f);
  }
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  constexpr std::size_t kN = 128;
  constexpr std::size_t kBin = 5;
  std::vector<cfloat> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double phase = 2.0 * kPi * kBin * i / kN;
    x[i] = cfloat(static_cast<float>(std::cos(phase)),
                  static_cast<float>(std::sin(phase)));
  }
  ASSERT_TRUE(fft_inplace(x, false).ok());
  const std::vector<float> mags = magnitude(x);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < kN; ++i) {
    if (mags[i] > mags[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, kBin);
  EXPECT_NEAR(mags[kBin], static_cast<float>(kN), 1e-3f);
}

TEST(Fft, LinearityProperty) {
  constexpr std::size_t kN = 256;
  const auto a = random_signal(kN, 31);
  const auto b = random_signal(kN, 37);
  const cfloat alpha(1.5f, -0.5f);
  std::vector<cfloat> combined(kN);
  for (std::size_t i = 0; i < kN; ++i) combined[i] = alpha * a[i] + b[i];
  std::vector<cfloat> fa(kN), fb(kN), fc(kN);
  ASSERT_TRUE(fft(a, fa, false).ok());
  ASSERT_TRUE(fft(b, fb, false).ok());
  ASSERT_TRUE(fft(combined, fc, false).ok());
  std::vector<cfloat> expected(kN);
  for (std::size_t i = 0; i < kN; ++i) expected[i] = alpha * fa[i] + fb[i];
  EXPECT_LT(max_abs_diff(fc, expected), 1e-2f);
}

TEST(Fft, RejectsEmptyBuffer) {
  std::vector<cfloat> empty;
  EXPECT_EQ(fft_inplace(empty, false).code(), StatusCode::kInvalidArgument);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cfloat> x(100);
  EXPECT_EQ(fft_inplace(x, false).code(), StatusCode::kInvalidArgument);
}

TEST(Fft, RejectsSizeMismatch) {
  std::vector<cfloat> in(8), out(16);
  EXPECT_EQ(fft(in, out, false).code(), StatusCode::kInvalidArgument);
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<cfloat> x{cfloat(3.0f, -2.0f)};
  ASSERT_TRUE(fft_inplace(x, false).ok());
  EXPECT_EQ(x[0], cfloat(3.0f, -2.0f));
}

TEST(Fft, BitReverseTableIsInvolution) {
  for (const std::size_t n : {2u, 8u, 64u, 1024u}) {
    const auto table = bit_reverse_table(n);
    ASSERT_EQ(table.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(table[table[i]], i);
      EXPECT_LT(table[i], n);
    }
  }
}

TEST(Fft, MagnitudeMatchesAbs) {
  const auto x = random_signal(16, 41);
  const auto mags = magnitude(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(mags[i], std::abs(x[i]));
  }
}

TEST(Fft, RepeatedTransformsWithDifferentSizesShareThread) {
  // Exercises plan lookup across sizes and directions on one thread.
  for (const std::size_t n : {16u, 64u, 16u, 256u, 64u}) {
    const auto x = random_signal(n, n * 3);
    std::vector<cfloat> freq(n), back(n);
    ASSERT_TRUE(fft(x, freq, false).ok());
    ASSERT_TRUE(fft(freq, back, true).ok());
    EXPECT_LT(max_abs_diff(x, back), 1e-4f);
  }
}

}  // namespace
}  // namespace cedr::kernels
