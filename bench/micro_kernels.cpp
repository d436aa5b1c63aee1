// Microbenchmarks for the compute kernels (google-benchmark).
// Not tied to a paper figure; used to track the CPU reference
// implementations backing every libCEDR API.

#include <benchmark/benchmark.h>

#include "cedr/common/rng.h"
#include "cedr/kernels/conv.h"
#include "cedr/kernels/fft.h"
#include "cedr/kernels/image.h"
#include "cedr/kernels/mmult.h"
#include "cedr/kernels/radar.h"
#include "cedr/kernels/wifi.h"
#include "cedr/kernels/zip.h"

namespace {

using namespace cedr;
using namespace cedr::kernels;

std::vector<cfloat> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v) {
    x = cfloat(static_cast<float>(rng.uniform(-1, 1)),
               static_cast<float>(rng.uniform(-1, 1)));
  }
  return v;
}

// Out of place from a fixed input: transforming one buffer in place over
// and over grows it by up to n per forward pass, so after a few iterations
// the benchmark would time arithmetic on infinities and NaNs.
void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto data = random_complex(n, n);
  std::vector<cfloat> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft(data, out, false));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Ifft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto data = random_complex(n, n);
  std::vector<cfloat> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft(data, out, true));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Ifft)->Arg(256)->Arg(1024);

void BM_Zip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_complex(n, 1);
  const auto b = random_complex(n, 2);
  std::vector<cfloat> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zip(a, b, out, ZipOp::kMultiply));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Zip)->Arg(256)->Arg(1024)->Arg(65536);

void BM_MmultBlocked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmult_blocked(a, b, c, n, n, n));
  }
}
BENCHMARK(BM_MmultBlocked)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv2dFft(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<float> img(dim * dim), out(dim * dim);
  for (auto& v : img) v = static_cast<float>(rng.uniform(0, 1));
  const auto kern = gaussian_kernel(7, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_fft(img, dim, dim, kern, 7, out));
  }
}
BENCHMARK(BM_Conv2dFft)->Arg(64)->Arg(128);

void BM_ConvolutionalEncode(benchmark::State& state) {
  Rng rng(5);
  BitVec bits(1024);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_below(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(convolutional_encode(bits));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ConvolutionalEncode);

void BM_ViterbiDecode(benchmark::State& state) {
  Rng rng(6);
  BitVec bits(256);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_below(2));
  bits.insert(bits.end(), 6, 0);
  const BitVec coded = convolutional_encode(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(viterbi_decode(coded));
  }
}
BENCHMARK(BM_ViterbiDecode);

void BM_MatchedFilter(benchmark::State& state) {
  constexpr std::size_t kN = 256;
  const auto pulse = random_complex(kN, 7);
  auto chirp_freq = random_complex(kN, 8);
  std::vector<cfloat> out(kN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matched_filter(pulse, chirp_freq, out));
  }
}
BENCHMARK(BM_MatchedFilter);

void BM_HoughLines(benchmark::State& state) {
  Rng rng(9);
  RoadTruth truth;
  const RgbImage road = synthesize_road(96, 160, truth, 0.0, rng);
  const GrayImage gray = rgb_to_gray(road);
  const GrayImage edges = sobel_magnitude(gray);
  const GrayImage binary = threshold(edges, 0.9f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hough_lines(binary, 4, 20));
  }
}
BENCHMARK(BM_HoughLines);

}  // namespace

BENCHMARK_MAIN();
