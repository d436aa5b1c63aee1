#include "cedr/kernels/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>

namespace cedr::kernels {
namespace {

/// Everything a transform of one size needs besides the data: built once,
/// then only read, so any number of threads share it without locking.
struct FftPlan {
  explicit FftPlan(std::size_t size)
      : n(size), bit_reverse(bit_reverse_table(size)), tw_re(size),
        tw_im(size) {
    // Stage h (butterfly span 2h) multiplies by w^k = exp(-i*pi*k/h),
    // k < h. Storing each stage at [h, 2h) gives it one contiguous run;
    // slot 0 is unused. The inverse reads the same table conjugated.
    for (std::size_t h = 1; h < n; h <<= 1) {
      for (std::size_t k = 0; k < h; ++k) {
        const double angle =
            -kPi * static_cast<double>(k) / static_cast<double>(h);
        tw_re[h + k] = static_cast<float>(std::cos(angle));
        tw_im[h + k] = static_cast<float>(std::sin(angle));
      }
    }
  }

  std::size_t n;
  std::vector<std::uint32_t> bit_reverse;
  std::vector<float> tw_re;
  std::vector<float> tw_im;
};

/// The plan for size n (a power of two <= kMaxFftSize), built on first use.
/// Plans live in static storage and are never freed: lookup takes no lock,
/// and a worker thread still transforming at process exit never sees one
/// destroyed.
const FftPlan& plan_for(std::size_t n) {
  struct Slot {
    std::once_flag once;
    const FftPlan* plan = nullptr;
  };
  static Slot slots[std::countr_zero(kMaxFftSize) + 1];
  Slot& slot = slots[std::countr_zero(n)];
  std::call_once(slot.once, [&slot, n] { slot.plan = new FftPlan(n); });
  return *slot.plan;
}

/// Iterative radix-2 butterflies over bit-reversed input, on the
/// interleaved re/im floats std::complex guarantees. Real arithmetic: the
/// complex operator* compiles to a __mulsc3 library call per product.
template <bool kInverse>
void butterflies(const FftPlan& plan, float* data) {
  const std::size_t n = plan.n;
  for (std::size_t h = 1; h < n; h <<= 1) {
    const float* wr = plan.tw_re.data() + h;
    const float* wi = plan.tw_im.data() + h;
    for (std::size_t base = 0; base < n; base += 2 * h) {
      float* lo = data + 2 * base;
      float* hi = lo + 2 * h;
      for (std::size_t k = 0; k < h; ++k) {
        const float c = wr[k];
        const float s = kInverse ? -wi[k] : wi[k];
        const float xr = hi[2 * k];
        const float xi = hi[2 * k + 1];
        const float tr = c * xr - s * xi;
        const float ti = c * xi + s * xr;
        const float ur = lo[2 * k];
        const float ui = lo[2 * k + 1];
        lo[2 * k] = ur + tr;
        lo[2 * k + 1] = ui + ti;
        hi[2 * k] = ur - tr;
        hi[2 * k + 1] = ui - ti;
      }
    }
  }
}

}  // namespace

std::vector<std::uint32_t> bit_reverse_table(std::size_t n) {
  std::vector<std::uint32_t> table(n);
  const unsigned bits = log2_exact(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t rev = 0;
    std::uint32_t v = static_cast<std::uint32_t>(i);
    for (unsigned b = 0; b < bits; ++b) {
      rev = (rev << 1) | (v & 1u);
      v >>= 1;
    }
    table[i] = rev;
  }
  return table;
}

Status fft_inplace(std::span<cfloat> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return InvalidArgument("FFT of empty buffer");
  if (!is_power_of_two(n)) {
    return InvalidArgument("FFT size must be a power of two, got " +
                           std::to_string(n));
  }
  if (n > kMaxFftSize) {
    return OutOfRange("FFT size exceeds 2^24");
  }
  if (n == 1) return Status::Ok();

  const FftPlan& plan = plan_for(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rev = plan.bit_reverse[i];
    if (rev > i) std::swap(data[i], data[rev]);
  }
  float* raw = reinterpret_cast<float*>(data.data());
  if (inverse) {
    butterflies<true>(plan, raw);
    const float scale = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) raw[i] *= scale;
  } else {
    butterflies<false>(plan, raw);
  }
  return Status::Ok();
}

Status fft(std::span<const cfloat> in, std::span<cfloat> out, bool inverse) {
  if (in.size() != out.size()) {
    return InvalidArgument("FFT input/output size mismatch");
  }
  std::copy(in.begin(), in.end(), out.begin());
  return fft_inplace(out, inverse);
}

std::vector<cfloat> dft_reference(std::span<const cfloat> in, bool inverse) {
  const std::size_t n = in.size();
  std::vector<cfloat> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * kPi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += std::complex<double>(in[t].real(), in[t].imag()) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    if (inverse) acc /= static_cast<double>(n);
    out[k] = cfloat(static_cast<float>(acc.real()),
                    static_cast<float>(acc.imag()));
  }
  return out;
}

std::vector<float> magnitude(std::span<const cfloat> spectrum) {
  std::vector<float> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    out[i] = std::abs(spectrum[i]);
  }
  return out;
}

}  // namespace cedr::kernels
