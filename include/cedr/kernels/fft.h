#pragma once
// Fast Fourier Transform kernels.
//
// FFT is the workhorse kernel of all three paper applications: Pulse Doppler
// (256-point), WiFi TX (128-point IFFT) and Lane Detection (1024-point
// FFT/IFFT pairs for frequency-domain convolution). This is the CPU
// reference implementation that every platform must provide ("all APIs in
// this library provide, at a minimum, standard C/C++ implementations");
// accelerator-backed variants live in platform/ and call back into the same
// math through the emulated MMIO device.
//
// Plan cache: the first transform of each size builds an immutable plan
// (bit-reverse permutation plus contiguous per-stage twiddles) that serves
// both directions; the inverse reads the twiddles conjugated. Plans are
// shared by all threads without locking: each size is built exactly once
// under std::call_once, so concurrent first calls are safe. They are never
// freed, live for the whole process, and cost about 12 bytes per point for
// each size actually used. Nothing is built before the first call.

#include <cstddef>
#include <span>
#include <vector>

#include "cedr/common/math_util.h"
#include "cedr/common/status.h"

namespace cedr::kernels {

/// Largest transform the kernels accept.
inline constexpr std::size_t kMaxFftSize = std::size_t{1} << 24;

/// In-place iterative radix-2 Cooley-Tukey FFT.
/// `data.size()` must be a power of two in [1, kMaxFftSize].
/// `inverse` selects the inverse transform, which includes the 1/N scaling
/// so that ifft(fft(x)) == x. Results are deterministic: the same input
/// gives bit-identical output on every thread and every call.
Status fft_inplace(std::span<cfloat> data, bool inverse);

/// Out-of-place convenience wrapper; `out.size() == in.size()` required.
Status fft(std::span<const cfloat> in, std::span<cfloat> out, bool inverse);

/// O(N^2) direct DFT used as the test oracle for the fast path.
std::vector<cfloat> dft_reference(std::span<const cfloat> in, bool inverse);

/// Returns the two-sided magnitude spectrum |X[k]|.
std::vector<float> magnitude(std::span<const cfloat> spectrum);

/// Precomputed bit-reversal permutation for size n (power of two).
std::vector<std::uint32_t> bit_reverse_table(std::size_t n);

}  // namespace cedr::kernels
