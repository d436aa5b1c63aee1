#include "cedr/kernels/zip.h"

namespace cedr::kernels {
namespace {

// Complex products in real arithmetic: std::complex's operator* compiles to
// a __mulsc3 library call per element. Both operands are read before `out`
// is written, so `out` may alias `a` or `b`.
void multiply(std::span<const cfloat> a, std::span<const cfloat> b,
              std::span<cfloat> out, float conj_sign) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float ar = a[i].real();
    const float ai = a[i].imag();
    const float br = b[i].real();
    const float bi = conj_sign * b[i].imag();
    out[i] = cfloat(ar * br - ai * bi, ar * bi + ai * br);
  }
}

}  // namespace

Status zip(std::span<const cfloat> a, std::span<const cfloat> b,
           std::span<cfloat> out, ZipOp op) {
  if (a.size() != b.size() || a.size() != out.size()) {
    return InvalidArgument("zip operand size mismatch");
  }
  switch (op) {
    case ZipOp::kMultiply:
      multiply(a, b, out, 1.0f);
      break;
    case ZipOp::kConjugateMultiply:
      multiply(a, b, out, -1.0f);
      break;
    case ZipOp::kAdd:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
      break;
    case ZipOp::kSubtract:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
      break;
  }
  return Status::Ok();
}

void scale(std::span<const cfloat> a, cfloat scale_factor,
           std::span<cfloat> out) {
  const std::size_t n = std::min(a.size(), out.size());
  const float sr = scale_factor.real();
  const float si = scale_factor.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const float ar = a[i].real();
    const float ai = a[i].imag();
    out[i] = cfloat(ar * sr - ai * si, ar * si + ai * sr);
  }
}

}  // namespace cedr::kernels
