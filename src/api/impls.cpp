#include "cedr/api/impls.h"

#include <chrono>
#include <cstring>

#include "cedr/kernels/fft.h"
#include "cedr/kernels/mmult.h"

namespace cedr::api {
namespace {

using platform::DeviceReg;

/// Polls the device status register to completion. Returns the final status
/// word. This busy-wait is intentional: it reproduces the driverless MMIO
/// flow where the accelerator's management thread occupies its CPU while
/// the IP core runs — the contention mechanism behind Fig. 10 (a).
std::uint32_t poll_until_done(platform::MmioDevice& device) {
  std::uint32_t status = device.read_reg(DeviceReg::kStatus);
  while (status == platform::kStatusBusy) {
    status = device.read_reg(DeviceReg::kStatus);
  }
  return status;
}

template <typename T>
std::span<const std::uint8_t> as_bytes_of(const T* data, std::size_t count) {
  return {reinterpret_cast<const std::uint8_t*>(data), count * sizeof(T)};
}

template <typename T>
std::span<std::uint8_t> as_writable_bytes_of(T* data, std::size_t count) {
  return {reinterpret_cast<std::uint8_t*>(data), count * sizeof(T)};
}

Status run_fft_on_device(task::ExecContext& ctx, const cfloat* in, cfloat* out,
                         std::size_t n, bool inverse) {
  if (ctx.device == nullptr) {
    return Internal("FFT scheduled to accelerator with no device");
  }
  platform::MmioDevice& dev = *ctx.device;
  CEDR_RETURN_IF_ERROR(dev.dma_write_a(as_bytes_of(in, n)));
  CEDR_RETURN_IF_ERROR(
      dev.write_reg(DeviceReg::kSize, static_cast<std::uint32_t>(n)));
  CEDR_RETURN_IF_ERROR(dev.write_reg(DeviceReg::kMode, inverse ? 1 : 0));
  CEDR_RETURN_IF_ERROR(dev.write_reg(DeviceReg::kControl, platform::kCmdStart));
  if (poll_until_done(dev) != platform::kStatusDone) {
    return Internal("FFT device reported error");
  }
  return dev.dma_read(as_writable_bytes_of(out, n));
}

Status run_zip_on_device(task::ExecContext& ctx, const cfloat* a,
                         const cfloat* b, cfloat* out, std::size_t n,
                         kernels::ZipOp op) {
  if (ctx.device == nullptr) {
    return Internal("ZIP scheduled to accelerator with no device");
  }
  platform::MmioDevice& dev = *ctx.device;
  CEDR_RETURN_IF_ERROR(dev.dma_write_a(as_bytes_of(a, n)));
  CEDR_RETURN_IF_ERROR(dev.dma_write_b(as_bytes_of(b, n)));
  CEDR_RETURN_IF_ERROR(
      dev.write_reg(DeviceReg::kSize, static_cast<std::uint32_t>(n)));
  CEDR_RETURN_IF_ERROR(dev.write_reg(
      DeviceReg::kMode, static_cast<std::uint32_t>(op)));
  CEDR_RETURN_IF_ERROR(dev.write_reg(DeviceReg::kControl, platform::kCmdStart));
  if (poll_until_done(dev) != platform::kStatusDone) {
    return Internal("ZIP device reported error");
  }
  return dev.dma_read(as_writable_bytes_of(out, n));
}

Status run_mmult_on_device(task::ExecContext& ctx, const float* a,
                           const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n) {
  if (ctx.device == nullptr) {
    return Internal("MMULT scheduled to accelerator with no device");
  }
  platform::MmioDevice& dev = *ctx.device;
  CEDR_RETURN_IF_ERROR(dev.dma_write_a(as_bytes_of(a, m * k)));
  CEDR_RETURN_IF_ERROR(dev.dma_write_b(as_bytes_of(b, k * n)));
  CEDR_RETURN_IF_ERROR(
      dev.write_reg(DeviceReg::kSize, static_cast<std::uint32_t>(m)));
  CEDR_RETURN_IF_ERROR(
      dev.write_reg(DeviceReg::kSizeAux, static_cast<std::uint32_t>(k)));
  CEDR_RETURN_IF_ERROR(
      dev.write_reg(DeviceReg::kSizeAux2, static_cast<std::uint32_t>(n)));
  CEDR_RETURN_IF_ERROR(dev.write_reg(DeviceReg::kControl, platform::kCmdStart));
  if (poll_until_done(dev) != platform::kStatusDone) {
    return Internal("MMULT device reported error");
  }
  return dev.dma_read(as_writable_bytes_of(c, m * n));
}

}  // namespace

ImplArray make_fft_impls(const cfloat* in, cfloat* out, std::size_t n,
                         bool inverse) {
  ImplArray impls{};
  impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
      [in, out, n, inverse](task::ExecContext&) {
        return kernels::fft({in, n}, {out, n}, inverse);
      };
  const auto device_impl = [in, out, n, inverse](task::ExecContext& ctx) {
    return run_fft_on_device(ctx, in, out, n, inverse);
  };
  // The Xilinx IP tops out at 2048 points; larger transforms fall back to
  // CPU and GPU support, which runnable_on() then enforces.
  if (n <= platform::kFftIpMaxPoints) {
    impls[static_cast<std::size_t>(platform::PeClass::kFftAccel)] = device_impl;
  }
  impls[static_cast<std::size_t>(platform::PeClass::kGpu)] = device_impl;
  return impls;
}

ImplArray make_zip_impls(const cfloat* a, const cfloat* b, cfloat* out,
                         std::size_t n, kernels::ZipOp op) {
  ImplArray impls{};
  impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
      [a, b, out, n, op](task::ExecContext&) {
        return kernels::zip({a, n}, {b, n}, {out, n}, op);
      };
  impls[static_cast<std::size_t>(platform::PeClass::kGpu)] =
      [a, b, out, n, op](task::ExecContext& ctx) {
        return run_zip_on_device(ctx, a, b, out, n, op);
      };
  return impls;
}

ImplArray make_mmult_impls(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n) {
  ImplArray impls{};
  impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
      [a, b, c, m, k, n](task::ExecContext&) {
        return kernels::mmult_blocked({a, m * k}, {b, k * n}, {c, m * n}, m, k,
                                      n);
      };
  impls[static_cast<std::size_t>(platform::PeClass::kMmultAccel)] =
      [a, b, c, m, k, n](task::ExecContext& ctx) {
        return run_mmult_on_device(ctx, a, b, c, m, k, n);
      };
  return impls;
}

ImplArray make_generic_impls(std::function<void()> fn,
                             std::size_t work_units) {
  ImplArray impls{};
  impls[static_cast<std::size_t>(platform::PeClass::kCpu)] =
      [fn = std::move(fn), work_units](task::ExecContext&) {
        if (fn) {
          fn();
        } else if (work_units > 0) {
          // Spin for ~work_units ns to model glue-node service time.
          const auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::nanoseconds(work_units);
          while (std::chrono::steady_clock::now() < deadline) {
          }
        }
        return Status::Ok();
      };
  return impls;
}

}  // namespace cedr::api
