#include "cedr/platform/mmio_device.h"

#include <algorithm>
#include <cstring>

#include "cedr/kernels/fft.h"
#include "cedr/kernels/mmult.h"
#include "cedr/kernels/zip.h"

namespace cedr::platform {

Status MmioDevice::dma_write_a(std::span<const std::uint8_t> bytes) {
  std::lock_guard lock(mutex_);
  if (status_ == kStatusBusy) {
    return FailedPrecondition("DMA write while device busy");
  }
  operand_a_.assign(bytes.begin(), bytes.end());
  return Status::Ok();
}

Status MmioDevice::dma_write_b(std::span<const std::uint8_t> bytes) {
  std::lock_guard lock(mutex_);
  if (status_ == kStatusBusy) {
    return FailedPrecondition("DMA write while device busy");
  }
  operand_b_.assign(bytes.begin(), bytes.end());
  return Status::Ok();
}

Status MmioDevice::dma_read(std::span<std::uint8_t> bytes) {
  std::lock_guard lock(mutex_);
  if (status_ != kStatusDone) {
    return FailedPrecondition("DMA read before completion");
  }
  if (bytes.size() > result_.size()) {
    return OutOfRange("DMA read larger than result buffer");
  }
  std::copy_n(result_.begin(), bytes.size(), bytes.begin());
  status_ = kStatusIdle;  // readback re-arms the device
  return Status::Ok();
}

Status MmioDevice::write_reg(DeviceReg reg, std::uint32_t value) {
  std::lock_guard lock(mutex_);
  if (status_ == kStatusBusy) {
    return FailedPrecondition("register write while device busy");
  }
  switch (reg) {
    case DeviceReg::kSize:
      reg_size_ = value;
      return Status::Ok();
    case DeviceReg::kMode:
      reg_mode_ = value;
      return Status::Ok();
    case DeviceReg::kSizeAux:
      reg_size_aux_ = value;
      return Status::Ok();
    case DeviceReg::kSizeAux2:
      reg_size_aux2_ = value;
      return Status::Ok();
    case DeviceReg::kControl: {
      if (value != kCmdStart) {
        return InvalidArgument("unsupported control command");
      }
      if (hang_armed_) {
        // Injected hang: the IP core wedges instead of computing. The
        // status register stays busy until the emulated watchdog fires.
        hang_armed_ = false;
        status_ = kStatusBusy;
        polls_remaining_ = 0;
        return Status::Ok();
      }
      // The IP core "runs" now; completion is revealed after latency_polls
      // status reads, emulating the busy window a real worker polls through.
      const Status result = execute();
      status_ = result.ok() ? kStatusBusy : kStatusError;
      polls_remaining_ = result.ok() ? latency_polls(reg_size_) : 0;
      return Status::Ok();
    }
    case DeviceReg::kStatus:
      return InvalidArgument("status register is read-only");
  }
  return InvalidArgument("unknown register");
}

std::uint32_t MmioDevice::read_reg(DeviceReg reg) {
  std::lock_guard lock(mutex_);
  switch (reg) {
    case DeviceReg::kStatus:
      if (status_ == kStatusBusy) {
        if (hang_polls_remaining_ > 0) {
          // Hung operation: busy until the watchdog countdown expires.
          if (--hang_polls_remaining_ == 0) status_ = kStatusError;
        } else {
          if (polls_remaining_ > 0) --polls_remaining_;
          if (polls_remaining_ == 0) status_ = kStatusDone;
        }
      }
      return status_;
    case DeviceReg::kControl: return 0;
    case DeviceReg::kSize: return reg_size_;
    case DeviceReg::kMode: return reg_mode_;
    case DeviceReg::kSizeAux: return reg_size_aux_;
    case DeviceReg::kSizeAux2: return reg_size_aux2_;
  }
  return 0;
}

void MmioDevice::inject_hang(std::uint32_t watchdog_polls) {
  std::lock_guard lock(mutex_);
  hang_armed_ = true;
  hang_polls_remaining_ = std::max<std::uint32_t>(1, watchdog_polls);
}

void MmioDevice::reset() {
  std::lock_guard lock(mutex_);
  status_ = kStatusIdle;
  polls_remaining_ = 0;
  hang_armed_ = false;
  hang_polls_remaining_ = 0;
}

std::uint32_t MmioDevice::latency_polls(std::uint32_t n) const noexcept {
  // One poll per 256 elements, at least one: scales the polling loop with
  // problem size the way the real streaming IP would.
  return std::max<std::uint32_t>(1, n / 256);
}

Status FftDevice::execute() {
  const std::size_t n = reg_size_;
  if (n == 0 || !is_power_of_two(n) || n > max_points_) {
    return InvalidArgument("FFT device size must be a power of two <= " +
                           std::to_string(max_points_));
  }
  if (operand_a_.size() != n * sizeof(cfloat)) {
    return InvalidArgument("FFT device operand size mismatch");
  }
  // Transform the operand where it lies and hand its buffer to the result:
  // no copy per operation. The next dma_write_a refills operand A.
  const std::span<cfloat> data(reinterpret_cast<cfloat*>(operand_a_.data()),
                               n);
  CEDR_RETURN_IF_ERROR(kernels::fft_inplace(data, /*inverse=*/reg_mode_ != 0));
  result_.swap(operand_a_);
  return Status::Ok();
}

Status ZipDevice::execute() {
  const std::size_t n = reg_size_;
  if (n == 0) return InvalidArgument("ZIP device size is zero");
  if (operand_a_.size() != n * sizeof(cfloat) ||
      operand_b_.size() != n * sizeof(cfloat)) {
    return InvalidArgument("ZIP device operand size mismatch");
  }
  if (reg_mode_ > 3) return InvalidArgument("ZIP device mode out of range");
  result_.resize(n * sizeof(cfloat));
  const std::span<const cfloat> a(
      reinterpret_cast<const cfloat*>(operand_a_.data()), n);
  const std::span<const cfloat> b(
      reinterpret_cast<const cfloat*>(operand_b_.data()), n);
  const std::span<cfloat> out(reinterpret_cast<cfloat*>(result_.data()), n);
  return kernels::zip(a, b, out, static_cast<kernels::ZipOp>(reg_mode_));
}

Status MmultDevice::execute() {
  const std::size_t m = reg_size_;
  const std::size_t k = reg_size_aux_;
  const std::size_t n = reg_size_aux2_;
  if (m == 0 || k == 0 || n == 0) {
    return InvalidArgument("MMULT device dimensions must be nonzero");
  }
  if (operand_a_.size() != m * k * sizeof(float) ||
      operand_b_.size() != k * n * sizeof(float)) {
    return InvalidArgument("MMULT device operand size mismatch");
  }
  result_.resize(m * n * sizeof(float));
  const std::span<const float> a(
      reinterpret_cast<const float*>(operand_a_.data()), m * k);
  const std::span<const float> b(
      reinterpret_cast<const float*>(operand_b_.data()), k * n);
  const std::span<float> c(reinterpret_cast<float*>(result_.data()), m * n);
  return kernels::mmult_blocked(a, b, c, m, k, n);
}

}  // namespace cedr::platform
