#pragma once
// Emulated memory-mapped accelerator devices.
//
// On the real ZCU102, libCEDR modules control FPGA accelerators through
// driverless MMIO: the worker thread programs AXI4 registers, kicks a DMA
// transfer, then polls a status register until the IP core finishes. This
// module reproduces that contract in software so the accelerator code path
// (register programming -> buffer transfer -> busy polling -> readback) is
// exercised end-to-end without the fabric. Each device computes with the
// same kernels/ math as the CPU path, so results are bit-identical and
// functional tests can compare PE variants directly.
//
// The register map below is modeled on the Xilinx AXI DMA + FFT IP flow the
// paper describes (up-to-2048-point FFT IP fed by DMA over AXI4-Stream).

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "cedr/common/math_util.h"
#include "cedr/common/status.h"

namespace cedr::platform {

/// Register offsets shared by all emulated devices (word addressed).
enum class DeviceReg : std::uint32_t {
  kControl = 0,   ///< write kStart to launch the configured operation
  kStatus = 1,    ///< kIdle / kBusy / kDone / kError
  kSize = 2,      ///< problem size (elements / matrix dim)
  kMode = 3,      ///< kernel-specific mode (FFT direction, ZIP op, ...)
  kSizeAux = 4,   ///< second dimension where needed (MMULT k)
  kSizeAux2 = 5,  ///< third dimension where needed (MMULT n)
};

inline constexpr std::uint32_t kCmdStart = 1;
inline constexpr std::uint32_t kStatusIdle = 0;
inline constexpr std::uint32_t kStatusBusy = 1;
inline constexpr std::uint32_t kStatusDone = 2;
inline constexpr std::uint32_t kStatusError = 3;

/// Base class: register file + DMA buffers + polling protocol.
///
/// Protocol (mirrors the driverless MMIO flow):
///   1. dma_write_a / dma_write_b  — stream operands into device BRAM
///   2. write_reg(kSize/kMode/...) — configure the operation
///   3. write_reg(kControl, kCmdStart)
///   4. read_reg(kStatus) until kStatusDone (each poll advances the
///      device's emulated completion countdown)
///   5. dma_read — stream the result back
///
/// Thread safety: one in-flight operation at a time (a device is owned by
/// exactly one worker thread in the runtime); the internal mutex makes
/// misuse detectable rather than undefined.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  /// Streams bytes into operand buffer A (B likewise). Fails while busy.
  Status dma_write_a(std::span<const std::uint8_t> bytes);
  Status dma_write_b(std::span<const std::uint8_t> bytes);
  /// Streams the result buffer back. Fails unless status is kStatusDone.
  Status dma_read(std::span<std::uint8_t> bytes);

  /// Writes a configuration/control register.
  Status write_reg(DeviceReg reg, std::uint32_t value);
  /// Reads a register. Reading kStatus while busy decrements the emulated
  /// completion countdown, so a polling loop terminates deterministically.
  std::uint32_t read_reg(DeviceReg reg);

  /// Device type name for traces ("fft", "mmult", "zip").
  [[nodiscard]] virtual std::string_view type_name() const noexcept = 0;

  /// Emulated polls-until-done for a freshly started op of size n.
  [[nodiscard]] virtual std::uint32_t latency_polls(std::uint32_t n) const noexcept;

  /// Fault injection: wedges the device. The next started operation stays
  /// kStatusBusy for `watchdog_polls` status reads, then the emulated AXI
  /// watchdog fires and the status register reads kStatusError — exactly
  /// how a hung IP core surfaces to the polling worker on hardware.
  void inject_hang(std::uint32_t watchdog_polls = 4096);

  /// Clears any wedged/errored state back to kStatusIdle (the worker-side
  /// recovery step after a failed operation, standing in for an IP reset
  /// through the control register).
  void reset();

 protected:
  /// Runs the actual computation; called once when kCmdStart is written.
  /// Reads operands_a/b_, writes result_. Returns an error to surface
  /// kStatusError to the polling worker.
  virtual Status execute() = 0;

  std::vector<std::uint8_t> operand_a_;
  std::vector<std::uint8_t> operand_b_;
  std::vector<std::uint8_t> result_;
  std::uint32_t reg_size_ = 0;
  std::uint32_t reg_mode_ = 0;
  std::uint32_t reg_size_aux_ = 0;
  std::uint32_t reg_size_aux2_ = 0;

 private:
  std::mutex mutex_;
  std::uint32_t status_ = kStatusIdle;
  std::uint32_t polls_remaining_ = 0;
  bool hang_armed_ = false;
  std::uint32_t hang_polls_remaining_ = 0;
};

/// Largest transform the paper's Xilinx FFT IP is configured for.
inline constexpr std::size_t kFftIpMaxPoints = 2048;

/// FFT/IFFT device. Operand A holds cfloat[size]; kMode 0 = forward,
/// 1 = inverse. Size must be a power of two <= `max_points`: the default is
/// the FPGA IP's limit; a GPU-backed device passes the kernel's limit
/// (kernels::kMaxFftSize), since its CUDA FFT has no such cap.
class FftDevice final : public MmioDevice {
 public:
  explicit FftDevice(std::size_t max_points = kFftIpMaxPoints)
      : max_points_(max_points) {}

  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "fft";
  }

 protected:
  Status execute() override;

 private:
  std::size_t max_points_;
};

/// ZIP device. Operands A and B hold cfloat[size]; kMode selects the
/// element-wise op (kernels::ZipOp numeric value).
class ZipDevice final : public MmioDevice {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "zip";
  }

 protected:
  Status execute() override;
};

/// MMULT device. A is float[m*k], B is float[k*n]; kSize=m, kSizeAux=k,
/// kSizeAux2=n.
class MmultDevice final : public MmioDevice {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "mmult";
  }

 protected:
  Status execute() override;
};

}  // namespace cedr::platform
