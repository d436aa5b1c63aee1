// Quickstart: the two-phase CEDR-API development flow (paper Fig. 3).
//
// Phase 1 — standalone validation: call the cedr.h APIs like any CPU
// library; every call executes its standard C/C++ implementation inline.
//
// Phase 2 — runtime execution: submit the *same* function to a CEDR
// runtime; each API call now becomes a scheduled task executing on the
// emulated SoC's heterogeneous PEs, with the calling thread synchronized
// through the Fig. 4 condvar protocol.

#include <cstdio>
#include <vector>

#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"

using namespace cedr;

namespace {

/// The "application": a tiny frequency-domain convolution. Because it is
/// written purely against cedr.h it runs identically in both phases.
Status frequency_domain_multiply() {
  constexpr std::size_t kN = 1024;
  std::vector<cedr_cplx> signal(kN), kernel(kN), result(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = cedr_cplx(static_cast<float>(i % 16) / 16.0f, 0.0f);
    kernel[i] = cedr_cplx(i < 8 ? 0.125f : 0.0f, 0.0f);
  }

  // Forward transforms can run in parallel: issue both non-blocking.
  cedr_handle_t handles[2] = {
      CEDR_FFT_NB(signal.data(), signal.data(), kN),
      CEDR_FFT_NB(kernel.data(), kernel.data(), kN),
  };
  CEDR_RETURN_IF_ERROR(CEDR_BARRIER(handles, 2));

  // Pointwise product, then back to the time domain (blocking calls).
  CEDR_RETURN_IF_ERROR(
      CEDR_ZIP(signal.data(), kernel.data(), result.data(), kN));
  CEDR_RETURN_IF_ERROR(CEDR_IFFT(result.data(), result.data(), kN));

  std::printf("  mode=%s  result[0]=(%.4f, %.4f)\n",
              api::runtime_attached() ? "runtime-attached" : "standalone",
              result[0].real(), result[0].imag());
  return Status::Ok();
}

}  // namespace

int main() {
  std::printf("Phase 1: standalone (libcedr.a path) — APIs run inline\n");
  if (const Status s = frequency_domain_multiply(); !s.ok()) {
    std::fprintf(stderr, "standalone run failed: %s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("Phase 2: under the CEDR runtime (libcedr-rt.so path)\n");
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.scheduler = "EFT";
  rt::Runtime runtime(config);
  if (const Status s = runtime.start(); !s.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  auto instance = runtime.submit_api("quickstart", [] {
    if (const Status s = frequency_domain_multiply(); !s.ok()) {
      std::fprintf(stderr, "runtime run failed: %s\n", s.to_string().c_str());
    }
  });
  if (!instance.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 instance.status().to_string().c_str());
    return 1;
  }
  (void)runtime.wait_all();

  const rt::RuntimeStats stats = runtime.stats();
  std::printf("  runtime executed %llu scheduled tasks; per-PE counts:\n",
              static_cast<unsigned long long>(stats.tasks_executed));
  for (const auto& pe : stats.pes) {
    if (pe.tasks == 0) continue;
    std::printf("    %-12s %llu\n", pe.name.c_str(),
                static_cast<unsigned long long>(pe.tasks));
  }
  (void)runtime.shutdown();
  std::printf("done\n");
  return 0;
}
