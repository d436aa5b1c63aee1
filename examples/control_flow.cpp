// Control flow: the paper's core motivation (Fig. 2), demonstrated.
//
// "A DAG-based application format cannot accurately capture the control
// flow structures of many programs... this entire for-loop structure must
// be collapsed to a single DAG node" (§II-B). This example runs an
// iterative, *data-dependent* algorithm — spectral low-pass refinement that
// repeats until the out-of-band energy falls below a threshold — two ways:
//
//   1. As a CEDR-API application: the while-loop lives in ordinary C++ and
//      every FFT/ZIP/IFFT inside it is individually scheduled, so the
//      accelerator can serve each iteration (the right half of Fig. 2).
//   2. As the DAG workaround: the whole loop collapsed into one GENERIC
//      node, schedulable only on a CPU (the left half of Fig. 2).
//
// The iteration count is unknowable at graph-construction time — exactly
// why the static DAG cannot expose the kernels to the scheduler.

#include <cstdio>

#include "cedr/api/impls.h"
#include "cedr/cedr.h"
#include "cedr/common/rng.h"
#include "cedr/kernels/fft.h"
#include "cedr/kernels/zip.h"
#include "cedr/runtime/runtime.h"

using namespace cedr;

namespace {

constexpr std::size_t kN = 1024;
constexpr std::size_t kPassband = 96;     // bins kept per side
constexpr double kTargetLeakage = 1e-4;   // stop threshold
constexpr int kMaxIterations = 64;

/// Fraction of energy outside the passband.
double leakage(std::span<const cedr_cplx> spectrum) {
  double in_band = 0.0;
  double out_band = 0.0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    const bool inside = i < kPassband || i >= spectrum.size() - kPassband;
    (inside ? in_band : out_band) += std::norm(spectrum[i]);
  }
  return out_band / (in_band + out_band + 1e-30);
}

/// The iterative algorithm, written against cedr.h. Returns iterations run.
int refine(std::vector<cedr_cplx>& signal, const std::vector<cedr_cplx>& mask) {
  std::vector<cedr_cplx> spectrum(kN);
  int iterations = 0;
  while (iterations < kMaxIterations) {
    ++iterations;
    // Each pass: FFT -> soft mask -> IFFT. The *loop condition* depends on
    // the data produced inside the loop: no static DAG can express it.
    if (!CEDR_FFT(signal.data(), spectrum.data(), kN).ok()) break;
    if (leakage(spectrum) < kTargetLeakage) break;
    if (!CEDR_ZIP(spectrum.data(), mask.data(), spectrum.data(), kN).ok()) {
      break;
    }
    if (!CEDR_IFFT(spectrum.data(), signal.data(), kN).ok()) break;
  }
  return iterations;
}

std::vector<cedr_cplx> make_noisy_signal(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cedr_cplx> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double tone =
        std::cos(2.0 * kPi * 7.0 * static_cast<double>(i) / kN) +
        0.5 * std::sin(2.0 * kPi * 23.0 * static_cast<double>(i) / kN);
    signal[i] = cedr_cplx(static_cast<float>(tone + rng.normal(0.0, 0.4)),
                          static_cast<float>(rng.normal(0.0, 0.4)));
  }
  return signal;
}

/// Soft low-pass mask: gently attenuates out-of-band bins so convergence
/// takes a data-dependent number of passes.
std::vector<cedr_cplx> make_mask() {
  std::vector<cedr_cplx> mask(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const bool inside = i < kPassband || i >= kN - kPassband;
    mask[i] = cedr_cplx(inside ? 1.0f : 0.55f, 0.0f);
  }
  return mask;
}

}  // namespace

int main() {
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.scheduler = "EFT";
  rt::Runtime runtime(config);
  if (!runtime.start().ok()) return 1;

  // --- CEDR-API version: loop kernels are individually schedulable. -----
  auto api_signal = make_noisy_signal(1);
  const auto mask = make_mask();
  int api_iterations = 0;
  auto api_instance = runtime.submit_api("refine_api", [&] {
    api_iterations = refine(api_signal, mask);
  });
  if (!api_instance.ok()) return 1;
  (void)runtime.wait_app(*api_instance);
  const std::uint64_t api_tasks = runtime.stats().tasks_executed;

  // --- DAG workaround: the whole loop is one opaque GENERIC node. -------
  auto dag_signal = std::make_shared<std::vector<cedr_cplx>>(
      make_noisy_signal(1));
  auto dag_iterations = std::make_shared<int>(0);
  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "refine_dag";
  task::Task node;
  node.id = 0;
  node.name = "whole_loop";
  node.kernel = platform::KernelId::kGeneric;  // CPU-only, by construction
  (void)app->graph.add_task(std::move(node));
  rt::DagSubmission submission{.descriptor = app, .impls = {}};
  submission.impls.push_back(
      api::make_generic_impls([dag_signal, dag_iterations, mask] {
        *dag_iterations = refine(*dag_signal, mask);  // runs inline on a worker
      }));
  if (!runtime.submit_dag(std::move(submission)).ok()) return 1;
  (void)runtime.wait_all();
  const rt::RuntimeStats stats = runtime.stats();
  const std::uint64_t total_tasks = stats.tasks_executed;
  std::uint64_t accel_tasks = 0;
  for (const auto& pe : stats.pes) {
    if (pe.name == "fft0") accel_tasks = pe.tasks;
  }
  (void)runtime.shutdown();

  std::printf("iterative spectral refinement, %d-point FFTs\n",
              static_cast<int>(kN));
  std::printf(
      "  CEDR-API version:  %2d data-dependent iterations -> %llu scheduled "
      "tasks (FFT accelerator eligible for every one)\n",
      api_iterations, static_cast<unsigned long long>(api_tasks));
  std::printf(
      "  DAG workaround:    %2d iterations collapsed into %llu scheduled "
      "task (CPU-only, opaque to the scheduler)\n",
      *dag_iterations,
      static_cast<unsigned long long>(total_tasks - api_tasks));
  std::printf("  accelerator executions during the API run: %llu\n",
              static_cast<unsigned long long>(accel_tasks));
  const bool ok = api_iterations == *dag_iterations && api_iterations > 1;
  std::printf("  identical results from both models: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
