// Profiling workflow: measure, fit, reschedule.
//
// CEDR's cost-aware heuristics consult per-(kernel, PE) execution-time
// tables obtained by profiling on the target SoC. This example closes that
// loop on the host: run a calibration workload under the runtime, fit cost
// tables from the measured service times (platform::profile_costs), print
// them against the preset tables, and show a scheduler consuming the
// fitted numbers.

#include <cstdio>

#include "cedr/cedr.h"
#include "cedr/platform/profiling.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sched/heuristics.h"

using namespace cedr;

int main() {
  // 1. Calibration run: a spread of FFT and ZIP sizes, several times each.
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1);
  config.scheduler = "RR";  // visit every PE so all pairings get samples
  rt::Runtime runtime(config);
  if (!runtime.start().ok()) return 1;
  auto instance = runtime.submit_api("calibration", [] {
    for (int round = 0; round < 6; ++round) {
      for (const std::size_t n : {128u, 256u, 512u, 1024u}) {
        std::vector<cedr_cplx> a(n), b(n), out(n);
        (void)CEDR_FFT(a.data(), a.data(), n);
        (void)CEDR_ZIP(a.data(), b.data(), out.data(), n);
      }
    }
  });
  if (!instance.ok()) return 1;
  (void)runtime.wait_all();
  (void)runtime.shutdown();
  std::printf("calibration: %llu task executions recorded\n",
              static_cast<unsigned long long>(runtime.stats().tasks_executed));

  // 2. Fit cost tables from the worker execute spans.
  auto profiled = platform::profile_costs(runtime.tracer().snapshot(),
                                          runtime.config().platform);
  if (!profiled.ok()) {
    std::fprintf(stderr, "profiling failed: %s\n",
                 profiled.status().to_string().c_str());
    return 1;
  }
  std::printf("fitted %zu (kernel, PE-class) pairings from %zu samples:\n",
              profiled->entries.size(), profiled->tasks_used);
  for (const auto& entry : profiled->entries) {
    std::printf(
        "  %-6s on %-5s: %3zu samples, mean %8.2f us, fit = %.2f us + "
        "%.4f ns/elem\n",
        std::string(platform::kernel_name(entry.kernel)).c_str(),
        std::string(platform::pe_class_name(entry.cls)).c_str(),
        entry.samples, entry.mean_service_s * 1e6,
        entry.fitted.fixed_s * 1e6, entry.fitted.per_point_s * 1e9);
  }

  // 3. Compare preset vs fitted estimates at a probe size.
  constexpr std::size_t kProbe = 1024;
  std::printf("\nestimate comparison at %zu-point FFT:\n", kProbe);
  const double preset = runtime.config().platform.costs.estimate(
      platform::KernelId::kFft, platform::PeClass::kCpu, kProbe, 0);
  const double fitted = profiled->costs.estimate(
      platform::KernelId::kFft, platform::PeClass::kCpu, kProbe, 0);
  std::printf("  preset table:  %8.2f us   fitted table: %8.2f us\n",
              preset * 1e6, fitted * 1e6);

  // 4. A scheduler consuming the fitted numbers: one EFT decision.
  sched::EftScheduler eft;
  std::vector<sched::PeState> pes;
  for (std::size_t i = 0; i < runtime.config().platform.pes.size(); ++i) {
    pes.push_back(sched::PeState{
        .pe_index = i, .cls = runtime.config().platform.pes[i].cls});
  }
  std::vector<sched::ReadyTask> ready{{.task_key = 1,
                                       .kernel = platform::KernelId::kFft,
                                       .problem_size = kProbe,
                                       .data_bytes = 2 * kProbe * 8}};
  const sched::ScheduleContext ctx{.now = 0.0, .costs = &profiled->costs};
  const auto decision = eft.schedule(ready, pes, ctx);
  if (decision.assignments.size() == 1) {
    std::printf(
        "\nEFT with the fitted tables places the probe FFT on %s\n",
        runtime.config()
            .platform.pes[decision.assignments[0].pe_index]
            .name.c_str());
  }
  return 0;
}
