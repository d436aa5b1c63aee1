// Dynamic multi-application workload demo (paper §III scenario).
//
// Emulates the paper's experimental procedure in miniature on the real
// threaded runtime: Pulse Doppler and WiFi TX instances arrive periodically
// (an injection-rate-style schedule) and interleave on the shared PE pool;
// a DAG-based Pulse Doppler instance is mixed in to show both programming
// models coexisting. Prints the per-application execution times and queue
// statistics from the runtime's span stream.

#include <chrono>
#include <cstdio>
#include <thread>

#include "cedr/apps/dag_apps.h"
#include "cedr/apps/pulse_doppler.h"
#include "cedr/apps/wifi_tx.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

using namespace cedr;

int main() {
  rt::RuntimeConfig config;
  config.platform = platform::host(/*cpus=*/2, /*ffts=*/1, /*mmults=*/0);
  config.scheduler = "HEFT_RT";
  rt::Runtime runtime(config);
  if (const Status s = runtime.start(); !s.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n", s.to_string().c_str());
    return 1;
  }

  apps::PulseDopplerConfig pd_config;
  pd_config.params.num_pulses = 32;
  pd_config.params.samples_per_pulse = 128;
  pd_config.nonblocking = true;
  apps::WifiTxConfig tx_config;
  tx_config.num_packets = 20;
  tx_config.nonblocking = true;

  // Three arrival waves, ~25 ms apart: API-mode PD + TX each wave, plus one
  // DAG-based PD in the middle wave (both models share the ready queue).
  constexpr int kWaves = 3;
  for (int wave = 0; wave < kWaves; ++wave) {
    pd_config.seed = 100 + wave;
    tx_config.seed = 200 + wave;
    auto pd_cfg = pd_config;
    auto instance = runtime.submit_api(
        "pd_wave" + std::to_string(wave),
        [pd_cfg] { (void)apps::run_pulse_doppler(pd_cfg); });
    if (!instance.ok()) {
      std::fprintf(stderr, "PD submit failed: %s\n",
                   instance.status().to_string().c_str());
      return 1;
    }
    auto tx_cfg = tx_config;
    (void)runtime.submit_api("tx_wave" + std::to_string(wave),
                             [tx_cfg] { (void)apps::run_wifi_tx(tx_cfg); });
    if (wave == 1) {
      auto dag = apps::make_pulse_doppler_dag(pd_config);
      if (dag.ok()) {
        (void)runtime.submit_dag(std::move(dag->submission));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }

  if (const Status s = runtime.wait_all(600.0); !s.ok()) {
    std::fprintf(stderr, "wait_all failed: %s\n", s.to_string().c_str());
    return 1;
  }

  const trace::Report report =
      trace::summarize(runtime.tracer().snapshot(), runtime.trace_tracks());
  std::printf("%-14s %10s %10s %10s\n", "app", "arrival_ms", "exec_ms",
              "complete_ms");
  for (const auto& app : report.apps) {
    std::printf("%-14s %10.1f %10.1f %10.1f\n", app.name.c_str(),
                app.arrival * 1e3, app.execution_time * 1e3,
                (app.arrival + app.execution_time) * 1e3);
  }
  std::printf("\navg execution time/app = %.1f ms over %zu apps\n",
              report.avg_execution_time * 1e3, report.apps.size());
  std::printf("scheduling rounds=%zu  max ready queue=%zu  total decision "
              "time=%.2f ms\n",
              report.sched_rounds, report.max_ready_queue,
              report.total_sched_time * 1e3);
  if (runtime.tracer().dropped() != 0) {
    std::printf("(span ring wrapped: %llu oldest events not summarized)\n",
                static_cast<unsigned long long>(runtime.tracer().dropped()));
  }
  (void)runtime.shutdown();
  return 0;
}
