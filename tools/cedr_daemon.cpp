// The CEDR daemon process (paper Fig. 1).
//
// Starts a runtime for the requested platform/scheduler and serves the IPC
// submission protocol until a SHUTDOWN command arrives. Its execution log
// is the span stream, serialized by --trace-dir (continuously, as rotated
// segments) and --trace-out (once, on exit).
//
// usage: cedr_daemon <socket-path> [--platform host|zcu102|jetson]
//                    [--cpus N] [--ffts N] [--mmults N] [--gpus N]
//                    [--scheduler RR|EFT|ETF|HEFT_RT|HEFT_LA|EFT_LA]
//                    [--fault-plan JSON] [--metrics-interval SECONDS]
//                    [--trace-out CHROME_JSON] [--adapt]
//                    [--adapt-half-life SAMPLES] [--adapt-min-samples N]
//                    [--wait-timeout SECONDS] [--ipc-workers N]
//                    [--max-inflight N] [--busy-retry-ms MS]
//                    [--no-shm] [--shm-slots N] [--shm-arena BYTES]
//                    [--trace-dir DIR] [--trace-flush-interval SECONDS]
//                    [--trace-segment-events N] [--trace-segment-age SECONDS]
//                    [--trace-retention N]
//
// --trace-dir enables the continuous trace pipeline: the span ring is
// drained every --trace-flush-interval seconds into rotated binary `.cbt`
// segments under DIR (size bound --trace-segment-events, age bound
// --trace-segment-age, retention --trace-retention finalized files), so the
// trace survives a crash and a run of unbounded length; summarize and
// convert with `cedr_trace_report --from-segments DIR --chrome out.json`. See
// docs/observability.md.
//
// --wait-timeout sets RuntimeConfig::default_wait_timeout_s, the deadline
// wait_all/wait_app apply when the caller passes none (shutdown drains
// through wait_all). 0 waits forever.
//
// --ipc-workers sizes the IPC worker pool (slow verbs: SUBMIT's dlopen,
// SUBMITDAG's JSON load, WAIT, SHUTDOWN). --max-inflight bounds admitted
// in-flight application instances: SUBMIT/SUBMITDAG beyond the bound get
// `BUSY <retry-after-ms>` (the hint set by --busy-retry-ms) instead of
// queueing without bound; 0 = unbounded. See docs/ipc.md.
//
// The shared-memory submission lane (SHMOPEN, docs/ipc.md "Shared-memory
// lane") is on by default; --no-shm disables it (clients fall back to the
// socket), --shm-slots sizes both per-session rings (power of two) and
// --shm-arena sizes the per-session argument arena in bytes.
//
// --metrics-interval starts the background sampler (queue depth and per-PE
// utilization time series, served live via the METRICS IPC command);
// --trace-out writes the span ring as Chrome trace-event JSON on shutdown
// (loadable in chrome://tracing or Perfetto).
//
// --adapt turns on online cost-model adaptation (docs/adaptive_costs.md):
// worker threads feed measured service times into an OnlineCostEstimator
// and the scheduling heuristics consume its continuously refined tables;
// inspect with `cedr_submit <socket> costs`. --adapt-half-life and
// --adapt-min-samples override the estimator's decay half-life (in
// samples) and warmup gate.

#include <cstdio>
#include <cstring>
#include <string>

#include "cedr/common/log.h"
#include "cedr/ipc/ipc.h"
#include "cedr/runtime/runtime.h"

using namespace cedr;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <socket-path> [--platform host|zcu102|jetson] "
                 "[--cpus N] [--ffts N] [--mmults N] [--gpus N] "
                 "[--scheduler NAME] [--config JSON] "
                 "[--fault-plan JSON] [--metrics-interval SECONDS] "
                 "[--trace-out CHROME_JSON] [--adapt] "
                 "[--adapt-half-life SAMPLES] [--adapt-min-samples N] "
                 "[--wait-timeout SECONDS] [--ipc-workers N] "
                 "[--max-inflight N] [--busy-retry-ms MS] "
                 "[--no-shm] [--shm-slots N] [--shm-arena BYTES] "
                 "[--trace-dir DIR] [--trace-flush-interval SECONDS] "
                 "[--trace-segment-events N] [--trace-segment-age SECONDS] "
                 "[--trace-retention N] [--verbose]\n",
                 argv[0]);
    return 2;
  }
  const std::string socket_path = argv[1];
  std::string platform_name = "host";
  std::string scheduler = "EFT";
  std::string config_path;
  std::string fault_plan_path;
  std::string chrome_trace_path;
  double metrics_interval_s = 0.0;
  bool adapt_enabled = false;
  double adapt_half_life = 0.0;
  std::size_t adapt_min_samples = 0;
  double wait_timeout_s = -1.0;
  std::string trace_dir;
  double trace_flush_interval_s = 0.0;
  std::size_t trace_segment_events = 0;
  double trace_segment_age_s = -1.0;
  long trace_retention = -1;
  ipc::IpcServerConfig ipc_config;
  std::size_t cpus = 2;
  std::size_t ffts = 1;
  std::size_t mmults = 0;
  std::size_t gpus = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--platform") platform_name = next();
    else if (arg == "--scheduler") scheduler = next();
    else if (arg == "--cpus") cpus = std::strtoul(next(), nullptr, 10);
    else if (arg == "--ffts") ffts = std::strtoul(next(), nullptr, 10);
    else if (arg == "--mmults") mmults = std::strtoul(next(), nullptr, 10);
    else if (arg == "--gpus") gpus = std::strtoul(next(), nullptr, 10);
    else if (arg == "--config") config_path = next();
    else if (arg == "--fault-plan") fault_plan_path = next();
    else if (arg == "--metrics-interval")
      metrics_interval_s = std::strtod(next(), nullptr);
    else if (arg == "--trace-out") chrome_trace_path = next();
    else if (arg == "--adapt") adapt_enabled = true;
    else if (arg == "--adapt-half-life")
      adapt_half_life = std::strtod(next(), nullptr);
    else if (arg == "--adapt-min-samples")
      adapt_min_samples = std::strtoul(next(), nullptr, 10);
    else if (arg == "--wait-timeout")
      wait_timeout_s = std::strtod(next(), nullptr);
    else if (arg == "--ipc-workers")
      ipc_config.worker_threads = std::strtoul(next(), nullptr, 10);
    else if (arg == "--max-inflight")
      ipc_config.max_inflight_apps = std::strtoul(next(), nullptr, 10);
    else if (arg == "--busy-retry-ms")
      ipc_config.busy_retry_ms =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--no-shm") ipc_config.enable_shm = false;
    else if (arg == "--shm-slots") {
      const auto slots =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      ipc_config.shm_sub_slots = slots;
      ipc_config.shm_cpl_slots = slots;
    }
    else if (arg == "--shm-arena")
      ipc_config.shm_arena_bytes =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--trace-dir") trace_dir = next();
    else if (arg == "--trace-flush-interval")
      trace_flush_interval_s = std::strtod(next(), nullptr);
    else if (arg == "--trace-segment-events")
      trace_segment_events = std::strtoul(next(), nullptr, 10);
    else if (arg == "--trace-segment-age")
      trace_segment_age_s = std::strtod(next(), nullptr);
    else if (arg == "--trace-retention")
      trace_retention = std::strtol(next(), nullptr, 10);
    else if (arg == "--verbose") log::set_level(log::Level::kInfo);
    else {
      std::fprintf(stderr, "cedr_daemon: unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  rt::RuntimeConfig config;
  if (!config_path.empty()) {
    // Full Runtime Configuration from a JSON file (paper Fig. 1).
    auto loaded = rt::RuntimeConfig::load(config_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load runtime configuration: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    config = *std::move(loaded);
  } else if (platform_name == "zcu102") {
    config.platform = platform::zcu102(cpus, ffts, mmults);
    config.scheduler = scheduler;
  } else if (platform_name == "jetson") {
    config.platform = platform::jetson(cpus, gpus);
    config.scheduler = scheduler;
  } else {
    config.platform = platform::host(cpus, ffts, mmults);
    config.scheduler = scheduler;
  }
  if (!fault_plan_path.empty()) {
    // A standalone fault plan overrides whatever the config file carried.
    auto plan = platform::FaultPlan::load(fault_plan_path);
    if (!plan.ok()) {
      std::fprintf(stderr, "cannot load fault plan: %s\n",
                   plan.status().to_string().c_str());
      return 1;
    }
    config.fault_plan = *std::move(plan);
  }
  if (metrics_interval_s > 0.0) {
    config.obs.sampler_period_s = metrics_interval_s;
  }
  // Trace-pipeline flags layer over the config file like the others.
  if (!trace_dir.empty()) config.obs.trace_dir = trace_dir;
  if (trace_flush_interval_s > 0.0) {
    config.obs.trace_flush_interval_s = trace_flush_interval_s;
  }
  if (trace_segment_events > 0) {
    config.obs.trace_segment_events = trace_segment_events;
  }
  if (trace_segment_age_s >= 0.0) {
    config.obs.trace_segment_age_s = trace_segment_age_s;
  }
  if (trace_retention >= 0) {
    config.obs.trace_retention = static_cast<std::size_t>(trace_retention);
  }
  // The flags layer over whatever the config file carried, so `--adapt`
  // can switch adaptation on for an otherwise-static configuration.
  if (adapt_enabled) config.adapt.enabled = true;
  if (adapt_half_life > 0.0) config.adapt.half_life = adapt_half_life;
  if (adapt_min_samples > 0) config.adapt.min_samples = adapt_min_samples;
  if (wait_timeout_s >= 0.0) config.default_wait_timeout_s = wait_timeout_s;

  rt::Runtime runtime(config);
  if (const Status s = runtime.start(); !s.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  ipc::IpcServer server(runtime, socket_path, ipc_config);
  if (const Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "IPC server failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("cedr_daemon: platform=%s scheduler=%s pes=%zu listening on %s\n",
              config.platform.name.c_str(), scheduler.c_str(),
              config.platform.pes.size(), socket_path.c_str());
  server.wait_for_shutdown();
  server.stop();
  (void)runtime.shutdown();
  if (!chrome_trace_path.empty()) {
    // Written after shutdown so the span ring carries the whole run.
    if (const Status s = runtime.write_chrome_trace(chrome_trace_path);
        !s.ok()) {
      std::fprintf(stderr, "chrome trace export failed: %s\n",
                   s.to_string().c_str());
    } else {
      std::printf("cedr_daemon: chrome trace written to %s\n",
                  chrome_trace_path.c_str());
    }
  }
  std::printf("cedr_daemon: %llu apps completed; bye\n",
              static_cast<unsigned long long>(runtime.completed_apps()));
  return 0;
}
