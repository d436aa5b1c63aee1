// Runtime lifecycle and configuration: construction, start()/shutdown(),
// the Runtime Configuration file, and the observability accessors. The
// event loop, submissions and dispatch live in the sibling TUs (see
// runtime_impl.h for the lock hierarchy).

#include "runtime_impl.h"

#include <algorithm>
#include <utility>

#include "cedr/common/log.h"
#include "cedr/kernels/fft.h"
#include "cedr/obs/chrome_trace.h"

namespace cedr::rt {

// ---------------------------------------------------------------------------
// Thread binding: which runtime/app-instance the current thread belongs to.
// Set around API-application main functions so that libCEDR calls made from
// that thread route into the right runtime (paper §II-C: calls are "linked
// during binary parsing against implementations ... that themselves call an
// enqueue_kernel function inside the CEDR runtime").
// ---------------------------------------------------------------------------

ThreadBinding& thread_binding() noexcept {
  thread_local ThreadBinding binding;
  return binding;
}

// ---------------------------------------------------------------------------
// Runtime configuration file
// ---------------------------------------------------------------------------

json::Value ObsConfig::to_json() const {
  return json::Object{
      {"tracing", json::Value(tracing)},
      {"ring_capacity", json::Value(ring_capacity)},
      {"sampler_period_s", json::Value(sampler_period_s)},
      {"trace_dir", json::Value(trace_dir)},
      {"trace_flush_interval_s", json::Value(trace_flush_interval_s)},
      {"trace_segment_events", json::Value(trace_segment_events)},
      {"trace_segment_age_s", json::Value(trace_segment_age_s)},
      {"trace_retention", json::Value(trace_retention)},
  };
}

StatusOr<ObsConfig> ObsConfig::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return InvalidArgument("obs configuration must be a JSON object");
  }
  ObsConfig config;
  config.tracing = value.get_bool("tracing", true);
  const std::int64_t ring = value.get_int(
      "ring_capacity",
      static_cast<std::int64_t>(obs::SpanTracer::kDefaultCapacity));
  if (ring <= 0) return InvalidArgument("obs ring_capacity must be positive");
  config.ring_capacity = static_cast<std::size_t>(ring);
  config.sampler_period_s = value.get_double("sampler_period_s", 0.0);
  config.trace_dir = value.get_string("trace_dir", "");
  config.trace_flush_interval_s =
      value.get_double("trace_flush_interval_s", 1.0);
  if (!config.trace_dir.empty() && config.trace_flush_interval_s <= 0.0) {
    return InvalidArgument("obs trace_flush_interval_s must be positive");
  }
  const std::int64_t seg_events = value.get_int("trace_segment_events", 8192);
  if (seg_events <= 0) {
    return InvalidArgument("obs trace_segment_events must be positive");
  }
  config.trace_segment_events = static_cast<std::size_t>(seg_events);
  config.trace_segment_age_s = value.get_double("trace_segment_age_s", 10.0);
  const std::int64_t retention = value.get_int("trace_retention", 64);
  if (retention < 0) {
    return InvalidArgument("obs trace_retention must be >= 0 (0 = unbounded)");
  }
  config.trace_retention = static_cast<std::size_t>(retention);
  return config;
}

json::Value RuntimeConfig::to_json() const {
  return json::Object{
      {"platform", platform.to_json()},
      {"scheduler", json::Value(scheduler)},
      {"scheduler_period_s", json::Value(scheduler_period_s)},
      {"default_wait_timeout_s", json::Value(default_wait_timeout_s)},
      {"enable_counters", json::Value(enable_counters)},
      {"fault_plan", fault_plan.to_json()},
      {"obs", obs.to_json()},
      {"adapt", adapt.to_json()},
      {"lookahead_depth", json::Value(static_cast<std::int64_t>(lookahead_depth))},
  };
}

StatusOr<RuntimeConfig> RuntimeConfig::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return InvalidArgument("runtime configuration must be a JSON object");
  }
  RuntimeConfig config;
  if (const json::Value* plat = value.find("platform")) {
    auto parsed = platform::PlatformConfig::from_json(*plat);
    if (!parsed.ok()) return parsed.status();
    config.platform = *std::move(parsed);
  } else {
    return InvalidArgument("runtime configuration missing 'platform'");
  }
  config.scheduler = value.get_string("scheduler", "EFT");
  if (!sched::make_scheduler(config.scheduler).ok()) {
    return InvalidArgument("unknown scheduler: " + config.scheduler);
  }
  config.scheduler_period_s =
      value.get_double("scheduler_period_s", 200e-6);
  if (config.scheduler_period_s <= 0.0) {
    return InvalidArgument("scheduler period must be positive");
  }
  config.default_wait_timeout_s =
      value.get_double("default_wait_timeout_s", 300.0);
  if (config.default_wait_timeout_s < 0.0) {
    return InvalidArgument(
        "default_wait_timeout_s must be >= 0 (0 waits forever)");
  }
  config.enable_counters = value.get_bool("enable_counters", true);
  if (const json::Value* plan = value.find("fault_plan")) {
    auto parsed = platform::FaultPlan::from_json(*plan);
    if (!parsed.ok()) return parsed.status();
    config.fault_plan = *std::move(parsed);
  }
  if (const json::Value* obs = value.find("obs")) {
    auto parsed = ObsConfig::from_json(*obs);
    if (!parsed.ok()) return parsed.status();
    config.obs = *std::move(parsed);
  }
  if (const json::Value* adapt = value.find("adapt")) {
    auto parsed = adapt::AdaptConfig::from_json(*adapt);
    if (!parsed.ok()) return parsed.status();
    config.adapt = *std::move(parsed);
  }
  const std::int64_t lookahead = value.get_int("lookahead_depth", 2);
  if (lookahead < 0) {
    return InvalidArgument("lookahead_depth must be >= 0");
  }
  config.lookahead_depth = static_cast<std::size_t>(lookahead);
  return config;
}

StatusOr<RuntimeConfig> RuntimeConfig::load(const std::string& path) {
  auto doc = json::parse_file(path);
  if (!doc.ok()) return doc.status();
  return from_json(*doc);
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), tracer_(config_.obs.ring_capacity) {
  tracer_.set_enabled(config_.obs.tracing);
  queue_delay_us_ = &metrics_.histogram("queue_delay_us");
  service_time_us_ = &metrics_.histogram("service_time_us");
  sched_decision_us_ = &metrics_.histogram("sched_decision_us");
  instantiate_us_ = &metrics_.histogram("instantiate_us");
  complete_publish_us_ = &metrics_.histogram("complete_publish_us");
  lookahead_round_us_ = &metrics_.histogram("lookahead_round_us");
  retry_latency_us_ = &metrics_.histogram("retry_latency_us");
  app_exec_us_ = &metrics_.histogram("app_exec_us");
  sched_span_name_ = "sched " + config_.scheduler;
  // The round inbox times contended acquisitions of its lock into this
  // histogram (docs/observability.md); metrics_ outlives impl_.
  impl_ = std::make_unique<Impl>(&metrics_.histogram("sched_lock_wait_us"),
                                 config_);
  round_hold_us_ = &metrics_.histogram("sched_round_hold_us");
  batch_per_round_ = &metrics_.histogram("sched_batch_per_round");
}

Runtime::~Runtime() {
  const Status status = shutdown();
  if (!status.ok()) {
    CEDR_LOG(kError, kLogTag) << "shutdown in destructor failed: "
                              << status.to_string();
  }
}

double Runtime::now() const noexcept { return impl_->epoch.elapsed(); }

void Runtime::count(const char* name, std::uint64_t delta) {
  // The Runtime Configuration can disable the PAPI-substitute counters
  // entirely (paper Fig. 1: features such as performance counters are
  // enabled or disabled through the configuration input).
  if (config_.enable_counters) counters_.add(name, delta);
}

std::uint64_t Runtime::submitted_apps() const noexcept {
  return impl_->submitted.load(std::memory_order_relaxed);
}

std::uint64_t Runtime::completed_apps() const noexcept {
  return impl_->completed.load(std::memory_order_relaxed);
}

double Runtime::runtime_overhead_s() const noexcept {
  return impl_->runtime_overhead.load(std::memory_order_relaxed);
}

std::vector<PeHealth> Runtime::pe_health() const {
  std::lock_guard lock(impl_->health_mutex);
  std::vector<PeHealth> out;
  out.reserve(impl_->workers.size());
  for (const auto& worker : impl_->workers) {
    const sched::PeHealthState& h = impl_->policy.health(worker->pe_index);
    out.push_back(PeHealth{
        .pe_name = worker->pe.name,
        .cls = worker->pe.cls,
        .quarantined = h.quarantined,
        .consecutive_faults = h.consecutive_faults,
        .faults_seen = h.faults_seen,
        .quarantines = h.quarantines,
    });
  }
  return out;
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  out.uptime_s = now();
  out.submitted = submitted_apps();
  out.completed = completed_apps();
  out.inflight = out.submitted - out.completed;
  // Queue depths are lock-free; only the quarantine flags take a (narrow)
  // lock, so a stats poll never contends with submissions or dispatch.
  out.ready_tasks = impl_->ready.size();
  out.deferred_tasks = impl_->deferred_count.load(std::memory_order_relaxed);
  out.avail_lead_s = impl_->avail_lead_s.load(std::memory_order_relaxed);
  std::lock_guard lock(impl_->health_mutex);
  for (const auto& worker : impl_->workers) {
    const std::uint64_t tasks =
        worker->tasks_done.load(std::memory_order_relaxed);
    out.tasks_executed += tasks;
    out.pes.push_back(RuntimeStats::PeBusy{
        .name = worker->pe.name,
        .tasks = tasks,
        .busy_fraction = out.uptime_s > 0.0
                             ? worker->busy_at(out.uptime_s) / out.uptime_s
                             : 0.0,
        .quarantined = impl_->policy.health(worker->pe_index).quarantined,
    });
  }
  return out;
}

std::vector<obs::TrackName> Runtime::trace_tracks() const {
  std::vector<obs::TrackName> tracks;
  tracks.push_back({.pid = 0, .is_process = true, .name = "cedr runtime"});
  tracks.push_back({.pid = 0, .tid = 0, .name = "main loop"});
  tracks.push_back({.pid = 0, .tid = obs::kIpcTid, .name = "ipc"});
  for (const auto& worker : impl_->workers) {
    tracks.push_back(
        {.pid = 0, .tid = 1 + worker->pe_index, .name = worker->pe.name});
  }
  {
    std::lock_guard lock(impl_->app_mutex);
    // Live instances plus names saved when finished instances were reaped
    // (kept only while tracing), so every pid still in the span ring is
    // named. A reaped name is dropped once the ring has recorded a full
    // capacity since the reap, when none of that instance's spans remain;
    // the .cbt stitcher unions per-segment tables, so the segments written
    // while its spans were in the ring keep the name.
    for (const auto& [id, app] : impl_->apps) {
      tracks.push_back({.pid = 1 + id,
                        .is_process = true,
                        .name = app->name + " #" + std::to_string(id)});
    }
    for (const Impl::ReapedName& reaped : impl_->reaped_app_names) {
      tracks.push_back({.pid = 1 + reaped.id,
                        .is_process = true,
                        .name = reaped.name + " #" + std::to_string(reaped.id)});
    }
  }
  return tracks;
}

Status Runtime::write_chrome_trace(const std::string& path) const {
  return obs::write_chrome_trace(path, tracer_.snapshot(), trace_tracks());
}

Status Runtime::start() {
  CEDR_RETURN_IF_ERROR(config_.platform.validate());
  CEDR_RETURN_IF_ERROR(config_.fault_plan.validate());
  auto scheduler = sched::make_scheduler(config_.scheduler);
  if (!scheduler.ok()) return scheduler.status();
  scheduler_ = *std::move(scheduler);
  lookahead_ = dynamic_cast<sched::LookaheadScheduler*>(scheduler_.get());
  if (lookahead_ != nullptr) {
    CEDR_LOG(kInfo, kLogTag) << "frontier lookahead enabled: scheduler="
                             << config_.scheduler << " depth="
                             << config_.lookahead_depth;
  }
  if (!config_.fault_plan.empty()) {
    fault_injector_ = std::make_unique<platform::FaultInjector>(
        config_.fault_plan, config_.platform.pes);
    CEDR_LOG(kInfo, kLogTag) << "fault injection enabled: seed=0x" << std::hex
                             << config_.fault_plan.seed << std::dec;
  }
  if (config_.adapt.enabled) {
    adapt_ = std::make_unique<adapt::OnlineCostEstimator>(
        config_.adapt, config_.platform.costs);
    CEDR_LOG(kInfo, kLogTag) << "online cost adaptation enabled: half_life="
                             << config_.adapt.half_life << " min_samples="
                             << config_.adapt.min_samples;
  }

  if (!config_.obs.trace_dir.empty()) {
    // Continuous trace pipeline: fail start() outright if the segment
    // directory cannot be created — better than silently tracing nowhere.
    flusher_ = std::make_unique<obs::TraceFlusher>(
        tracer_,
        obs::SegmentWriter::Config{
            .dir = config_.obs.trace_dir,
            .max_segment_events = config_.obs.trace_segment_events,
            .max_segment_age_s = config_.obs.trace_segment_age_s,
            .max_segments = config_.obs.trace_retention,
        },
        [this] { return trace_tracks(); });
    const Status opened = flusher_->open();
    if (!opened.ok()) {
      flusher_.reset();
      return opened;
    }
  }

  std::lock_guard lock(impl_->app_mutex);
  if (impl_->started) return FailedPrecondition("runtime already started");
  impl_->started = true;
  impl_->accepting = true;
  impl_->epoch.reset();

  // One worker (and mailbox) per PE, mirroring Fig. 1. Accelerator workers
  // own the emulated device they coordinate.
  for (std::size_t i = 0; i < config_.platform.pes.size(); ++i) {
    auto worker = std::make_unique<Worker>();
    worker->pe_index = i;
    worker->pe = config_.platform.pes[i];
    switch (worker->pe.cls) {
      case platform::PeClass::kFftAccel:
        worker->devices.fft = std::make_unique<platform::FftDevice>();
        break;
      case platform::PeClass::kMmultAccel:
        worker->devices.mmult = std::make_unique<platform::MmultDevice>();
        break;
      case platform::PeClass::kGpu:
        // The Jetson GPU hosts FFT and ZIP CUDA kernels (paper §III); its
        // FFT takes every size the kernel does, unlike the FPGA IP.
        worker->devices.fft =
            std::make_unique<platform::FftDevice>(kernels::kMaxFftSize);
        worker->devices.zip = std::make_unique<platform::ZipDevice>();
        break;
      default:
        break;
    }
    impl_->workers.push_back(std::move(worker));
  }
  for (auto& worker : impl_->workers) {
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
  impl_->main_thread = std::thread([this] { main_loop(); });
  tracer_.instant(obs::Category::kRuntime, "runtime_start", 0, 0, 0.0);
  if (config_.obs.sampler_period_s > 0.0) {
    // The tick computes each PE's busy fraction over the elapsed interval
    // (not lifetime) so the series shows utilization as it changes.
    sampler_ = std::make_unique<obs::Sampler>(
        config_.obs.sampler_period_s,
        [this, prev_busy = std::vector<double>(impl_->workers.size(), 0.0),
         queue_epoch = obs::QuantileHistogram::Epoch{},
         service_epoch = obs::QuantileHistogram::Epoch{},
         sched_epoch = obs::QuantileHistogram::Epoch{},
         prev_t = 0.0](double) mutable {
          const double t = now();
          const double interval = t - prev_t;
          // Queue depths are lock-free atomics; per-class depths expose
          // where ready work is class-constrained (docs/observability.md).
          const auto depths = impl_->ready.depths();
          const std::size_t ready = impl_->ready.size();
          const std::size_t deferred =
              impl_->deferred_count.load(std::memory_order_relaxed);
          const double inflight = static_cast<double>(
              submitted_apps() - completed_apps());
          metrics_.set_gauge("ready_queue_depth", static_cast<double>(ready));
          metrics_.set_gauge("deferred_tasks", static_cast<double>(deferred));
          metrics_.set_gauge("inflight_apps", inflight);
          metrics_.set_gauge(
              "sched.avail_lead_s",
              impl_->avail_lead_s.load(std::memory_order_relaxed));
          for (std::size_t s = 0; s < sched::ReadyQueue::kShardCount; ++s) {
            metrics_.set_gauge(
                "ready_queue_depth." +
                    std::string(sched::ReadyQueue::shard_name(s)),
                static_cast<double>(depths[s]));
          }
          metrics_.sample("ready_queue_depth", t, static_cast<double>(ready));
          metrics_.sample("inflight_apps", t, inflight);
          for (std::size_t i = 0; i < impl_->workers.size(); ++i) {
            const double busy = impl_->workers[i]->busy_at(t);
            const double frac =
                interval > 0.0
                    ? std::clamp((busy - prev_busy[i]) / interval, 0.0, 1.0)
                    : 0.0;
            prev_busy[i] = busy;
            const std::string name = "pe." + impl_->workers[i]->pe.name + ".busy";
            metrics_.set_gauge(name, frac);
            metrics_.sample(name, t, frac);
          }
          // Interval-rate gauges from the sampler's private delta epochs:
          // dashboards get "what happened since the last tick" without
          // reset()ing the histograms out from under lifetime consumers.
          const auto publish_rate = [&](const char* name,
                                        obs::QuantileHistogram* hist,
                                        obs::QuantileHistogram::Epoch& epoch) {
            const auto delta = hist->snapshot_delta(epoch);
            metrics_.set_gauge(
                std::string(name) + ".rate_per_s",
                interval > 0.0
                    ? static_cast<double>(delta.count) / interval
                    : 0.0);
            metrics_.set_gauge(std::string(name) + ".interval_mean",
                               delta.mean());
          };
          publish_rate("queue_delay_us", queue_delay_us_, queue_epoch);
          publish_rate("service_time_us", service_time_us_, service_epoch);
          publish_rate("sched_decision_us", sched_decision_us_, sched_epoch);
          if (flusher_ != nullptr) {
            metrics_.set_gauge("obs.trace_dropped_total",
                               static_cast<double>(flusher_->dropped_total()));
            metrics_.set_gauge(
                "obs.trace_segments",
                static_cast<double>(flusher_->writer().segments_finalized()));
          }
          if (adapt_ != nullptr) {
            metrics_.set_gauge("adapt.publishes",
                               static_cast<double>(adapt_->publishes()));
            metrics_.set_gauge("adapt.rel_error", adapt_->mean_rel_error());
            for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
              const auto cls = static_cast<platform::PeClass>(c);
              metrics_.set_gauge(
                  "adapt.rel_error." + std::string(platform::pe_class_name(cls)),
                  adapt_->class_rel_error(cls));
            }
          }
          prev_t = t;
        });
    sampler_->start();
  }
  if (flusher_ != nullptr) {
    // Dedicated thread (not the metrics tick): a slow disk may stall a
    // flush for longer than the sampler period, and utilization series
    // should not gap when it does.
    flush_sampler_ = std::make_unique<obs::Sampler>(
        config_.obs.trace_flush_interval_s, [this](double) {
          const Status flushed = flusher_->flush(now());
          if (!flushed.ok()) {
            CEDR_LOG(kWarn, kLogTag)
                << "trace flush failed: " << flushed.to_string();
          }
        });
    flush_sampler_->start();
    CEDR_LOG(kInfo, kLogTag) << "trace pipeline enabled: dir="
                             << config_.obs.trace_dir << " flush_interval="
                             << config_.obs.trace_flush_interval_s << "s";
  }
  CEDR_LOG(kInfo, kLogTag) << "runtime started: platform="
                           << config_.platform.name
                           << " pes=" << config_.platform.pes.size()
                           << " scheduler=" << config_.scheduler;
  return Status::Ok();
}

Status Runtime::shutdown() {
  {
    std::lock_guard lock(impl_->app_mutex);
    if (!impl_->started || impl_->stopping.load(std::memory_order_relaxed)) {
      return Status::Ok();
    }
    impl_->accepting = false;
  }
  // Drain all in-flight applications before stopping the machinery.
  const Status drain = wait_all();
  if (sampler_ != nullptr) sampler_->stop();
  if (flush_sampler_ != nullptr) flush_sampler_->stop();
  tracer_.instant(obs::Category::kRuntime, "runtime_shutdown", 0, 0, now());
  impl_->stopping.store(true, std::memory_order_release);
  {
    // Pairs with the main loop's predicate check: a stop between "predicate
    // false" and "begin waiting" is never lost.
    std::lock_guard lock(impl_->stop_mutex);
  }
  impl_->stop_cv.notify_all();
  if (impl_->main_thread.joinable()) impl_->main_thread.join();
  for (auto& worker : impl_->workers) {
    worker->mailbox.close();
  }
  for (auto& worker : impl_->workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Join any application threads not yet reaped. Collect under the lock,
  // join outside it (the threads have already exited their main functions).
  std::vector<std::thread> app_threads;
  {
    std::lock_guard lock(impl_->app_mutex);
    for (auto& [id, app] : impl_->apps) {
      if (app->app_thread.joinable()) {
        app_threads.push_back(std::move(app->app_thread));
      }
    }
  }
  for (std::thread& t : app_threads) t.join();
  if (flusher_ != nullptr) {
    // Tail flush after every producer has quiesced: whatever the periodic
    // flush missed (including the runtime_shutdown instant above) lands in
    // the final, finalized segment.
    const Status flushed = flusher_->finish(now());
    if (!flushed.ok()) {
      CEDR_LOG(kWarn, kLogTag)
          << "final trace flush failed: " << flushed.to_string();
    }
  }
  CEDR_LOG(kInfo, kLogTag) << "runtime stopped: apps=" << completed_apps();
  return drain;
}

}  // namespace cedr::rt
