// IpcServer command execution: one protocol line in, one reply line out.
//
// Runs on the event-loop thread for cheap verbs and on the worker pool for
// slow ones (see server.cpp for the classification); everything it touches
// on the runtime is already thread-safe, so no IpcServer lock is held
// while a command executes. Each command records a span on the IPC trace
// lane and an `ipc_cmd_us.<verb>` latency sample measured from event-loop
// admission (parse time) to completion — for pooled verbs that includes
// time spent queued behind other slow commands.

#include <dlfcn.h>

#include <fstream>
#include <sstream>

#include "cedr/apps/dag_template.h"
#include "cedr/common/log.h"
#include "cedr/ipc/ipc.h"
#include "cedr/obs/chrome_trace.h"
#include "ipc_internal.h"

namespace cedr::ipc {
namespace {

constexpr std::string_view kLogTag = "ipc";

StatusOr<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

obs::QuantileHistogram& IpcServer::cmd_histogram(const std::string& verb) {
  const int index = cmd_verb_index(verb);
  if (index >= 0) return *cmd_hist_[index];
  return runtime_.metrics().histogram("ipc_cmd_us." + verb);
}

std::string IpcServer::handle_command(const std::string& line,
                                      double admit_time) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;

  // Every command becomes a span on the IPC lane of the live trace, and an
  // admission-to-completion latency sample in ipc_cmd_us.<verb>.
  struct CommandScope {
    IpcServer& server;
    std::string verb;
    double start;
    ~CommandScope() {
      const double end = server.runtime_.now();
      server.runtime_.tracer().complete_span(obs::Category::kIpc, verb.c_str(),
                                             0, obs::kIpcTid, start,
                                             end - start);
      server.cmd_histogram(verb).record((end - start) * 1e6);
    }
  } scope{*this, verb, admit_time};

  if (verb == "SUBMIT") {
    std::string so_path;
    std::string app_name;
    in >> so_path >> app_name;
    if (so_path.empty()) return "ERR SUBMIT requires a shared-object path\n";
    if (app_name.empty()) app_name = so_path;
    // The paper's flow: the shared object application is parsed (dlopen)
    // and a new system thread executes its main function.
    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      return std::string("ERR dlopen: ") + ::dlerror() + "\n";
    }
    using AppMain = void (*)();
    auto app_main =
        reinterpret_cast<AppMain>(::dlsym(handle, "cedr_app_main"));
    if (app_main == nullptr) {
      ::dlclose(handle);
      return "ERR shared object does not export cedr_app_main\n";
    }
    {
      std::lock_guard lock(objects_mutex_);
      loaded_objects_.push_back(handle);
    }
    auto instance = runtime_.submit_api(app_name, [app_main] { app_main(); });
    if (!instance.ok()) {
      return "ERR " + instance.status().to_string() + "\n";
    }
    CEDR_LOG(kInfo, kLogTag) << "submitted " << app_name << " as instance "
                             << *instance;
    return "OK " + std::to_string(*instance) + "\n";
  }

  if (verb == "SUBMITDAG") {
    // DAG-based submission: the JSON document compiles into a DagTemplate
    // (standard-module implementations resolved over its declared buffers)
    // through the process-wide template cache shared with the shm lane, so
    // resubmitting the same document skips parse + validate entirely; only
    // the per-instance buffers and impl arrays are built per command.
    std::string json_path;
    std::string app_name;
    in >> json_path >> app_name;
    if (json_path.empty()) return "ERR SUBMITDAG requires a JSON path\n";
    auto text = read_text_file(json_path);
    if (!text.ok()) return "ERR " + text.status().to_string() + "\n";
    auto tmpl = apps::TemplateCache::global().get_or_compile(*text);
    if (!tmpl.ok()) return "ERR " + tmpl.status().to_string() + "\n";
    apps::DagTemplate::Instance inst = (*tmpl)->instantiate();
    auto instance = runtime_.submit_dag(rt::DagSubmission{
        .descriptor = std::move(inst.descriptor),
        .impls = std::move(inst.impls),
    });
    if (!instance.ok()) {
      return "ERR " + instance.status().to_string() + "\n";
    }
    CEDR_LOG(kInfo, kLogTag) << "submitted DAG " << json_path
                             << " as instance " << *instance;
    return "OK " + std::to_string(*instance) + "\n";
  }

  if (verb == "STATUS") {
    return "OK submitted=" + std::to_string(runtime_.submitted_apps()) +
           " completed=" + std::to_string(runtime_.completed_apps()) + "\n";
  }

  if (verb == "STATS") {
    const rt::RuntimeStats stats = runtime_.stats();
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "OK uptime_s=" << stats.uptime_s << " submitted=" << stats.submitted
        << " completed=" << stats.completed << " inflight=" << stats.inflight
        << " ready=" << stats.ready_tasks
        << " deferred=" << stats.deferred_tasks
        << " tasks=" << stats.tasks_executed << " pe_busy=";
    for (std::size_t i = 0; i < stats.pes.size(); ++i) {
      if (i > 0) out << ',';
      out << stats.pes[i].name << ':' << stats.pes[i].busy_fraction;
      if (stats.pes[i].quarantined) out << "(q)";
    }
    out << "\n";
    return out.str();
  }

  if (verb == "METRICS") {
    const rt::RuntimeStats stats = runtime_.stats();
    json::Object stats_obj{
        {"uptime_s", json::Value(stats.uptime_s)},
        {"submitted", json::Value(stats.submitted)},
        {"completed", json::Value(stats.completed)},
        {"inflight", json::Value(stats.inflight)},
        {"ready_tasks", json::Value(stats.ready_tasks)},
        {"deferred_tasks", json::Value(stats.deferred_tasks)},
        {"tasks_executed", json::Value(stats.tasks_executed)},
    };
    json::Object pe_busy;
    for (const auto& pe : stats.pes) {
      pe_busy.emplace(pe.name, json::Object{
                                   {"busy", json::Value(pe.busy_fraction)},
                                   {"tasks", json::Value(pe.tasks)},
                                   {"quarantined", json::Value(pe.quarantined)},
                               });
    }
    stats_obj.emplace("pes", json::Value(std::move(pe_busy)));
    // Refresh the template-cache gauges on demand so the snapshot below
    // (and cedr_top's lifecycle row) always reflects the current cache.
    const apps::TemplateCache::Stats cache_stats =
        apps::TemplateCache::global().stats();
    runtime_.metrics().set_gauge("runtime.template_cache_hits",
                                 static_cast<double>(cache_stats.hits));
    runtime_.metrics().set_gauge("runtime.template_cache_misses",
                                 static_cast<double>(cache_stats.misses));
    runtime_.metrics().set_gauge("runtime.template_cache_evictions",
                                 static_cast<double>(cache_stats.evictions));
    runtime_.metrics().set_gauge("sched.avail_lead_s", stats.avail_lead_s);
    const json::Value doc = json::Object{
        {"metrics", runtime_.metrics().to_json()},
        {"counters", runtime_.counters().to_json()},
        {"stats", json::Value(std::move(stats_obj))},
    };
    // dump() is compact (single line), so the reply stays one LF-terminated
    // protocol line.
    return "OK " + doc.dump() + "\n";
  }

  if (verb == "COSTS") {
    // Static vs learned cost tables from the online estimator. Served even
    // while applications are in flight: pair_stats() takes the estimator's
    // mutex briefly but never blocks the scheduling hot path (the
    // schedulers read lock-free snapshots, not this reporting view).
    const adapt::OnlineCostEstimator* estimator = runtime_.adapt_estimator();
    if (estimator == nullptr) {
      const json::Value doc = json::Object{{"enabled", json::Value(false)}};
      return "OK " + doc.dump() + "\n";
    }
    return "OK " + estimator->to_json().dump() + "\n";
  }

  if (verb == "WAIT") {
    const Status status = runtime_.wait_all();
    return status.ok() ? "OK\n" : "ERR " + status.to_string() + "\n";
  }

  if (verb == "SHUTDOWN") {
    // Writes nothing: the daemon's offline log is the span stream
    // (--trace-dir segments flushed as it runs, --trace-out on exit).
    //
    // The worker notifies wait_for_shutdown() only after this reply is
    // deposited (worker_loop), and the loop's teardown pass flushes it, so
    // the client reads OK before the daemon closes the connection.
    return "OK\n";
  }

  return "ERR unknown command: " + verb + "\n";
}

}  // namespace cedr::ipc
