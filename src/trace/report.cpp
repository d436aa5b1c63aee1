#include "cedr/trace/report.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "cedr/obs/metrics.h"

namespace cedr::trace {
namespace {

bool named(const char* name, const char* expected) {
  return name != nullptr && std::strcmp(name, expected) == 0;
}

bool is_worker_span(const obs::SpanEvent& e) {
  return e.kind == obs::EventKind::kComplete &&
         e.category == obs::Category::kWorker && e.tid > 0;
}

bool is_pe_tid(std::uint64_t tid) { return tid > 0 && tid < obs::kIpcTid; }

/// PE names by worker tid: every named PE track, then a generated name for
/// each PE that ran a task without one.
std::map<std::uint64_t, std::string> pe_names(
    const std::vector<TaskExecution>& tasks,
    const std::vector<obs::TrackName>& tracks) {
  std::map<std::uint64_t, std::string> names;
  for (const obs::TrackName& track : tracks) {
    if (track.pid == 0 && !track.is_process && is_pe_tid(track.tid)) {
      names[track.tid] = track.name;
    }
  }
  for (const TaskExecution& task : tasks) {
    names.try_emplace(1 + task.pe_index,
                      "pe" + std::to_string(task.pe_index));
  }
  return names;
}

/// App names by instance id, from the process tracks ("name #id") without
/// the id suffix.
std::unordered_map<std::uint64_t, std::string> app_names(
    const std::vector<obs::TrackName>& tracks) {
  std::unordered_map<std::uint64_t, std::string> names;
  for (const obs::TrackName& track : tracks) {
    if (!track.is_process || track.pid == 0) continue;
    const std::string suffix = " #" + std::to_string(track.pid - 1);
    std::string name = track.name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      name.resize(name.size() - suffix.size());
    }
    names[track.pid - 1] = std::move(name);
  }
  return names;
}

}  // namespace

std::vector<TaskExecution> task_executions(
    const std::vector<obs::SpanEvent>& events) {
  struct Enqueue {
    std::uint64_t app = 0;
    double ts = 0.0;
  };
  // Flow id -> its latest begin: a retry re-enters the queue with a new
  // begin, so each attempt joins the enqueue that preceded it.
  std::unordered_map<std::uint64_t, Enqueue> enqueues;
  std::unordered_map<std::uint64_t, std::uint64_t> executing;  // tid -> flow
  std::vector<TaskExecution> out;
  for (const obs::SpanEvent& e : events) {
    if (e.kind == obs::EventKind::kFlowBegin && e.pid > 0) {
      enqueues[e.flow_id] = Enqueue{e.pid - 1, e.ts};
    } else if (e.kind == obs::EventKind::kFlowEnd && e.tid > 0) {
      executing[e.tid] = e.flow_id;
    } else if (is_worker_span(e) && e.arg0_name != nullptr) {
      TaskExecution task{
          .kernel = e.arg0_name,
          .pe_index = static_cast<std::size_t>(e.tid - 1),
          .problem_size = static_cast<std::size_t>(e.arg0),
          .enqueue_time = e.ts,
          .start_time = e.ts,
          .end_time = e.ts + e.dur,
          .attempt = static_cast<std::uint32_t>(e.arg1),
          .ok = !named(e.arg1_name, obs::kFailedAttemptArg),
      };
      // The worker ends the task's flow right before its execute span, on
      // the same track, so the latest flow end there names this task.
      if (const auto flow = executing.find(e.tid); flow != executing.end()) {
        task.task_key = flow->second;
        if (const auto begin = enqueues.find(flow->second);
            begin != enqueues.end()) {
          task.app_instance_id = begin->second.app;
          task.enqueue_time = begin->second.ts;
        }
        executing.erase(flow);
      }
      out.push_back(std::move(task));
    }
  }
  return out;
}

Report summarize(const std::vector<obs::SpanEvent>& events,
                 const std::vector<obs::TrackName>& tracks) {
  Report report;
  const std::vector<TaskExecution> tasks = task_executions(events);

  const auto names_by_app = app_names(tracks);
  std::map<std::uint64_t, double> arrivals;
  std::map<std::uint64_t, std::size_t> app_tasks;
  double retry_latency_total = 0.0;
  for (const obs::SpanEvent& e : events) {
    if (e.kind == obs::EventKind::kInstant) {
      const std::string_view name = e.name;
      if (name == "app_arrival" && e.pid > 0) {
        arrivals[e.pid - 1] = e.ts;
      } else if (name == "app_complete" && e.pid > 0) {
        const auto app = names_by_app.find(e.pid - 1);
        report.apps.push_back(Report::AppSummary{
            .instance_id = e.pid - 1,
            .name = app != names_by_app.end() ? app->second : "app",
            .arrival = e.ts - e.arg0,
            .execution_time = e.arg0,
        });
        report.makespan = std::max(report.makespan, e.ts);
        report.avg_execution_time += e.arg0;
      } else if (name == "task_failed") {
        ++report.failed_tasks;
      } else if (name == "pe_quarantined") {
        ++report.pes_quarantined;
      } else if (name == "pe_reinstated") {
        ++report.pes_reinstated;
      } else if (name == "task_recovered" && named(e.arg0_name, "latency_s")) {
        ++report.retry_latency_count;
        retry_latency_total += e.arg0;
      }
    } else if (e.kind == obs::EventKind::kComplete &&
               e.category == obs::Category::kSched &&
               named(e.arg0_name, "ready")) {
      ++report.sched_rounds;
      report.total_sched_time += e.dur;
      report.max_ready_queue =
          std::max(report.max_ready_queue, static_cast<std::size_t>(e.arg0));
    }
  }
  if (!report.apps.empty()) {
    report.avg_execution_time /= static_cast<double>(report.apps.size());
  }
  if (report.retry_latency_count > 0) {
    report.retry_latency_mean =
        retry_latency_total / static_cast<double>(report.retry_latency_count);
  }

  const std::map<std::uint64_t, std::string> names = pe_names(tasks, tracks);
  std::map<std::uint64_t, Report::PeSummary> pes;
  for (const auto& [tid, name] : names) pes[tid].name = name;
  double delay_total = 0.0;
  double service_total = 0.0;
  obs::QuantileHistogram delay_hist;
  obs::QuantileHistogram service_hist;
  for (const TaskExecution& task : tasks) {
    Report::PeSummary& pe = pes[1 + task.pe_index];
    ++pe.tasks;
    pe.busy_time += task.service_time();
    report.makespan = std::max(report.makespan, task.end_time);
    service_total += task.service_time();
    service_hist.record(task.service_time() * 1e6);
    ++app_tasks[task.app_instance_id];
    if (!task.ok) ++report.failed_attempts;
    if (task.attempt > 0) ++report.retried_attempts;
    delay_total += task.queue_delay();
    delay_hist.record(task.queue_delay() * 1e6);
    report.queue_delay_max =
        std::max(report.queue_delay_max, task.queue_delay());
  }
  if (!tasks.empty()) {
    report.queue_delay_mean = delay_total / static_cast<double>(tasks.size());
    report.queue_delay_p50 = delay_hist.quantile(0.50) / 1e6;
    report.queue_delay_p95 = delay_hist.quantile(0.95) / 1e6;
    report.queue_delay_p99 = delay_hist.quantile(0.99) / 1e6;
    report.service_time_mean =
        service_total / static_cast<double>(tasks.size());
    report.service_time_p50 = service_hist.quantile(0.50) / 1e6;
    report.service_time_p95 = service_hist.quantile(0.95) / 1e6;
    report.service_time_p99 = service_hist.quantile(0.99) / 1e6;
  }

  for (auto& app : report.apps) {
    if (const auto it = arrivals.find(app.instance_id); it != arrivals.end()) {
      app.arrival = it->second;
    }
    if (const auto it = app_tasks.find(app.instance_id); it != app_tasks.end()) {
      app.tasks = it->second;
    }
  }
  std::sort(report.apps.begin(), report.apps.end(),
            [](const auto& a, const auto& b) { return a.arrival < b.arrival; });
  for (auto& [tid, pe] : pes) {
    pe.utilization = report.makespan > 0.0 ? pe.busy_time / report.makespan : 0.0;
    report.pes.push_back(pe);
  }
  std::sort(report.pes.begin(), report.pes.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return report;
}

std::string render_text(const Report& report) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "trace summary\n";
  out << "  makespan:            " << report.makespan * 1e3 << " ms\n";
  out << "  apps:                " << report.apps.size() << "\n";
  out << "  avg exec time/app:   " << report.avg_execution_time * 1e3
      << " ms\n";
  out << "  sched rounds:        " << report.sched_rounds
      << " (total decision time " << report.total_sched_time * 1e3
      << " ms, max ready queue " << report.max_ready_queue << ")\n";
  out << "  task queue delay:    mean " << report.queue_delay_mean * 1e3
      << " ms, max " << report.queue_delay_max * 1e3 << " ms\n";
  out << "  queue delay pcts:    p50 " << report.queue_delay_p50 * 1e3
      << " ms, p95 " << report.queue_delay_p95 * 1e3 << " ms, p99 "
      << report.queue_delay_p99 * 1e3 << " ms\n";
  out << "  task service time:   mean " << report.service_time_mean * 1e3
      << " ms, p50 " << report.service_time_p50 * 1e3 << " ms, p95 "
      << report.service_time_p95 * 1e3 << " ms, p99 "
      << report.service_time_p99 * 1e3 << " ms\n";
  // Fault-tolerance summary. The lines always print (0 when the run was
  // fault-free) so resilience dashboards can grep for them.
  out << "\nfault tolerance\n";
  out << "  failed_attempts:     " << report.failed_attempts << "\n";
  out << "  tasks_retried:       " << report.retried_attempts << "\n";
  out << "  pes_quarantined:     " << report.pes_quarantined << "\n";
  out << "  pes_reinstated:      " << report.pes_reinstated << "\n";
  out << "  tasks_failed:        " << report.failed_tasks << "\n";
  if (report.retry_latency_count > 0) {
    out << "  retry latency:       " << report.retry_latency_count
        << " recovered tasks, mean " << report.retry_latency_mean * 1e3
        << " ms first-enqueue to success\n";
  }
  out << "\napplications (by arrival)\n";
  for (const auto& app : report.apps) {
    out << "  #" << app.instance_id << " " << app.name << ": arrival "
        << app.arrival * 1e3 << " ms, exec " << app.execution_time * 1e3
        << " ms, " << app.tasks << " tasks\n";
  }
  out << "\nprocessing elements\n";
  for (const auto& pe : report.pes) {
    out << "  " << pe.name << ": " << pe.tasks << " tasks, busy "
        << pe.busy_time * 1e3 << " ms, utilization "
        << pe.utilization * 100.0 << "%\n";
  }
  return out.str();
}

std::string render_gantt(const std::vector<obs::SpanEvent>& events,
                         const std::vector<obs::TrackName>& tracks,
                         std::size_t width) {
  const std::vector<TaskExecution> tasks = task_executions(events);
  if (tasks.empty() || width == 0) return "(no tasks)\n";
  // Columns cover the executions, not the time since the runtime's epoch:
  // a daemon idle before its work would otherwise squeeze it into the
  // last few columns.
  double t_begin = tasks.front().start_time;
  double t_end = tasks.front().end_time;
  for (const TaskExecution& task : tasks) {
    t_begin = std::min(t_begin, task.start_time);
    t_end = std::max(t_end, task.end_time);
  }
  const double span = t_end - t_begin;

  const std::map<std::uint64_t, std::string> names = pe_names(tasks, tracks);
  std::map<std::uint64_t, std::string> rows;
  for (const auto& [tid, name] : names) rows[tid] = std::string(width, '.');
  const auto to_col = [&](double t) -> std::size_t {
    if (!(span > 0.0)) return 0;
    return std::min(width - 1,
                    static_cast<std::size_t>((t - t_begin) / span *
                                             static_cast<double>(width)));
  };
  for (const TaskExecution& task : tasks) {
    std::string& row = rows[1 + task.pe_index];
    const char mark = "0123456789abcdef"[task.app_instance_id % 16];
    for (std::size_t c = to_col(task.start_time); c <= to_col(task.end_time);
         ++c) {
      row[c] = mark;
    }
  }
  std::map<std::string, const std::string*> by_name;
  for (const auto& [tid, row] : rows) by_name[names.at(tid)] = &row;

  std::ostringstream out;
  for (const auto& [pe, row] : by_name) {
    out << "  " << pe;
    for (std::size_t pad = pe.size(); pad < 8; ++pad) out << ' ';
    out << '|' << *row << "|\n";
  }
  out << "  (columns span " << t_begin * 1e3 << ".." << t_end * 1e3
      << " ms; digits are app instance ids mod 16)\n";
  return out.str();
}

}  // namespace cedr::trace
