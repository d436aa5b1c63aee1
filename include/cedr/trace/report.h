#pragma once
// Offline trace analysis.
//
// The paper's daemon "serializes all the logs it has collected relating to
// task execution, performance counter measurements, and so on for later
// offline analysis by the user" (§II-A). Here that log is the span stream
// (cedr/obs/span.h): live from SpanTracer::snapshot(), or offline from the
// rotated `.cbt` segments a daemon leaves under --trace-dir
// (obs::stitch_segments). This module decodes the stream into task
// executions and computes the summaries the paper's evaluation is built
// from — per-application execution times, per-PE utilization, queue-delay
// statistics, scheduling totals — plus an ASCII Gantt rendering of task
// placement over time.
//
// Stream conventions it reads (docs/observability.md), shared by the
// threaded runtime and the emulator:
//   * a worker execute span (category worker, tid 1 + PE index) carries the
//     kernel name as arg0's name with the problem size as its value, and
//     the attempt index as arg1, named "attempt" when the attempt succeeded
//     and "failed_attempt" when it did not;
//   * each task's enqueue flow begins on its app's pid (1 + instance id)
//     and ends ("execute") on the PE track right before its execute span;
//   * "app_arrival" / "app_complete" instants (arg exec_time_s) bracket
//     each application, "sched ..." spans (args ready / assigned) mark each
//     scheduling round, and fault instants ("task_failed",
//     "task_recovered" with latency_s, "pe_quarantined", "pe_reinstated")
//     record the fault-tolerance story.

#include <cstdint>
#include <string>
#include <vector>

#include "cedr/obs/chrome_trace.h"
#include "cedr/obs/span.h"

namespace cedr::trace {

/// One execution attempt, decoded from a worker execute span joined with
/// its task's enqueue flow.
struct TaskExecution {
  std::uint64_t app_instance_id = 0;  ///< 0 if the enqueue flow is missing
  std::uint64_t task_key = 0;         ///< flow id; 0 if the flow is missing
  std::string kernel;                 ///< "FFT", "ZIP", ...
  std::size_t pe_index = 0;           ///< worker tid - 1
  std::size_t problem_size = 0;
  /// This attempt's enqueue: the first for attempt 0, the re-enqueue after
  /// backoff for a retry. Equals start_time when the enqueue flow is missing.
  double enqueue_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  std::uint32_t attempt = 0;  ///< 0 = first execution, 1+ = retries
  bool ok = true;

  [[nodiscard]] double queue_delay() const noexcept {
    return start_time - enqueue_time;
  }
  [[nodiscard]] double service_time() const noexcept {
    return end_time - start_time;
  }
};

/// Every worker execute span in `events` (record order), decoded.
std::vector<TaskExecution> task_executions(
    const std::vector<obs::SpanEvent>& events);

/// Aggregated view of one execution trace.
struct Report {
  struct AppSummary {
    std::uint64_t instance_id = 0;
    std::string name;
    double arrival = 0.0;
    double execution_time = 0.0;
    std::size_t tasks = 0;  ///< execution attempts
  };
  struct PeSummary {
    std::string name;
    std::size_t tasks = 0;
    double busy_time = 0.0;
    double utilization = 0.0;  ///< busy / makespan
  };

  std::vector<AppSummary> apps;     ///< completed apps, sorted by arrival
  std::vector<PeSummary> pes;       ///< sorted by name
  double makespan = 0.0;            ///< last task end / app completion
  double avg_execution_time = 0.0;
  double total_sched_time = 0.0;
  std::size_t sched_rounds = 0;
  std::size_t max_ready_queue = 0;
  /// Queue-delay statistics (start - enqueue) over every attempt, each from
  /// its own enqueue, seconds.
  /// Quantiles are streaming estimates from a log-linear histogram
  /// (obs::QuantileHistogram).
  double queue_delay_mean = 0.0;
  double queue_delay_max = 0.0;
  double queue_delay_p50 = 0.0;
  double queue_delay_p95 = 0.0;
  double queue_delay_p99 = 0.0;
  /// Service-time statistics (end - start) over all attempts, seconds.
  double service_time_mean = 0.0;
  double service_time_p50 = 0.0;
  double service_time_p95 = 0.0;
  double service_time_p99 = 0.0;
  /// Fault-tolerance view.
  std::size_t failed_attempts = 0;   ///< executions that failed
  std::size_t retried_attempts = 0;  ///< executions with attempt > 0
  std::size_t failed_tasks = 0;      ///< terminal failures (retries exhausted)
  std::size_t pes_quarantined = 0;
  std::size_t pes_reinstated = 0;
  std::uint64_t retry_latency_count = 0;  ///< recovered tasks
  double retry_latency_mean = 0.0;        ///< mean first-enqueue-to-success
};

/// Builds a report from a span stream. `tracks` names PEs and apps (the
/// runtime's trace_tracks(), or a stitched trace's table); unnamed PEs
/// read "pe<index>".
Report summarize(const std::vector<obs::SpanEvent>& events,
                 const std::vector<obs::TrackName>& tracks = {});

/// Renders the report as human-readable text.
std::string render_text(const Report& report);

/// Renders an ASCII Gantt chart of task executions: one row per PE (every
/// named PE track plus any PE that ran a task), `width` character columns
/// from the first task start to the last task end. Tasks are drawn with the last hex digit of their
/// application instance id, so interleaving across applications is visible
/// at a glance.
std::string render_gantt(const std::vector<obs::SpanEvent>& events,
                         const std::vector<obs::TrackName>& tracks = {},
                         std::size_t width = 100);

}  // namespace cedr::trace
