// Tests for offline trace analysis (trace::Report) over the span stream.
#include <gtest/gtest.h>

#include <filesystem>

#include "cedr/cedr.h"
#include "cedr/obs/segment.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr::trace {
namespace {

using obs::Category;
using obs::EventKind;

/// One executed attempt as the runtime records it: the enqueue flow on the
/// app's pid (a retry's re-enqueue opens a new one under the same key), then
/// the flow end and the execute span on the PE track.
void record_task(obs::SpanTracer& tracer, std::uint64_t app, std::uint64_t key,
                 const char* kernel, std::size_t size, std::uint64_t pe,
                 double enqueue, double start, double end,
                 std::uint32_t attempt = 0, bool ok = true) {
  tracer.flow(EventKind::kFlowBegin, Category::kApp, kernel, 1 + app, 0,
              enqueue, key);
  tracer.flow(EventKind::kFlowEnd, Category::kWorker, "execute", 0, 1 + pe,
              start, key);
  tracer.complete_span(Category::kWorker, kernel, 0, 1 + pe, start,
                       end - start, kernel, static_cast<double>(size),
                       ok ? obs::kAttemptArg : obs::kFailedAttemptArg,
                       static_cast<double>(attempt));
}

void record_app(obs::SpanTracer& tracer, std::uint64_t app, double arrival,
                double completion) {
  tracer.instant(Category::kApp, "app_arrival", 1 + app, 0, arrival);
  tracer.instant(Category::kApp, "app_complete", 1 + app, 0, completion,
                 "exec_time_s", completion - arrival);
}

/// Two apps, three tasks on two PEs, two scheduling rounds.
std::vector<obs::SpanEvent> sample_events() {
  obs::SpanTracer tracer(256);
  record_app(tracer, 1, 0.0, 0.4);
  record_app(tracer, 2, 0.1, 0.3);
  record_task(tracer, 1, 10, "FFT", 256, 0, 0.00, 0.05, 0.15);
  record_task(tracer, 1, 11, "FFT", 256, 1, 0.10, 0.20, 0.40);
  record_task(tracer, 2, 12, "ZIP", 256, 0, 0.15, 0.20, 0.30);
  tracer.complete_span(Category::kSched, "sched EFT", 0, 0, 0.01, 0.002,
                       "ready", 3.0, "assigned", 3.0);
  tracer.complete_span(Category::kSched, "sched EFT", 0, 0, 0.2, 0.004,
                       "ready", 7.0, "assigned", 7.0);
  EXPECT_EQ(tracer.dropped(), 0u);
  return tracer.snapshot();
}

std::vector<obs::TrackName> sample_tracks() {
  return {
      {.pid = 0, .tid = 1, .name = "cpu0"},
      {.pid = 0, .tid = 2, .name = "fft0"},
      {.pid = 2, .is_process = true, .name = "pd #1"},
      {.pid = 3, .is_process = true, .name = "tx #2"},
  };
}

TEST(Report, SummarizesInMemoryLog) {
  const Report report = summarize(sample_events(), sample_tracks());
  EXPECT_DOUBLE_EQ(report.makespan, 0.4);
  ASSERT_EQ(report.apps.size(), 2u);
  EXPECT_EQ(report.apps[0].name, "pd");  // sorted by arrival
  EXPECT_EQ(report.apps[0].tasks, 2u);
  EXPECT_EQ(report.apps[1].tasks, 1u);
  EXPECT_NEAR(report.avg_execution_time, (0.4 + 0.2) / 2, 1e-12);
  ASSERT_EQ(report.pes.size(), 2u);
  EXPECT_EQ(report.pes[0].name, "cpu0");
  EXPECT_EQ(report.pes[0].tasks, 2u);
  EXPECT_NEAR(report.pes[0].busy_time, 0.20, 1e-12);
  EXPECT_NEAR(report.pes[0].utilization, 0.5, 1e-12);
  EXPECT_EQ(report.sched_rounds, 2u);
  EXPECT_NEAR(report.total_sched_time, 0.006, 1e-12);
  EXPECT_EQ(report.max_ready_queue, 7u);
  EXPECT_NEAR(report.queue_delay_mean, (0.05 + 0.10 + 0.05) / 3, 1e-12);
  EXPECT_NEAR(report.queue_delay_max, 0.10, 1e-12);
  // Streaming quantiles from the log-linear histogram: within ~3 % of the
  // exact order statistics (delays 50/50/100 ms, services 100/100/200 ms).
  EXPECT_NEAR(report.queue_delay_p50, 0.05, 0.05 * 0.04);
  EXPECT_NEAR(report.queue_delay_p99, 0.10, 0.10 * 0.04);
  EXPECT_LE(report.queue_delay_p50, report.queue_delay_p95);
  EXPECT_LE(report.queue_delay_p95, report.queue_delay_p99);
  EXPECT_NEAR(report.service_time_mean, (0.10 + 0.20 + 0.10) / 3, 1e-12);
  EXPECT_NEAR(report.service_time_p50, 0.10, 0.10 * 0.04);
  EXPECT_NEAR(report.service_time_p99, 0.20, 0.20 * 0.04);
  EXPECT_LE(report.service_time_p50, report.service_time_p99);
}

TEST(Report, DecodesTaskExecutions) {
  const auto tasks = task_executions(sample_events());
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].app_instance_id, 1u);
  EXPECT_EQ(tasks[0].task_key, 10u);
  EXPECT_EQ(tasks[0].kernel, "FFT");
  EXPECT_EQ(tasks[0].pe_index, 0u);
  EXPECT_EQ(tasks[0].problem_size, 256u);
  EXPECT_DOUBLE_EQ(tasks[0].queue_delay(), 0.05);
  EXPECT_DOUBLE_EQ(tasks[0].service_time(), 0.10);
  EXPECT_EQ(tasks[1].pe_index, 1u);
  EXPECT_EQ(tasks[2].app_instance_id, 2u);
  EXPECT_EQ(tasks[2].kernel, "ZIP");
}

TEST(Report, FaultViewFromSpanStream) {
  obs::SpanTracer tracer(64);
  record_app(tracer, 1, 0.0, 0.5);
  // Task 7 fails on fft0, is re-enqueued after its backoff at 70 ms and
  // recovers on cpu0; task 8 fails for good.
  record_task(tracer, 1, 7, "FFT", 64, 1, 0.0, 0.01, 0.02, 0, false);
  tracer.instant(Category::kFault, "pe_quarantined", 0, 2, 0.02,
                 "consecutive_faults", 3.0);
  record_task(tracer, 1, 7, "FFT", 64, 0, 0.07, 0.10, 0.12, 1, true);
  tracer.instant(Category::kFault, "task_recovered", 0, 1, 0.12, "latency_s",
                 0.12);
  record_task(tracer, 1, 8, "FFT", 64, 0, 0.2, 0.21, 0.22, 0, false);
  tracer.instant(Category::kFault, "task_failed", 0, 1, 0.22, "attempts", 1.0);
  tracer.instant(Category::kFault, "pe_reinstated", 0, 2, 0.3);
  ASSERT_EQ(tracer.dropped(), 0u);
  const auto events = tracer.snapshot();

  const auto tasks = task_executions(events);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_FALSE(tasks[0].ok);
  EXPECT_TRUE(tasks[1].ok);
  EXPECT_EQ(tasks[1].attempt, 1u);
  EXPECT_EQ(tasks[1].task_key, 7u);
  EXPECT_DOUBLE_EQ(tasks[0].enqueue_time, 0.0);
  EXPECT_DOUBLE_EQ(tasks[1].enqueue_time, 0.07);  // the retry's re-enqueue
  EXPECT_NEAR(tasks[1].queue_delay(), 0.03, 1e-12);

  const Report report = summarize(events);
  EXPECT_EQ(report.failed_attempts, 2u);
  EXPECT_EQ(report.retried_attempts, 1u);
  EXPECT_EQ(report.failed_tasks, 1u);
  EXPECT_EQ(report.pes_quarantined, 1u);
  EXPECT_EQ(report.pes_reinstated, 1u);
  EXPECT_EQ(report.retry_latency_count, 1u);
  EXPECT_DOUBLE_EQ(report.retry_latency_mean, 0.12);
  // Queue delay counts every attempt from its own enqueue: 10, 30, 10 ms.
  EXPECT_NEAR(report.queue_delay_mean, 0.05 / 3.0, 1e-12);
  EXPECT_NEAR(report.queue_delay_max, 0.03, 1e-12);
  // Without track names, PEs read by index.
  ASSERT_EQ(report.pes.size(), 2u);
  EXPECT_EQ(report.pes[0].name, "pe0");
  EXPECT_EQ(report.pes[1].name, "pe1");
}

TEST(Report, FileRoundTrip) {
  // The offline path: rotated `.cbt` segments on disk, stitched back, must
  // summarize exactly like the in-memory stream they came from.
  const std::string dir =
      ::testing::TempDir() + "/cedr_report_segments_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  obs::SpanTracer tracer(256);
  for (const obs::SpanEvent& e : sample_events()) tracer.record(e);
  ASSERT_EQ(tracer.dropped(), 0u);
  obs::SegmentWriter writer({.dir = dir, .max_segment_events = 4});
  ASSERT_TRUE(writer.open().ok());
  std::uint64_t cursor = 0;
  ASSERT_TRUE(
      writer.append(tracer.drain(cursor), 0, sample_tracks(), 0.0).ok());
  ASSERT_TRUE(writer.finalize(sample_tracks()).ok());

  auto paths = obs::list_segments(dir);
  ASSERT_TRUE(paths.ok());
  EXPECT_GT(paths->size(), 1u);  // rotated
  auto stitched = obs::stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok()) << stitched.status().to_string();
  const Report direct = summarize(sample_events(), sample_tracks());
  const Report offline = summarize(stitched->events, stitched->tracks);
  EXPECT_DOUBLE_EQ(offline.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(offline.avg_execution_time, direct.avg_execution_time);
  ASSERT_EQ(offline.apps.size(), direct.apps.size());
  EXPECT_EQ(offline.apps[0].name, "pd");
  EXPECT_EQ(offline.pes.size(), direct.pes.size());
  EXPECT_DOUBLE_EQ(offline.queue_delay_mean, direct.queue_delay_mean);
  EXPECT_EQ(offline.max_ready_queue, direct.max_ready_queue);
  EXPECT_EQ(render_text(offline), render_text(direct));
  EXPECT_FALSE(obs::list_segments(dir + "/nope").ok());
  std::filesystem::remove_all(dir);
}

TEST(Report, TextRenderingContainsKeyNumbers) {
  const std::string text =
      render_text(summarize(sample_events(), sample_tracks()));
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("pd"), std::string::npos);
  EXPECT_NE(text.find("fft0"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("queue delay pcts"), std::string::npos);
  EXPECT_NE(text.find("task service time"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(Gantt, RendersRowsPerPe) {
  const std::string gantt = render_gantt(sample_events(), sample_tracks(), 40);
  // One row per PE plus the legend line.
  EXPECT_NE(gantt.find("cpu0"), std::string::npos);
  EXPECT_NE(gantt.find("fft0"), std::string::npos);
  // App 1's tasks drawn as '1', app 2's as '2'.
  EXPECT_NE(gantt.find('1'), std::string::npos);
  EXPECT_NE(gantt.find('2'), std::string::npos);
  // Columns span the executions (50..400 ms), not the time since t = 0:
  // the first task opens cpu0's row.
  EXPECT_NE(gantt.find("  cpu0    |1"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("columns span 50..400 ms"), std::string::npos)
      << gantt;
}

TEST(Gantt, EmptyLogIsSafe) {
  EXPECT_EQ(render_gantt({}, sample_tracks(), 40), "(no tasks)\n");
}

TEST(Report, EndToEndFromRuntimeTrace) {
  // Summaries computed from a real runtime's span stream must be
  // self-consistent.
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime
                  .submit_api("probe",
                              [] {
                                std::vector<cedr_cplx> buf(128);
                                for (int i = 0; i < 8; ++i) {
                                  (void)CEDR_FFT(buf.data(), buf.data(), 128);
                                }
                              })
                  .ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  const Report report =
      summarize(runtime.tracer().snapshot(), runtime.trace_tracks());
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_EQ(report.apps[0].name, "probe");
  EXPECT_EQ(report.apps[0].tasks, 8u);
  double pe_tasks = 0;
  for (const auto& pe : report.pes) pe_tasks += static_cast<double>(pe.tasks);
  EXPECT_EQ(pe_tasks, 8.0);
  EXPECT_EQ(report.pes.size(), config.platform.pes.size());  // idle PEs too
  EXPECT_EQ(report.sched_rounds, runtime.counters().get("sched_rounds"));
  EXPECT_GE(report.makespan, report.avg_execution_time);
  EXPECT_GE(report.queue_delay_max, report.queue_delay_mean);
}

}  // namespace
}  // namespace cedr::trace
