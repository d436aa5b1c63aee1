// Tests for offline trace analysis (trace::Report).
#include <gtest/gtest.h>

#include "cedr/cedr.h"
#include "cedr/runtime/runtime.h"
#include "cedr/trace/report.h"

namespace cedr::trace {
namespace {

void fill_sample(TraceLog& log) {
  log.add_app(AppRecord{.app_instance_id = 1,
                        .app_name = "pd",
                        .arrival_time = 0.0,
                        .launch_time = 0.0,
                        .completion_time = 0.4});
  log.add_app(AppRecord{.app_instance_id = 2,
                        .app_name = "tx",
                        .arrival_time = 0.1,
                        .launch_time = 0.1,
                        .completion_time = 0.3});
  log.add_task(TaskRecord{.app_instance_id = 1,
                          .app_name = "",
                          .task_id = 10,
                          .kernel_name = "FFT",
                          .pe_name = "cpu0",
                          .enqueue_time = 0.00,
                          .start_time = 0.05,
                          .end_time = 0.15});
  log.add_task(TaskRecord{.app_instance_id = 1,
                          .app_name = "",
                          .task_id = 11,
                          .kernel_name = "FFT",
                          .pe_name = "fft0",
                          .enqueue_time = 0.10,
                          .start_time = 0.20,
                          .end_time = 0.40});
  log.add_task(TaskRecord{.app_instance_id = 2,
                          .app_name = "",
                          .task_id = 12,
                          .kernel_name = "ZIP",
                          .pe_name = "cpu0",
                          .enqueue_time = 0.15,
                          .start_time = 0.20,
                          .end_time = 0.30});
  log.add_sched(SchedRecord{.time = 0.01, .ready_tasks = 3, .assigned = 3,
                            .decision_time = 0.002});
  log.add_sched(SchedRecord{.time = 0.2, .ready_tasks = 7, .assigned = 7,
                            .decision_time = 0.004});
}

TEST(Report, SummarizesInMemoryLog) {
  TraceLog log;
  fill_sample(log);
  const Report report = summarize(log);
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

TEST(Report, JsonRoundTripMatchesInMemory) {
  TraceLog log;
  fill_sample(log);
  const Report direct = summarize(log);
  auto from_json = summarize_json(log.to_json());
  ASSERT_TRUE(from_json.ok());
  EXPECT_DOUBLE_EQ(from_json->makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(from_json->avg_execution_time, direct.avg_execution_time);
  EXPECT_EQ(from_json->apps.size(), direct.apps.size());
  EXPECT_EQ(from_json->pes.size(), direct.pes.size());
  EXPECT_DOUBLE_EQ(from_json->queue_delay_mean, direct.queue_delay_mean);
  EXPECT_EQ(from_json->max_ready_queue, direct.max_ready_queue);
}

TEST(Report, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cedr_report_test.json";
  TraceLog log;
  fill_sample(log);
  ASSERT_TRUE(log.write_json(path).ok());
  auto report = summarize_file(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->apps.size(), 2u);
  EXPECT_EQ(summarize_file("/nope.json").status().code(),
            StatusCode::kNotFound);
}

TEST(Report, RejectsMalformedDocuments) {
  EXPECT_FALSE(summarize_json(json::Value(1)).ok());
  EXPECT_FALSE(summarize_json(json::Object{}).ok());
  EXPECT_FALSE(summarize_json(json::Object{
                   {"tasks", json::Value(json::Array{})},
                   {"apps", json::Value(3)},
                   {"sched_rounds", json::Value(json::Array{})}})
                   .ok());
}

TEST(Report, TextRenderingContainsKeyNumbers) {
  TraceLog log;
  fill_sample(log);
  const std::string text = render_text(summarize(log));
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("pd"), std::string::npos);
  EXPECT_NE(text.find("fft0"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("queue delay pcts"), std::string::npos);
  EXPECT_NE(text.find("task service time"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(Report, ChromeExportFromTraceJson) {
  TraceLog log;
  fill_sample(log);
  auto chrome = chrome_trace_from_trace_json(log.to_json());
  ASSERT_TRUE(chrome.ok());
  const json::Value* rows = chrome->find("traceEvents");
  ASSERT_NE(rows, nullptr);
  std::size_t spans = 0, flows = 0, instants = 0;
  double last_ts = -1.0;
  for (const json::Value& row : rows->as_array()) {
    const std::string ph = row.get_string("ph", "");
    if (ph == "M") continue;
    const double ts = row.get_double("ts", -1.0);
    EXPECT_GE(ts, last_ts);  // exporter sorts by timestamp
    last_ts = ts;
    if (ph == "X") ++spans;
    if (ph == "s" || ph == "f") ++flows;
    if (ph == "i") ++instants;
  }
  // 3 task spans + 2 sched rounds, a begin+end flow pair per task, and an
  // arrival + completion instant per app.
  EXPECT_EQ(spans, 5u);
  EXPECT_EQ(flows, 6u);
  EXPECT_EQ(instants, 4u);
  // Malformed input is rejected, not crashed on.
  EXPECT_FALSE(chrome_trace_from_trace_json(json::Value(1)).ok());
}

TEST(Gantt, RendersRowsPerPe) {
  TraceLog log;
  fill_sample(log);
  const std::string gantt = render_gantt(log, 40);
  // One row per PE plus the legend line.
  EXPECT_NE(gantt.find("cpu0"), std::string::npos);
  EXPECT_NE(gantt.find("fft0"), std::string::npos);
  // App 1's tasks drawn as '1', app 2's as '2'.
  EXPECT_NE(gantt.find('1'), std::string::npos);
  EXPECT_NE(gantt.find('2'), std::string::npos);
}

TEST(Gantt, EmptyLogIsSafe) {
  TraceLog empty;
  EXPECT_EQ(render_gantt(empty, 40), "(no tasks)\n");
}

TEST(Report, EndToEndFromRuntimeTrace) {
  // Summaries computed from a real runtime trace must be self-consistent.
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
  const Report report = summarize(runtime.trace_log());
  EXPECT_EQ(report.apps.size(), 1u);
  EXPECT_EQ(report.apps[0].tasks, 8u);
  double pe_tasks = 0;
  for (const auto& pe : report.pes) pe_tasks += static_cast<double>(pe.tasks);
  EXPECT_EQ(pe_tasks, 8.0);
  EXPECT_GE(report.makespan, report.avg_execution_time);
  EXPECT_GE(report.queue_delay_max, report.queue_delay_mean);
}

}  // namespace
}  // namespace cedr::trace
