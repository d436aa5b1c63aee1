// Tests for the execution trace log and PAPI-substitute counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <thread>

#include "cedr/trace/trace.h"

namespace cedr::trace {
namespace {

TEST(TraceLog, RecordsAndComputesMetrics) {
  TraceLog log;
  log.add_app(AppRecord{.app_instance_id = 1,
                        .app_name = "a",
                        .arrival_time = 0.0,
                        .launch_time = 0.1,
                        .completion_time = 0.5});
  log.add_app(AppRecord{.app_instance_id = 2,
                        .app_name = "b",
                        .arrival_time = 0.2,
                        .launch_time = 0.2,
                        .completion_time = 1.0});
  EXPECT_NEAR(log.avg_app_execution_time(), (0.4 + 0.8) / 2, 1e-12);

  log.add_sched(SchedRecord{.time = 0.1, .ready_tasks = 5, .assigned = 5,
                            .decision_time = 0.01});
  log.add_sched(SchedRecord{.time = 0.2, .ready_tasks = 2, .assigned = 2,
                            .decision_time = 0.03});
  EXPECT_NEAR(log.total_sched_time(), 0.04, 1e-12);
  EXPECT_NEAR(log.avg_sched_overhead_per_app(), 0.02, 1e-12);
}

TEST(TraceLog, TaskRecordDerivedTimes) {
  TaskRecord record;
  record.enqueue_time = 1.0;
  record.start_time = 1.5;
  record.end_time = 2.25;
  EXPECT_DOUBLE_EQ(record.queue_delay(), 0.5);
  EXPECT_DOUBLE_EQ(record.service_time(), 0.75);
}

TEST(TraceLog, EmptyLogMetricsAreZero) {
  TraceLog log;
  EXPECT_EQ(log.avg_app_execution_time(), 0.0);
  EXPECT_EQ(log.avg_sched_overhead_per_app(), 0.0);
  EXPECT_EQ(log.total_sched_time(), 0.0);
}

TEST(TraceLog, JsonSerializationRoundTrips) {
  TraceLog log;
  log.add_task(TaskRecord{.app_instance_id = 3,
                          .app_name = "pd",
                          .task_id = 17,
                          .kernel_name = "FFT",
                          .pe_name = "fft0",
                          .enqueue_time = 0.1,
                          .start_time = 0.2,
                          .end_time = 0.3});
  const json::Value doc = log.to_json();
  const auto& tasks = doc.find("tasks")->as_array();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].get_string("kernel", ""), "FFT");
  EXPECT_EQ(tasks[0].get_string("pe", ""), "fft0");
  EXPECT_EQ(tasks[0].get_int("task_id", -1), 17);
  EXPECT_DOUBLE_EQ(tasks[0].get_double("start", 0.0), 0.2);
  // Full file round-trip.
  const std::string path = ::testing::TempDir() + "/cedr_trace_test.json";
  ASSERT_TRUE(log.write_json(path).ok());
  auto parsed = json::parse_file(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, doc);
}

TEST(TraceLog, CsvExportHasHeaderAndRows) {
  TraceLog log;
  log.add_task(TaskRecord{.app_instance_id = 1,
                          .app_name = "x",
                          .task_id = 2,
                          .kernel_name = "ZIP",
                          .pe_name = "cpu0"});
  const std::string path = ::testing::TempDir() + "/cedr_trace_test.csv";
  ASSERT_TRUE(log.write_task_csv(path).ok());
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("kernel"), std::string::npos);
  EXPECT_NE(row.find("ZIP"), std::string::npos);
  EXPECT_NE(row.find("cpu0"), std::string::npos);
}

TEST(TraceLog, ClearEmptiesEverything) {
  TraceLog log;
  log.add_task(TaskRecord{});
  log.add_app(AppRecord{});
  log.add_sched(SchedRecord{});
  log.clear();
  EXPECT_TRUE(log.tasks().empty());
  EXPECT_TRUE(log.apps().empty());
  EXPECT_TRUE(log.sched_rounds().empty());
}

TEST(TraceLog, ConcurrentAppendsAreSafe) {
  TraceLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TaskRecord record;
        record.app_instance_id = static_cast<uint64_t>(t);
        log.add_task(record);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.tasks().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(LatencyHistogram, BucketZeroHoldsSubMicrosecondAndUpToTwo) {
  LatencyHistogram h;
  h.record(0.0);
  h.record(0.4e-6);   // 0.4 us
  h.record(1.0e-6);   // exactly 1 us
  h.record(1.9e-6);   // just under the first edge
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[0], 4u);
  for (std::size_t i = 1; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(buckets[i], 0u) << "bucket " << i;
  }
}

TEST(LatencyHistogram, EveryBucketEdgeOpensItsBucket) {
  // Bucket i >= 1 covers [2^i, 2^(i+1)) us: the exact power of two lands in
  // the bucket it opens — including when the value arrives as seconds and
  // the *1e6 conversion leaves it one ulp below the edge — and the value
  // just below (outside the 1e-9 snap) stays in the bucket before it.
  for (std::size_t i = 1; i < LatencyHistogram::kBuckets; ++i) {
    const double edge_us = std::ldexp(1.0, static_cast<int>(i));
    LatencyHistogram h;
    h.record(edge_us * 1e-6);              // exact edge, via seconds
    h.record(edge_us * (1.0 - 1e-6) * 1e-6);  // just below the edge
    const auto buckets = h.buckets();
    EXPECT_EQ(buckets[i], 1u) << "edge 2^" << i << " us";
    EXPECT_EQ(buckets[i - 1], 1u) << "below edge 2^" << i << " us";
  }
}

TEST(LatencyHistogram, LastBucketSaturates) {
  LatencyHistogram h;
  h.record(std::ldexp(1.0, 30) * 1e-6);  // 2^30 us, far past the last edge
  h.record(1e6);                         // 10^12 us
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[LatencyHistogram::kBuckets - 1], 2u);
}

TEST(LatencyHistogram, NegativeAndNanClampToBucketZero) {
  LatencyHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.total_seconds(), 0.0);  // clamped before accumulation
}

TEST(CounterSet, AddGetSnapshot) {
  CounterSet counters;
  EXPECT_EQ(counters.get("missing"), 0u);
  counters.add("tasks");
  counters.add("tasks", 4);
  counters.add("apps");
  EXPECT_EQ(counters.get("tasks"), 5u);
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("apps"), 1u);
  const json::Value doc = counters.to_json();
  EXPECT_EQ(doc.get_int("tasks", 0), 5);
  counters.clear();
  EXPECT_EQ(counters.get("tasks"), 0u);
}

TEST(CounterSet, ConcurrentIncrementsAreExact) {
  CounterSet counters;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters] {
      for (int i = 0; i < kPerThread; ++i) counters.add("hits");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counters.get("hits"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(CounterSet, HammerMixedNamesWithConcurrentReaders) {
  // Writers race on counter *creation* (first add of each name) while
  // readers snapshot continuously; every increment must survive.
  CounterSet counters;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  constexpr int kNames = 8;
  std::atomic<bool> done{false};
  std::thread reader([&counters, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)counters.snapshot();
      (void)counters.get("name0");
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counters, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counters.add("name" + std::to_string((t + i) % kNames));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters.snapshot()) total += value;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace cedr::trace
