// Tests for the observability layer: the lock-free span tracer, the
// streaming-quantile metrics registry, the Chrome trace-event exporter, and
// the background sampler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cedr/obs/chrome_trace.h"
#include "cedr/obs/metrics.h"
#include "cedr/obs/sampler.h"
#include "cedr/obs/span.h"

namespace cedr::obs {
namespace {

// ---- SpanEvent --------------------------------------------------------------

TEST(SpanEvent, SetNameTruncatesAndTerminates) {
  SpanEvent e;
  e.set_name("short");
  EXPECT_STREQ(e.name, "short");
  const std::string longname(200, 'x');
  e.set_name(longname.c_str());
  EXPECT_EQ(std::string(e.name).size(), SpanEvent::kNameCapacity - 1);
  e.set_name(nullptr);
  EXPECT_STREQ(e.name, "");
}

// ---- SpanTracer -------------------------------------------------------------

TEST(SpanTracer, RecordsInOrderAndSnapshotCopies) {
  SpanTracer tracer(64);
  tracer.complete_span(Category::kWorker, "a", 0, 1, 1.0, 0.5, "attempt", 0.0);
  tracer.instant(Category::kFault, "b", 0, 2, 2.0);
  tracer.flow(EventKind::kFlowBegin, Category::kApp, "c", 3, 0, 3.0, 77);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].kind, EventKind::kComplete);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.5);
  EXPECT_STREQ(events[0].arg0_name, "attempt");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_EQ(events[1].kind, EventKind::kInstant);
  EXPECT_STREQ(events[2].name, "c");
  EXPECT_EQ(events[2].flow_id, 77u);
  EXPECT_EQ(events[2].pid, 3u);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(SpanTracer, DisabledGateDropsEverything) {
  SpanTracer tracer(64);
  tracer.set_enabled(false);
  tracer.instant(Category::kRuntime, "x", 0, 0, 0.0);
  tracer.complete_span(Category::kWorker, "y", 0, 0, 0.0, 1.0);
  tracer.flow(EventKind::kFlowBegin, Category::kApp, "z", 0, 0, 0.0, 1);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.set_enabled(true);
  tracer.instant(Category::kRuntime, "x", 0, 0, 0.0);
  EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST(SpanTracer, WrapKeepsNewestAndCountsDropped) {
  SpanTracer tracer(16);  // the smallest ring the tracer allows
  ASSERT_EQ(tracer.capacity(), 16u);
  for (int i = 0; i < 40; ++i) {
    tracer.instant(Category::kRuntime, "tick", 0, 0, static_cast<double>(i));
  }
  EXPECT_EQ(tracer.recorded(), 40u);
  EXPECT_EQ(tracer.dropped(), 24u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are the 16 newest, still in record order.
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts, static_cast<double>(24 + i));
  }
}

TEST(SpanTracer, CapacityRoundsUpToPowerOfTwo) {
  SpanTracer tracer(100);
  EXPECT_EQ(tracer.capacity(), 128u);
}

TEST(SpanTracer, ConcurrentWritersAndSnapshotsStayTornFree) {
  SpanTracer tracer(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanEvent& e : tracer.snapshot()) {
        // A torn event would pair the wrong payload with a name; each
        // writer encodes its id in both fields so tearing is detectable.
        const std::string name = e.name;
        ASSERT_EQ(name, "w" + std::to_string(static_cast<int>(e.arg0)));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      const std::string name = "w" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        tracer.instant(Category::kWorker, name.c_str(), 0,
                       static_cast<std::uint64_t>(t), i * 1e-6, "writer",
                       static_cast<double>(t));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(tracer.recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- QuantileHistogram ------------------------------------------------------

TEST(QuantileHistogram, EmptyIsAllZero) {
  QuantileHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(QuantileHistogram, SingleValueQuantilesClampToIt) {
  QuantileHistogram h;
  h.record(123.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 123.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 123.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 123.0);
  EXPECT_DOUBLE_EQ(h.min(), 123.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
}

TEST(QuantileHistogram, UniformRampQuantilesWithinRelativeError) {
  QuantileHistogram h;
  for (int i = 1; i <= 10000; ++i) h.record(static_cast<double>(i));
  // Log-linear bucketing with 32 sub-buckets keeps relative error ~3 %.
  EXPECT_NEAR(h.quantile(0.50), 5000.0, 5000.0 * 0.04);
  EXPECT_NEAR(h.quantile(0.95), 9500.0, 9500.0 * 0.04);
  EXPECT_NEAR(h.quantile(0.99), 9900.0, 9900.0 * 0.04);
  EXPECT_DOUBLE_EQ(h.mean(), 5000.5);
}

TEST(QuantileHistogram, SubUnityValuesLandInUnderflowBucket) {
  QuantileHistogram h;
  h.record(0.0);
  h.record(0.25);
  h.record(0.999);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.5), 0.999);
  const json::Value doc = h.to_json();
  EXPECT_EQ(doc.get_int("count", -1), 3);
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, GaugesSetAndRead) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.gauge("missing"), 0.0);
  registry.set_gauge("ready_queue_depth", 7.0);
  registry.set_gauge("ready_queue_depth", 9.0);
  EXPECT_DOUBLE_EQ(registry.gauge("ready_queue_depth"), 9.0);
  EXPECT_EQ(registry.gauges().size(), 1u);
}

TEST(MetricsRegistry, HistogramReferencesAreStable) {
  MetricsRegistry registry;
  QuantileHistogram& h = registry.histogram("queue_delay_us");
  for (int i = 0; i < 100; ++i) registry.histogram("other_us");
  h.record(5.0);
  EXPECT_EQ(&registry.histogram("queue_delay_us"), &h);
  EXPECT_EQ(registry.histogram("queue_delay_us").count(), 1u);
}

TEST(MetricsRegistry, SeriesIsBoundedToCapacity) {
  MetricsRegistry registry;
  const std::size_t n = MetricsRegistry::kSeriesCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    registry.sample("pe.cpu1.busy", static_cast<double>(i), 1.0);
  }
  const auto points = registry.series("pe.cpu1.busy");
  ASSERT_EQ(points.size(), MetricsRegistry::kSeriesCapacity);
  // The oldest points were evicted: the tail survives.
  EXPECT_DOUBLE_EQ(points.front().t, static_cast<double>(100));
  EXPECT_DOUBLE_EQ(points.back().t, static_cast<double>(n - 1));
}

TEST(MetricsRegistry, ToJsonSnapshotsEverything) {
  MetricsRegistry registry;
  registry.set_gauge("inflight_apps", 2.0);
  registry.histogram("service_time_us").record(10.0);
  for (int i = 0; i < 100; ++i) {
    registry.sample("ready_queue_depth", i * 0.1, static_cast<double>(i));
  }
  const json::Value doc = registry.to_json(/*series_tail=*/8);
  const json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->get_double("inflight_apps", 0.0), 2.0);
  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_NE(hists->find("service_time_us"), nullptr);
  EXPECT_EQ(hists->find("service_time_us")->get_int("count", -1), 1);
  const json::Value* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  const json::Value* depth = series->find("ready_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->as_array().size(), 8u);  // truncated to the tail
}

// ---- Chrome trace exporter --------------------------------------------------

std::vector<SpanEvent> sample_events() {
  SpanTracer tracer(64);
  tracer.instant(Category::kApp, "app_arrival", 1, 0, 0.001, "tasks", 4.0);
  tracer.flow(EventKind::kFlowBegin, Category::kApp, "FFT", 1, 0, 0.001, 42);
  tracer.flow(EventKind::kFlowEnd, Category::kWorker, "execute", 0, 1, 0.002,
              42);
  tracer.complete_span(Category::kWorker, "FFT", 0, 1, 0.002, 0.003,
                       "attempt", 0.0, "ok", 1.0);
  tracer.complete_span(Category::kSched, "sched EFT", 0, 0, 0.0005, 0.0001,
                       "ready", 4.0, "assigned", 4.0);
  return tracer.snapshot();
}

TEST(ChromeTrace, DocumentShapeAndPhases) {
  const json::Value doc = chrome_trace_json(sample_events());
  const json::Value* rows = doc.find("traceEvents");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  std::set<std::string> phases;
  for (const json::Value& row : rows->as_array()) {
    phases.insert(row.get_string("ph", "?"));
  }
  EXPECT_TRUE(phases.count("X"));  // complete spans
  EXPECT_TRUE(phases.count("i"));  // instants
  EXPECT_TRUE(phases.count("s"));  // flow begin
  EXPECT_TRUE(phases.count("f"));  // flow end
  EXPECT_TRUE(phases.count("M"));  // track metadata
  EXPECT_EQ(doc.get_string("displayTimeUnit", ""), "ms");
}

TEST(ChromeTrace, TimestampsAreMicrosecondsSortedPerTrack) {
  const json::Value doc = chrome_trace_json(sample_events());
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> last_ts;
  bool saw_execute_span = false;
  for (const json::Value& row : doc.find("traceEvents")->as_array()) {
    if (row.get_string("ph", "") == "M") continue;
    const auto key = std::make_pair(
        static_cast<std::uint64_t>(row.get_int("pid", -1)),
        static_cast<std::uint64_t>(row.get_int("tid", -1)));
    const double ts = row.get_double("ts", -1.0);
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[key] = ts;
    if (row.get_string("name", "") == "FFT" &&
        row.get_string("ph", "") == "X") {
      saw_execute_span = true;
      EXPECT_DOUBLE_EQ(ts, 2000.0);                        // 0.002 s -> us
      EXPECT_DOUBLE_EQ(row.get_double("dur", 0.0), 3000.0);  // 0.003 s
      const json::Value* args = row.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->get_double("ok", 0.0), 1.0);
    }
  }
  EXPECT_TRUE(saw_execute_span);
}

TEST(ChromeTrace, ExplicitTrackNamesAreEmitted) {
  std::vector<TrackName> tracks;
  tracks.push_back({0, 0, true, "cedr runtime"});
  tracks.push_back({0, 1, false, "cpu1"});
  const json::Value doc = chrome_trace_json(sample_events(), tracks);
  bool saw_process = false, saw_thread = false;
  for (const json::Value& row : doc.find("traceEvents")->as_array()) {
    if (row.get_string("ph", "") != "M") continue;
    const json::Value* args = row.find("args");
    if (args == nullptr) continue;
    const std::string name = args->get_string("name", "");
    if (row.get_string("name", "") == "process_name" &&
        name == "cedr runtime") {
      saw_process = true;
    }
    if (row.get_string("name", "") == "thread_name" && name == "cpu1") {
      saw_thread = true;
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
}

TEST(ChromeTrace, FlowEventsCarryIdAndBindingPoint) {
  const json::Value doc = chrome_trace_json(sample_events());
  bool saw_begin = false, saw_end = false;
  for (const json::Value& row : doc.find("traceEvents")->as_array()) {
    const std::string ph = row.get_string("ph", "");
    if (ph == "s") {
      saw_begin = true;
      EXPECT_EQ(row.get_int("id", -1), 42);
    } else if (ph == "f") {
      saw_end = true;
      EXPECT_EQ(row.get_int("id", -1), 42);
      EXPECT_EQ(row.get_string("bp", ""), "e");
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(ChromeTrace, WriteProducesParsableFile) {
  const std::string path = ::testing::TempDir() + "/cedr_obs_chrome.json";
  ASSERT_TRUE(write_chrome_trace(path, sample_events()).ok());
  auto parsed = json::parse_file(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->find("traceEvents"), nullptr);
}

// ---- Sampler ----------------------------------------------------------------

TEST(Sampler, TicksPeriodicallyAndStopsPromptly) {
  std::atomic<int> ticks{0};
  Sampler sampler(0.005, [&](double elapsed) {
    EXPECT_GE(elapsed, 0.0);
    ticks.fetch_add(1, std::memory_order_relaxed);
  });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const int observed = ticks.load();
  EXPECT_GE(observed, 2);
  // No callbacks after stop().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), observed);
}

TEST(Sampler, NonPositivePeriodNeverStarts) {
  std::atomic<int> ticks{0};
  Sampler sampler(0.0, [&](double) { ticks.fetch_add(1); });
  sampler.start();
  EXPECT_FALSE(sampler.running());
  sampler.stop();
  EXPECT_EQ(ticks.load(), 0);
}

TEST(Sampler, StartAndStopAreIdempotent) {
  std::atomic<int> ticks{0};
  Sampler sampler(0.002, [&](double) { ticks.fetch_add(1); });
  sampler.start();
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.stop();
  sampler.stop();
  EXPECT_GE(ticks.load(), 1);
}

}  // namespace
}  // namespace cedr::obs
