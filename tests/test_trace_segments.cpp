// Tests for the continuous trace pipeline: the binary `.cbt` segment
// format, SegmentWriter rotation/retention, the SpanTracer drain cursor,
// TraceFlusher, the stitcher, and the runtime integration
// (docs/observability.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cedr/obs/chrome_trace.h"
#include "cedr/obs/metrics.h"
#include "cedr/obs/segment.h"
#include "cedr/obs/span.h"
#include "cedr/platform/platform.h"
#include "cedr/runtime/runtime.h"

namespace cedr::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("cbt_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::vector<SpanTracer::TicketedEvent> sample_events(std::size_t n,
                                                     std::uint64_t first = 0) {
  std::vector<SpanTracer::TicketedEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SpanTracer::TicketedEvent te;
    te.ticket = first + i;
    SpanEvent& e = te.event;
    e.kind = i % 3 == 0 ? EventKind::kComplete
                        : (i % 3 == 1 ? EventKind::kInstant
                                      : EventKind::kFlowBegin);
    e.category = i % 2 == 0 ? Category::kWorker : Category::kSched;
    e.set_name(("kernel_" + std::to_string(i % 5)).c_str());
    e.ts = 0.001 * static_cast<double>(i);
    e.dur = e.kind == EventKind::kComplete ? 0.0005 : 0.0;
    e.pid = i % 4;
    e.tid = 1 + i % 3;
    e.flow_id = e.kind == EventKind::kFlowBegin ? 100 + i : 0;
    if (i % 2 == 0) {
      e.arg0_name = "attempt";
      e.arg0 = static_cast<double>(i);
    }
    if (i % 4 == 0) {
      e.arg1_name = "bytes";
      e.arg1 = 4096.0 + static_cast<double>(i);
    }
    events.push_back(te);
  }
  return events;
}

std::vector<TrackName> sample_tracks() {
  return {
      {.pid = 0, .is_process = true, .name = "cedr runtime"},
      {.pid = 0, .tid = 0, .name = "main loop"},
      {.pid = 0, .tid = 1, .name = "cpu0"},
      {.pid = 1, .is_process = true, .name = "radar #0"},
  };
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

// ---- format round trip ------------------------------------------------------

TEST(SegmentFormat, RoundTripPreservesEverything) {
  const std::string dir = test_dir("roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/trace-000007.cbt";
  const auto events = sample_events(64, /*first=*/1000);
  const auto tracks = sample_tracks();
  ASSERT_TRUE(write_segment_file(path, 7, 13, tracks, events).ok());

  auto parsed = read_segment(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->seq, 7u);
  EXPECT_EQ(parsed->first_ticket, 1000u);
  EXPECT_EQ(parsed->dropped_since_prev, 13u);
  ASSERT_EQ(parsed->tracks.size(), tracks.size());
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    EXPECT_EQ(parsed->tracks[i].pid, tracks[i].pid);
    EXPECT_EQ(parsed->tracks[i].tid, tracks[i].tid);
    EXPECT_EQ(parsed->tracks[i].is_process, tracks[i].is_process);
    EXPECT_EQ(parsed->tracks[i].name, tracks[i].name);
  }
  ASSERT_EQ(parsed->events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& in = events[i].event;
    const SpanEvent& out = parsed->events[i].event;
    EXPECT_EQ(parsed->events[i].ticket, events[i].ticket);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.category, in.category);
    EXPECT_STREQ(out.name, in.name);
    // Doubles survive exactly (bit-cast encoding, no text round trip).
    EXPECT_EQ(out.ts, in.ts);
    EXPECT_EQ(out.dur, in.dur);
    EXPECT_EQ(out.pid, in.pid);
    EXPECT_EQ(out.tid, in.tid);
    EXPECT_EQ(out.flow_id, in.flow_id);
    EXPECT_EQ(out.arg0, in.arg0);
    EXPECT_EQ(out.arg1, in.arg1);
    if (in.arg0_name == nullptr) {
      EXPECT_EQ(out.arg0_name, nullptr);
    } else {
      ASSERT_NE(out.arg0_name, nullptr);
      EXPECT_STREQ(out.arg0_name, in.arg0_name);
    }
    if (in.arg1_name == nullptr) {
      EXPECT_EQ(out.arg1_name, nullptr);
    } else {
      ASSERT_NE(out.arg1_name, nullptr);
      EXPECT_STREQ(out.arg1_name, in.arg1_name);
    }
  }
}

TEST(SegmentFormat, ChromeJsonFromSegmentsMatchesDirectExport) {
  const std::string dir = test_dir("chrome_identity");
  fs::create_directories(dir);
  const auto events = sample_events(128);
  const auto tracks = sample_tracks();
  ASSERT_TRUE(
      write_segment_file(dir + "/trace-000000.cbt", 0, 0, tracks, events)
          .ok());

  std::vector<SpanEvent> raw;
  for (const auto& te : events) raw.push_back(te.event);
  const std::string direct = chrome_trace_json(raw, tracks).dump();

  auto stitched = stitch_segments({dir + "/trace-000000.cbt"});
  ASSERT_TRUE(stitched.ok());
  const std::string from_segments =
      chrome_trace_json(stitched->events, stitched->tracks).dump();
  EXPECT_EQ(from_segments, direct);
}

TEST(SegmentFormat, EncodingIsDeterministic) {
  const std::string dir = test_dir("determinism");
  fs::create_directories(dir);
  const auto events = sample_events(200);
  const auto tracks = sample_tracks();
  ASSERT_TRUE(write_segment_file(dir + "/a.cbt", 3, 5, tracks, events).ok());
  ASSERT_TRUE(write_segment_file(dir + "/b.cbt", 3, 5, tracks, events).ok());
  EXPECT_EQ(slurp(dir + "/a.cbt"), slurp(dir + "/b.cbt"));
}

// ---- corruption handling ----------------------------------------------------

TEST(SegmentFormat, CorruptCrcIsRejected) {
  const std::string dir = test_dir("corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/trace-000000.cbt";
  ASSERT_TRUE(
      write_segment_file(path, 0, 0, sample_tracks(), sample_events(16)).ok());
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 60u);
  bytes[bytes.size() - 1] ^= 0x5A;  // flip a payload byte
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const auto parsed = read_segment(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("CRC"), std::string::npos)
      << parsed.status().to_string();
}

TEST(SegmentFormat, TruncatedFileIsRejected) {
  const std::string dir = test_dir("truncated");
  fs::create_directories(dir);
  const std::string path = dir + "/trace-000000.cbt";
  ASSERT_TRUE(
      write_segment_file(path, 0, 0, sample_tracks(), sample_events(16)).ok());
  auto bytes = slurp(path);
  // Cut mid-payload: the header's payload size no longer matches.
  bytes.resize(bytes.size() / 2);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const auto parsed = read_segment(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("truncated"), std::string::npos);

  // Cut mid-header too.
  bytes.resize(20);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_FALSE(read_segment(path).ok());
}

TEST(SegmentFormat, BadMagicIsRejected) {
  const std::string dir = test_dir("magic");
  fs::create_directories(dir);
  const std::string path = dir + "/not_a_segment.cbt";
  std::ofstream(path, std::ios::binary) << "this is not a trace segment file "
                                        << std::string(100, 'x');
  const auto parsed = read_segment(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("magic"), std::string::npos);
}

// ---- drain cursor / drop accounting ----------------------------------------

TEST(SpanTracerDrain, CursorDrainsIncrementallyWithoutLoss) {
  SpanTracer tracer(64);
  for (int i = 0; i < 10; ++i) {
    tracer.instant(Category::kWorker, "a", 0, 0, 0.1 * i);
  }
  std::uint64_t cursor = 0;
  auto first = tracer.drain(cursor);
  EXPECT_EQ(first.size(), 10u);
  EXPECT_EQ(cursor, 10u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ticket, i);
  }
  // Nothing new: empty drain, cursor unchanged.
  EXPECT_TRUE(tracer.drain(cursor).empty());
  EXPECT_EQ(cursor, 10u);
  tracer.instant(Category::kWorker, "b", 0, 0, 2.0);
  auto second = tracer.drain(cursor);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].ticket, 10u);
  EXPECT_STREQ(second[0].event.name, "b");
  EXPECT_EQ(tracer.consume_dropped(), 0u);
}

TEST(SpanTracerDrain, OverwrittenEventsAreCountedAndConsumed) {
  SpanTracer tracer(16);  // rounds to capacity 16
  for (int i = 0; i < 50; ++i) {
    tracer.instant(Category::kWorker, "x", 0, 0, 0.01 * i);
  }
  std::uint64_t cursor = 0;
  const auto events = tracer.drain(cursor);
  // Only the ring window survives; everything older was overwritten.
  EXPECT_EQ(events.size(), tracer.capacity());
  EXPECT_EQ(events.front().ticket, 50 - tracer.capacity());
  EXPECT_EQ(cursor, 50u);
  const std::uint64_t dropped = tracer.consume_dropped();
  EXPECT_EQ(dropped, 50 - tracer.capacity());
  // consume_dropped() zeroes the counter: drops are per-segment, not
  // cumulative.
  EXPECT_EQ(tracer.consume_dropped(), 0u);
}

// ---- QuantileHistogram::snapshot_delta --------------------------------------

TEST(QuantileHistogramDelta, IndependentEpochsSeeIndependentDeltas) {
  QuantileHistogram hist;
  QuantileHistogram::Epoch a, b;
  hist.record(10.0);
  hist.record(20.0);
  const auto da1 = hist.snapshot_delta(a);
  EXPECT_EQ(da1.count, 2u);
  EXPECT_DOUBLE_EQ(da1.sum, 30.0);
  EXPECT_DOUBLE_EQ(da1.mean(), 15.0);
  hist.record(40.0);
  // Reader a sees only the new sample; reader b sees everything so far —
  // neither clobbered the other (unlike reset()).
  const auto da2 = hist.snapshot_delta(a);
  EXPECT_EQ(da2.count, 1u);
  EXPECT_DOUBLE_EQ(da2.sum, 40.0);
  const auto db = hist.snapshot_delta(b);
  EXPECT_EQ(db.count, 3u);
  EXPECT_DOUBLE_EQ(db.sum, 70.0);
  // Lifetime aggregates are untouched.
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 70.0);
  // Empty delta has a defined mean.
  const auto empty = hist.snapshot_delta(a);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(QuantileHistogramDelta, ResetRestartsTheEpoch) {
  QuantileHistogram hist;
  QuantileHistogram::Epoch epoch;
  hist.record(5.0);
  hist.record(5.0);
  (void)hist.snapshot_delta(epoch);
  hist.reset();
  hist.record(7.0);
  const auto delta = hist.snapshot_delta(epoch);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_DOUBLE_EQ(delta.sum, 7.0);
}

// ---- SegmentWriter rotation / retention -------------------------------------

TEST(SegmentWriter, SizeRotationSplitsAndRetentionPrunes) {
  const std::string dir = test_dir("rotation");
  SegmentWriter writer(SegmentWriter::Config{
      .dir = dir,
      .max_segment_events = 10,
      .max_segment_age_s = 0.0,
      .max_segments = 3,
  });
  ASSERT_TRUE(writer.open().ok());
  // 85 events -> 8 finalized segments of 10 plus an open tail of 5; the
  // retention bound keeps only the newest 3 finalized files.
  ASSERT_TRUE(writer.append(sample_events(85), 0, sample_tracks(), 0.0).ok());
  EXPECT_EQ(writer.segments_finalized(), 8u);
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 4u);  // 3 retained finalized + 1 open
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok());
  // Newest 3 finalized segments cover tickets 50..79, the open one 80..84.
  EXPECT_EQ(stitched->events.size(), 35u);
  EXPECT_EQ(stitched->segments.front().first_ticket, 50u);
  ASSERT_TRUE(writer.finalize(sample_tracks()).ok());
  EXPECT_EQ(writer.segments_finalized(), 9u);
  paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);  // retention applied to the final tail too
}

TEST(SegmentWriter, AgeRotationFinalizesOldOpenSegment) {
  const std::string dir = test_dir("age");
  SegmentWriter writer(SegmentWriter::Config{
      .dir = dir,
      .max_segment_events = 1000,
      .max_segment_age_s = 5.0,
      .max_segments = 0,
  });
  ASSERT_TRUE(writer.open().ok());
  ASSERT_TRUE(writer.append(sample_events(4), 0, sample_tracks(), 1.0).ok());
  EXPECT_EQ(writer.segments_finalized(), 0u);
  // Young: flush keeps the segment open.
  ASSERT_TRUE(
      writer.append(sample_events(4, 4), 0, sample_tracks(), 3.0).ok());
  EXPECT_EQ(writer.segments_finalized(), 0u);
  // Oldest pending event is now 5s old: rotate.
  ASSERT_TRUE(
      writer.append(sample_events(4, 8), 0, sample_tracks(), 6.0).ok());
  EXPECT_EQ(writer.segments_finalized(), 1u);
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->events.size(), 12u);
}

TEST(SegmentWriter, OpenResumesNumberingAfterRestart) {
  const std::string dir = test_dir("resume");
  {
    SegmentWriter writer(SegmentWriter::Config{
        .dir = dir, .max_segment_events = 5, .max_segment_age_s = 0.0});
    ASSERT_TRUE(writer.open().ok());
    ASSERT_TRUE(
        writer.append(sample_events(10), 0, sample_tracks(), 0.0).ok());
    ASSERT_TRUE(writer.finalize(sample_tracks()).ok());
  }
  SegmentWriter writer(SegmentWriter::Config{
      .dir = dir, .max_segment_events = 5, .max_segment_age_s = 0.0});
  ASSERT_TRUE(writer.open().ok());
  // Sequence numbers continue after the two existing segments.
  EXPECT_EQ(writer.current_seq(), 2u);
  ASSERT_TRUE(
      writer.append(sample_events(5, 100), 0, sample_tracks(), 0.0).ok());
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);
}

TEST(SegmentWriter, DropsAreStampedIntoTheNextSegmentOnly) {
  const std::string dir = test_dir("drops");
  SegmentWriter writer(SegmentWriter::Config{
      .dir = dir, .max_segment_events = 4, .max_segment_age_s = 0.0});
  ASSERT_TRUE(writer.open().ok());
  // 8 events with 3 drops: the drops belong to the first rotated segment.
  ASSERT_TRUE(writer.append(sample_events(8), 3, sample_tracks(), 0.0).ok());
  ASSERT_TRUE(writer.finalize(sample_tracks()).ok());
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 2u);
  auto first = read_segment(paths->at(0));
  auto second = read_segment(paths->at(1));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->dropped_since_prev, 3u);
  EXPECT_EQ(second->dropped_since_prev, 0u);
}

// ---- stitcher ---------------------------------------------------------------

TEST(Stitch, DeduplicatesAcrossOverlappingSegments) {
  const std::string dir = test_dir("dedup");
  fs::create_directories(dir);
  // Segment 0 carries tickets 0..19; segment 1 overlaps with 10..29 (as a
  // crash between flush and rotation can produce).
  ASSERT_TRUE(write_segment_file(dir + "/trace-000000.cbt", 0, 0,
                                 sample_tracks(), sample_events(20))
                  .ok());
  ASSERT_TRUE(write_segment_file(dir + "/trace-000001.cbt", 1, 2,
                                 sample_tracks(), sample_events(20, 10))
                  .ok());
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->events.size(), 30u);
  EXPECT_EQ(stitched->duplicates_removed, 10u);
  EXPECT_EQ(stitched->dropped_total, 2u);
  // Track union has no duplicates even though both segments carried the
  // full table.
  EXPECT_EQ(stitched->tracks.size(), sample_tracks().size());
}

TEST(Stitch, FailsOnCorruptMember) {
  const std::string dir = test_dir("stitch_corrupt");
  fs::create_directories(dir);
  ASSERT_TRUE(write_segment_file(dir + "/trace-000000.cbt", 0, 0,
                                 sample_tracks(), sample_events(8))
                  .ok());
  std::ofstream(dir + "/trace-000001.cbt", std::ios::binary) << "garbage";
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  EXPECT_FALSE(stitch_segments(*paths).ok());
}

// ---- TraceFlusher -----------------------------------------------------------

TEST(TraceFlusher, PeriodicFlushPlusFinishCapturesEveryEvent) {
  const std::string dir = test_dir("flusher");
  SpanTracer tracer(256);
  TraceFlusher flusher(tracer,
                       SegmentWriter::Config{.dir = dir,
                                             .max_segment_events = 16,
                                             .max_segment_age_s = 0.0},
                       [] { return sample_tracks(); });
  ASSERT_TRUE(flusher.open().ok());
  for (int i = 0; i < 40; ++i) {
    tracer.instant(Category::kWorker, "tick", 0, 0, 0.001 * i);
  }
  ASSERT_TRUE(flusher.flush(0.1).ok());
  for (int i = 0; i < 25; ++i) {
    tracer.instant(Category::kWorker, "tock", 0, 0, 0.1 + 0.001 * i);
  }
  ASSERT_TRUE(flusher.finish(0.2).ok());
  EXPECT_EQ(flusher.dropped_total(), 0u);

  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok()) << stitched.status().to_string();
  ASSERT_EQ(stitched->events.size(), 65u);
  EXPECT_EQ(stitched->duplicates_removed, 0u);
  // Ticket order == record order end to end.
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_STREQ(stitched->events[i].name, "tick");
  }
  for (std::size_t i = 40; i < 65; ++i) {
    EXPECT_STREQ(stitched->events[i].name, "tock");
  }
}

TEST(TraceFlusher, RingOverrunIsAccountedInSegmentsAndTotal) {
  const std::string dir = test_dir("flusher_overrun");
  SpanTracer tracer(16);
  TraceFlusher flusher(tracer,
                       SegmentWriter::Config{.dir = dir,
                                             .max_segment_events = 1 << 20,
                                             .max_segment_age_s = 0.0},
                       [] { return sample_tracks(); });
  ASSERT_TRUE(flusher.open().ok());
  for (int i = 0; i < 100; ++i) {
    tracer.instant(Category::kWorker, "burst", 0, 0, 0.001 * i);
  }
  ASSERT_TRUE(flusher.finish(1.0).ok());
  const std::uint64_t expected_drops = 100 - tracer.capacity();
  EXPECT_EQ(flusher.dropped_total(), expected_drops);
  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->events.size(), tracer.capacity());
  EXPECT_EQ(stitched->dropped_total, expected_drops);
}

// Concurrent recording vs flushing: exercised under TSAN in the sanitizer
// tier (tools/run_tsan_tests.sh). Writers hammer the ring from several
// threads while the flusher drains it; afterwards the stitched stream must
// be duplicate-free and every event must be accounted for (flushed or
// counted dropped).
TEST(TraceFlusher, ConcurrentRecordingNeverTearsOrDuplicates) {
  const std::string dir = test_dir("flusher_tsan");
  SpanTracer tracer(1 << 12);
  TraceFlusher flusher(tracer,
                       SegmentWriter::Config{.dir = dir,
                                             .max_segment_events = 1024,
                                             .max_segment_age_s = 0.0},
                       [] { return sample_tracks(); });
  ASSERT_TRUE(flusher.open().ok());
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::thread flusher_thread([&] {
    double now = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(flusher.flush(now).ok());
      now += 0.001;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        tracer.complete_span(Category::kWorker, "work", 0, 1 + w,
                             0.0001 * i, 0.00005, "attempt",
                             static_cast<double>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  flusher_thread.join();
  ASSERT_TRUE(flusher.finish(100.0).ok());

  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->duplicates_removed, 0u);
  // Everything recorded is either in the stitched stream or accounted as
  // dropped — no silent loss.
  EXPECT_EQ(stitched->events.size() + flusher.dropped_total(),
            static_cast<std::size_t>(kWriters) * kPerWriter);
}

// ---- runtime integration ----------------------------------------------------

TEST(RuntimeTracePipeline, ShutdownLeavesConvertibleSegments) {
  const std::string dir = test_dir("runtime");
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1, 0);
  config.obs.trace_dir = dir;
  config.obs.trace_flush_interval_s = 0.01;
  config.obs.trace_segment_events = 64;
  config.obs.sampler_period_s = 0.01;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  for (int i = 0; i < 200; ++i) {
    runtime.tracer().complete_span(Category::kApp, "app_work", 1, 0,
                                   runtime.now(), 0.0001);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(runtime.shutdown().ok());
  ASSERT_NE(runtime.trace_flusher(), nullptr);

  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  ASSERT_FALSE(paths->empty());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok()) << stitched.status().to_string();
  // The stream brackets the run: start instant through shutdown instant,
  // with the app spans in between and the track table naming the workers.
  bool saw_start = false, saw_shutdown = false;
  std::size_t app_spans = 0;
  for (const auto& event : stitched->events) {
    if (std::string(event.name) == "runtime_start") saw_start = true;
    if (std::string(event.name) == "runtime_shutdown") saw_shutdown = true;
    if (std::string(event.name) == "app_work") ++app_spans;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_shutdown);
  EXPECT_EQ(app_spans, 200u);
  bool named_runtime = false;
  for (const auto& track : stitched->tracks) {
    if (track.is_process && track.name == "cedr runtime") named_runtime = true;
  }
  EXPECT_TRUE(named_runtime);
}

TEST(RuntimeTracePipeline, SegmentsNameEveryInstanceUnderRingOverrun) {
  // The runtime forgets a reaped instance's name once the ring has
  // overwritten its spans. Under sustained load on a small ring, segments
  // written by the background flusher must still name every instance
  // whose events they hold.
  const std::string dir = test_dir("runtime_names");
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1, 0);
  config.obs.ring_capacity = 1024;
  config.obs.trace_dir = dir;
  config.obs.trace_flush_interval_s = 0.001;
  config.obs.trace_retention = 0;
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto chain = std::make_shared<task::AppDescriptor>();
  chain->name = "chain";
  for (task::TaskId id = 0; id < 2; ++id) {
    task::Task t;
    t.id = id;
    t.name = "nop";
    ASSERT_TRUE(chain->graph.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(chain->graph.add_edge(0, 1).ok());
  for (int wave = 0; wave < 200; ++wave) {
    std::vector<rt::DagSubmission> batch(
        16, rt::DagSubmission{
                .descriptor = chain,
                .impls = std::vector<std::array<task::TaskFn,
                                                platform::kNumPeClasses>>(2)});
    for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
      ASSERT_TRUE(result.ok());
    }
    ASSERT_TRUE(runtime.wait_all(30.0).ok());
  }
  ASSERT_TRUE(runtime.shutdown().ok());

  auto paths = list_segments(dir);
  ASSERT_TRUE(paths.ok());
  auto stitched = stitch_segments(*paths);
  ASSERT_TRUE(stitched.ok()) << stitched.status().to_string();
  std::set<std::uint64_t> named;
  for (const auto& track : stitched->tracks) {
    if (track.is_process) named.insert(track.pid);
  }
  std::size_t app_events = 0;
  std::set<std::uint64_t> unnamed;
  for (const auto& event : stitched->events) {
    if (event.pid == 0) continue;
    ++app_events;
    if (named.count(event.pid) == 0) unnamed.insert(event.pid);
  }
  EXPECT_GT(app_events, 0u);
  EXPECT_TRUE(unnamed.empty())
      << unnamed.size() << " instance pids unnamed, first " << *unnamed.begin();
}

TEST(RuntimeTracePipeline, ObsConfigRoundTripsThroughJson) {
  rt::ObsConfig config;
  config.trace_dir = "/tmp/traces";
  config.trace_flush_interval_s = 0.5;
  config.trace_segment_events = 1234;
  config.trace_segment_age_s = 7.5;
  config.trace_retention = 9;
  auto parsed = rt::ObsConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace_dir, "/tmp/traces");
  EXPECT_DOUBLE_EQ(parsed->trace_flush_interval_s, 0.5);
  EXPECT_EQ(parsed->trace_segment_events, 1234u);
  EXPECT_DOUBLE_EQ(parsed->trace_segment_age_s, 7.5);
  EXPECT_EQ(parsed->trace_retention, 9u);

  // Invalid values are rejected, not silently clamped.
  json::Value bad = config.to_json();
  bad.as_object()["trace_segment_events"] = json::Value(0);
  EXPECT_FALSE(rt::ObsConfig::from_json(bad).ok());
}

}  // namespace
}  // namespace cedr::obs
