// Offline analysis of a CEDR trace (paper §II-A: logs are serialized "for
// later offline analysis by the user").
//
// usage: cedr_trace_report --from-segments <dir> [--gantt [WIDTH]]
//                          [--chrome <out.json>]
//
// Reads the rotated binary `.cbt` segments a daemon's continuous trace
// pipeline left under <dir> (cedr_daemon --trace-dir, see
// docs/observability.md), stitches them back into one stream (deduplicated
// across rotation boundaries, re-sorted to record order), and prints the
// segment inventory followed by the trace summary: per-application
// execution times, per-PE utilization, queue-delay and service-time
// statistics, scheduling totals and the fault-tolerance counts.
//
// --gantt renders an ASCII Gantt chart of task placement, one row per PE
// and WIDTH columns (default 100). --chrome writes the same Chrome
// trace-event JSON the runtime's direct --trace-out export would have
// produced (loadable in chrome://tracing or Perfetto). A missing, empty or
// corrupt segment directory is diagnosed on stderr and exits nonzero.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cedr/obs/chrome_trace.h"
#include "cedr/obs/segment.h"
#include "cedr/trace/report.h"

using namespace cedr;

int main(int argc, char** argv) {
  if (argc < 3 || std::string(argv[1]) != "--from-segments") {
    std::fprintf(stderr,
                 "usage: %s --from-segments <dir> [--gantt [WIDTH]] "
                 "[--chrome <out.json>]\n",
                 argv[0]);
    return 2;
  }
  const std::string dir = argv[2];
  auto paths = obs::list_segments(dir);
  if (!paths.ok()) {
    std::fprintf(stderr, "cannot list segments: %s\n",
                 paths.status().to_string().c_str());
    return 1;
  }
  if (paths->empty()) {
    std::fprintf(stderr, "no .cbt segments under %s\n", dir.c_str());
    return 1;
  }
  auto stitched = obs::stitch_segments(*paths);
  if (!stitched.ok()) {
    std::fprintf(stderr, "cannot stitch segments: %s\n",
                 stitched.status().to_string().c_str());
    return 1;
  }
  double ts_min = 0.0, ts_max = 0.0;
  if (!stitched->events.empty()) {
    ts_min = ts_max = stitched->events.front().ts;
    for (const auto& event : stitched->events) {
      ts_min = std::min(ts_min, event.ts);
      ts_max = std::max(ts_max, event.ts + event.dur);
    }
  }
  std::printf("segment trace: %s\n", dir.c_str());
  std::printf("  segments   %zu (seq %llu..%llu)\n", stitched->segments.size(),
              static_cast<unsigned long long>(stitched->segments.front().seq),
              static_cast<unsigned long long>(stitched->segments.back().seq));
  std::printf("  events     %zu (%llu duplicates removed at boundaries)\n",
              stitched->events.size(),
              static_cast<unsigned long long>(stitched->duplicates_removed));
  std::printf("  dropped    %llu (ring overwrites that outran the flusher)\n",
              static_cast<unsigned long long>(stitched->dropped_total));
  std::printf("  tracks     %zu\n", stitched->tracks.size());
  std::printf("  time span  %.6f .. %.6f s\n\n", ts_min, ts_max);
  std::fputs(trace::render_text(
                 trace::summarize(stitched->events, stitched->tracks))
                 .c_str(),
             stdout);

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gantt") {
      std::size_t width = 100;
      if (i + 1 < argc) {
        const unsigned long parsed = std::strtoul(argv[i + 1], nullptr, 10);
        if (parsed > 0) {
          width = parsed;
          ++i;
        }
      }
      std::printf("\ngantt (task placement over time)\n%s",
                  trace::render_gantt(stitched->events, stitched->tracks,
                                      width)
                      .c_str());
    } else if (arg == "--chrome") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--chrome requires an output path\n");
        return 2;
      }
      const std::string out_path = argv[++i];
      if (const Status s = obs::write_chrome_trace(out_path, stitched->events,
                                                   stitched->tracks);
          !s.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                     s.to_string().c_str());
        return 1;
      }
      std::printf("\nchrome trace written to %s\n", out_path.c_str());
    }
  }
  return 0;
}
