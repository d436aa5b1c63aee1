#pragma once
// Compact binary trace segments (`.cbt`) — the continuous trace pipeline.
//
// A long-running daemon cannot hold its span ring until shutdown: a crash
// loses everything and a week of spans does not fit one Chrome JSON. This
// module serializes ring drains into rotated, bounded, individually
// self-contained segment files that survive a SIGKILL mid-run:
//
//   SpanTracer --drain cursor--> TraceFlusher --append--> SegmentWriter
//        (ring, wait-free)        (periodic, sampler thread)   (dir of .cbt)
//
// and back:
//
//   list_segments() -> read_segment() per file -> stitch_segments()
//        -> chrome_trace_json()  (byte-identical to the direct export)
//
// Format (all integers little-endian, doubles as IEEE-754 LE bit patterns;
// full spec table in docs/observability.md):
//
//   header (56 bytes):
//     0  magic "CBT1"
//     4  u32 version (currently 1)
//     8  u64 segment sequence number within the run
//     16 u64 first ticket (global record index of the first span record)
//     24 u64 span record count
//     32 u64 events dropped since the previous segment (ring overwrites
//            that outran the drain cursor)
//     40 u32 track record count
//     44 u32 string-table bytes
//     48 u32 CRC-32 (IEEE) of the payload
//     52 u32 payload bytes (string table + tracks + records)
//   payload:
//     string table: concatenated NUL-terminated strings, referenced by
//       byte offset; offset 0xFFFFFFFF means "absent"
//     track records (24 bytes each): u64 pid, u64 tid, u8 is_process,
//       3 pad bytes, u32 name offset
//     span records (80 bytes each): u8 kind, u8 category, u16 pad,
//       u32 name offset, u64 ticket, f64 ts, f64 dur, u64 pid, u64 tid,
//       u64 flow id, u32 arg0-name offset, u32 arg1-name offset,
//       f64 arg0, f64 arg1
//
// Each segment embeds the full track table as of its write time (tracks are
// append-only in both runtimes), so any suffix of surviving segments still
// names every pid/tid it references. Segments are written atomically
// (tmp + rename): an open segment is rewritten durably on every flush and
// finalized on size/age rotation, so the directory never contains a
// half-written file and a SIGKILL loses at most the events recorded since
// the last flush.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "cedr/common/status.h"
#include "cedr/obs/chrome_trace.h"
#include "cedr/obs/span.h"

namespace cedr::obs {

/// Magic + version the reader accepts.
inline constexpr char kSegmentMagic[4] = {'C', 'B', 'T', '1'};
inline constexpr std::uint32_t kSegmentVersion = 1;
/// String-table offset meaning "no string" (absent arg name).
inline constexpr std::uint32_t kNoString = 0xFFFFFFFFu;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`.
std::uint32_t crc32(const void* data, std::size_t size);

/// Serializes one complete segment to `path` atomically (`path.tmp` then
/// rename). Events must be in ticket order.
Status write_segment_file(const std::string& path, std::uint64_t seq,
                          std::uint64_t dropped_since_prev,
                          const std::vector<TrackName>& tracks,
                          const std::vector<SpanTracer::TicketedEvent>& events);

/// One parsed segment. `events` hold SpanEvents whose arg-name pointers
/// reference `strings`, so a Segment must stay alive (move is fine, copy is
/// not) as long as its events are used.
struct Segment {
  std::uint64_t seq = 0;
  std::uint64_t first_ticket = 0;
  std::uint64_t dropped_since_prev = 0;
  std::vector<TrackName> tracks;
  std::vector<std::string> strings;  ///< backing store for arg names
  std::vector<SpanTracer::TicketedEvent> events;
};

/// Parses and validates one `.cbt` file: magic, version, exact payload
/// size, CRC. Truncated or corrupt files fail with InvalidArgument naming
/// the defect; they never crash the reader.
StatusOr<Segment> read_segment(const std::string& path);

/// Lists `*.cbt` files under `dir`, sorted by file name (segment names are
/// zero-padded, so name order is sequence order).
StatusOr<std::vector<std::string>> list_segments(const std::string& dir);

/// Rotated segments stitched back into one event stream: deduplicated by
/// ticket across any overwrite/rotation boundary, re-sorted to monotonic
/// ticket order, with the track tables unioned in first-appearance order
/// (append-only, so the union equals the newest segment's table). Keeps the
/// parsed segments alive because events point into their string tables.
struct StitchedTrace {
  std::vector<Segment> segments;   ///< backing store; do not reorder
  std::vector<TrackName> tracks;
  std::vector<SpanEvent> events;   ///< ticket order, duplicates removed
  std::uint64_t dropped_total = 0;    ///< sum of per-segment drop counts
  std::uint64_t duplicates_removed = 0;
};

/// Reads and stitches the given segment files (typically list_segments()
/// output). Fails if any file is unreadable or corrupt.
StatusOr<StitchedTrace> stitch_segments(const std::vector<std::string>& paths);

/// Writes `.cbt` segments into a directory with size/age-based rotation and
/// bounded retention. Not thread-safe; the TraceFlusher serializes access.
class SegmentWriter {
 public:
  struct Config {
    std::string dir;
    /// Size-based rotation: finalize the open segment once it holds this
    /// many span records.
    std::size_t max_segment_events = 8192;
    /// Age-based rotation: finalize the open segment once its oldest event
    /// has been pending this long (caller-supplied clock; virtual time in
    /// the emulator). <= 0 disables age rotation.
    double max_segment_age_s = 10.0;
    /// Retention: keep at most this many finalized segments on disk (plus
    /// the open one); older files are deleted. 0 = unbounded.
    std::size_t max_segments = 64;
    std::string prefix = "trace-";
  };

  explicit SegmentWriter(Config config) : config_(std::move(config)) {}

  /// Creates the directory if needed and resumes numbering after any
  /// existing segments (a restarted daemon reusing a directory appends
  /// rather than overwriting).
  Status open();

  /// Buffers `events` into the open segment (splitting across rotation
  /// boundaries when a drain exceeds max_segment_events), adds `dropped`
  /// to the open segment's drop count, and rewrites the open segment file
  /// durably. `tracks` is the track table as of now; the open segment
  /// carries the union of the tables appended since it opened, because a
  /// later table may have forgotten an instance whose events it holds.
  Status append(const std::vector<SpanTracer::TicketedEvent>& events,
                std::uint64_t dropped, const std::vector<TrackName>& tracks,
                double now);

  /// Flushes and finalizes the open segment (if it holds anything); the
  /// next append starts a new sequence number.
  Status finalize(const std::vector<TrackName>& tracks);

  /// Monitoring counters; safe to read from other threads (the metrics
  /// sampler publishes `obs.trace_segments` while the flush thread
  /// rotates), hence atomic with relaxed ordering.
  [[nodiscard]] std::uint64_t segments_finalized() const {
    return segments_finalized_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t current_seq() const { return seq_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  [[nodiscard]] std::string segment_path(std::uint64_t seq) const;
  Status write_open_segment();
  /// Closes the open segment and applies the retention bound.
  Status rotate();

  Config config_;
  std::vector<SpanTracer::TicketedEvent> pending_;
  std::uint64_t pending_dropped_ = 0;
  double open_since_ = -1.0;  ///< `now` of the first pending event
  bool open_written_ = false; ///< open segment exists on disk
  /// Union of the track tables appended since the open segment began.
  std::vector<TrackName> open_tracks_;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> segments_finalized_{0};
  std::atomic<std::uint64_t> events_written_{0};
  std::deque<std::string> finalized_;  ///< retention ring, oldest first
};

/// Periodic ring drain: owns the drain cursor, consumes the tracer's drop
/// counter, and feeds a SegmentWriter. flush() is designed to run on the
/// background sampler thread; finish() runs the shutdown tail flush. The
/// two may race (sampler tick vs shutdown), so flushing is serialized by a
/// mutex — recording hot paths are never involved in it.
class TraceFlusher {
 public:
  TraceFlusher(const SpanTracer& tracer, SegmentWriter::Config config,
               std::function<std::vector<TrackName>()> tracks_fn)
      : tracer_(tracer),
        writer_(std::move(config)),
        tracks_fn_(std::move(tracks_fn)) {}

  Status open() { return writer_.open(); }

  /// Drains new events and appends them to the open segment.
  Status flush(double now);

  /// Tail flush + finalize; call after the last producer has quiesced.
  Status finish(double now);

  /// Cumulative events lost to ring overwrite before they were drained
  /// (the `obs.trace_dropped_total` gauge).
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const SegmentWriter& writer() const { return writer_; }

 private:
  /// Drains new events and appends them with the track table. Caller holds
  /// mutex_.
  Status append_drained(double now);

  const SpanTracer& tracer_;
  SegmentWriter writer_;
  std::function<std::vector<TrackName>()> tracks_fn_;
  std::mutex mutex_;  ///< serializes flush() vs finish()
  std::uint64_t cursor_ = 0;
  std::atomic<std::uint64_t> dropped_total_{0};
};

}  // namespace cedr::obs
