#include "cedr/obs/segment.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace cedr::obs {
namespace {

namespace fs = std::filesystem;

/// Appends to `into` each track of `more` that `into` does not name yet.
void merge_tracks(std::vector<TrackName>& into,
                  const std::vector<TrackName>& more) {
  const auto key = [](const TrackName& t) {
    return std::make_tuple(t.is_process, t.pid,
                           t.is_process ? std::uint64_t{0} : t.tid);
  };
  std::set<std::tuple<bool, std::uint64_t, std::uint64_t>> seen;
  for (const TrackName& track : into) seen.insert(key(track));
  for (const TrackName& track : more) {
    if (seen.insert(key(track)).second) into.push_back(track);
  }
}

constexpr std::size_t kHeaderBytes = 56;
constexpr std::size_t kTrackRecordBytes = 24;
constexpr std::size_t kSpanRecordBytes = 80;

// --- little-endian encode/decode ------------------------------------------

void put_u32(std::vector<char>& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_f64(std::vector<char>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

double get_f64(const char* p) { return std::bit_cast<double>(get_u64(p)); }

// --- string table ----------------------------------------------------------

/// Deduplicating NUL-terminated string table; offsets are byte positions.
class StringTable {
 public:
  std::uint32_t intern(const char* text) {
    if (text == nullptr) return kNoString;
    return intern(std::string(text));
  }
  std::uint32_t intern(const std::string& text) {
    const auto it = offsets_.find(text);
    if (it != offsets_.end()) return it->second;
    const auto offset = static_cast<std::uint32_t>(bytes_.size());
    bytes_.insert(bytes_.end(), text.begin(), text.end());
    bytes_.push_back('\0');
    offsets_.emplace(text, offset);
    return offset;
  }
  [[nodiscard]] const std::vector<char>& bytes() const { return bytes_; }

 private:
  std::vector<char> bytes_;
  std::map<std::string, std::uint32_t> offsets_;
};

Status atomic_write(const std::string& path, const std::vector<char>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Internal("cannot open " + tmp + " for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status write_segment_file(
    const std::string& path, std::uint64_t seq,
    std::uint64_t dropped_since_prev, const std::vector<TrackName>& tracks,
    const std::vector<SpanTracer::TicketedEvent>& events) {
  // Intern strings in deterministic first-appearance order: track names
  // first, then event names and arg names in stream order. The same event
  // stream therefore always yields byte-identical segments (the emulator
  // determinism test relies on this).
  StringTable strings;
  std::vector<std::uint32_t> track_names;
  track_names.reserve(tracks.size());
  for (const auto& track : tracks) track_names.push_back(strings.intern(track.name));
  struct EventNames {
    std::uint32_t name;
    std::uint32_t arg0;
    std::uint32_t arg1;
  };
  std::vector<EventNames> event_names;
  event_names.reserve(events.size());
  for (const auto& te : events) {
    event_names.push_back(EventNames{strings.intern(te.event.name),
                                     strings.intern(te.event.arg0_name),
                                     strings.intern(te.event.arg1_name)});
  }

  std::vector<char> payload;
  payload.reserve(strings.bytes().size() + tracks.size() * kTrackRecordBytes +
                  events.size() * kSpanRecordBytes);
  payload.insert(payload.end(), strings.bytes().begin(), strings.bytes().end());
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    put_u64(payload, tracks[i].pid);
    put_u64(payload, tracks[i].tid);
    payload.push_back(tracks[i].is_process ? 1 : 0);
    payload.push_back(0);
    payload.push_back(0);
    payload.push_back(0);
    put_u32(payload, track_names[i]);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i].event;
    payload.push_back(static_cast<char>(e.kind));
    payload.push_back(static_cast<char>(e.category));
    payload.push_back(0);
    payload.push_back(0);
    put_u32(payload, event_names[i].name);
    put_u64(payload, events[i].ticket);
    put_f64(payload, e.ts);
    put_f64(payload, e.dur);
    put_u64(payload, e.pid);
    put_u64(payload, e.tid);
    put_u64(payload, e.flow_id);
    put_u32(payload, event_names[i].arg0);
    put_u32(payload, event_names[i].arg1);
    put_f64(payload, e.arg0);
    put_f64(payload, e.arg1);
  }

  std::vector<char> file;
  file.reserve(kHeaderBytes + payload.size());
  file.insert(file.end(), std::begin(kSegmentMagic), std::end(kSegmentMagic));
  put_u32(file, kSegmentVersion);
  put_u64(file, seq);
  put_u64(file, events.empty() ? 0 : events.front().ticket);
  put_u64(file, events.size());
  put_u64(file, dropped_since_prev);
  put_u32(file, static_cast<std::uint32_t>(tracks.size()));
  put_u32(file, static_cast<std::uint32_t>(strings.bytes().size()));
  put_u32(file, crc32(payload.data(), payload.size()));
  put_u32(file, static_cast<std::uint32_t>(payload.size()));
  file.insert(file.end(), payload.begin(), payload.end());
  return atomic_write(path, file);
}

StatusOr<Segment> read_segment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open segment " + path);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (file.size() < kHeaderBytes) {
    return InvalidArgument(path + ": truncated header (" +
                           std::to_string(file.size()) + " bytes)");
  }
  if (std::memcmp(file.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return InvalidArgument(path + ": bad magic (not a .cbt segment)");
  }
  const std::uint32_t version = get_u32(file.data() + 4);
  if (version != kSegmentVersion) {
    return InvalidArgument(path + ": unsupported version " +
                           std::to_string(version));
  }
  Segment segment;
  segment.seq = get_u64(file.data() + 8);
  segment.first_ticket = get_u64(file.data() + 16);
  const std::uint64_t record_count = get_u64(file.data() + 24);
  segment.dropped_since_prev = get_u64(file.data() + 32);
  const std::uint32_t track_count = get_u32(file.data() + 40);
  const std::uint32_t table_bytes = get_u32(file.data() + 44);
  const std::uint32_t crc_expected = get_u32(file.data() + 48);
  const std::uint32_t payload_bytes = get_u32(file.data() + 52);
  if (file.size() != kHeaderBytes + payload_bytes) {
    return InvalidArgument(path + ": truncated payload (have " +
                           std::to_string(file.size() - kHeaderBytes) +
                           " bytes, header says " +
                           std::to_string(payload_bytes) + ")");
  }
  const std::uint64_t expected_payload =
      static_cast<std::uint64_t>(table_bytes) +
      static_cast<std::uint64_t>(track_count) * kTrackRecordBytes +
      record_count * kSpanRecordBytes;
  if (expected_payload != payload_bytes) {
    return InvalidArgument(path + ": inconsistent section sizes");
  }
  const char* payload = file.data() + kHeaderBytes;
  const std::uint32_t crc_actual = crc32(payload, payload_bytes);
  if (crc_actual != crc_expected) {
    return InvalidArgument(path + ": CRC mismatch (stored " +
                           std::to_string(crc_expected) + ", computed " +
                           std::to_string(crc_actual) + ")");
  }
  if (table_bytes > 0 && payload[table_bytes - 1] != '\0') {
    return InvalidArgument(path + ": string table not NUL-terminated");
  }

  // One backing string holds the whole table; decoded events point into it.
  // std::vector's move semantics keep element addresses stable, so a moved
  // Segment keeps its pointers valid.
  segment.strings.emplace_back(payload, table_bytes);
  const std::string& table = segment.strings.front();
  const auto string_at = [&](std::uint32_t offset) -> const char* {
    return table.data() + offset;
  };
  const auto check_offset = [&](std::uint32_t offset) {
    return offset < table_bytes;
  };

  const char* cursor = payload + table_bytes;
  segment.tracks.reserve(track_count);
  for (std::uint32_t i = 0; i < track_count; ++i, cursor += kTrackRecordBytes) {
    TrackName track;
    track.pid = get_u64(cursor);
    track.tid = get_u64(cursor + 8);
    track.is_process = cursor[16] != 0;
    const std::uint32_t name_off = get_u32(cursor + 20);
    if (!check_offset(name_off)) {
      return InvalidArgument(path + ": track name offset out of range");
    }
    track.name = string_at(name_off);
    segment.tracks.push_back(std::move(track));
  }
  segment.events.reserve(static_cast<std::size_t>(record_count));
  for (std::uint64_t i = 0; i < record_count; ++i, cursor += kSpanRecordBytes) {
    SpanTracer::TicketedEvent te;
    SpanEvent& e = te.event;
    e.kind = static_cast<EventKind>(static_cast<unsigned char>(cursor[0]));
    e.category = static_cast<Category>(static_cast<unsigned char>(cursor[1]));
    const std::uint32_t name_off = get_u32(cursor + 4);
    if (!check_offset(name_off)) {
      return InvalidArgument(path + ": event name offset out of range");
    }
    e.set_name(string_at(name_off));
    te.ticket = get_u64(cursor + 8);
    e.ts = get_f64(cursor + 16);
    e.dur = get_f64(cursor + 24);
    e.pid = get_u64(cursor + 32);
    e.tid = get_u64(cursor + 40);
    e.flow_id = get_u64(cursor + 48);
    const std::uint32_t arg0_off = get_u32(cursor + 56);
    const std::uint32_t arg1_off = get_u32(cursor + 60);
    if (arg0_off != kNoString) {
      if (!check_offset(arg0_off)) {
        return InvalidArgument(path + ": arg0 name offset out of range");
      }
      e.arg0_name = string_at(arg0_off);
    }
    if (arg1_off != kNoString) {
      if (!check_offset(arg1_off)) {
        return InvalidArgument(path + ": arg1 name offset out of range");
      }
      e.arg1_name = string_at(arg1_off);
    }
    e.arg0 = get_f64(cursor + 64);
    e.arg1 = get_f64(cursor + 72);
    segment.events.push_back(std::move(te));
  }
  return segment;
}

StatusOr<std::vector<std::string>> list_segments(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return NotFound("segment directory not found: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".cbt") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) return Internal("cannot list " + dir + ": " + ec.message());
  std::sort(paths.begin(), paths.end());
  return paths;
}

StatusOr<StitchedTrace> stitch_segments(const std::vector<std::string>& paths) {
  StitchedTrace stitched;
  stitched.segments.reserve(paths.size());
  for (const auto& path : paths) {
    auto segment = read_segment(path);
    CEDR_RETURN_IF_ERROR(segment.status());
    stitched.dropped_total += segment.value().dropped_since_prev;
    stitched.segments.push_back(std::move(segment).value());
  }
  // Union the track tables in first-appearance order. Each segment's table
  // names every (pid, tid) its own events reference (TraceFlusher takes the
  // table on both sides of the drain), so the union names every (pid, tid)
  // any surviving segment references.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> seen_threads;
  std::map<std::uint64_t, std::size_t> seen_processes;
  for (const auto& segment : stitched.segments) {
    for (const auto& track : segment.tracks) {
      if (track.is_process) {
        if (seen_processes.emplace(track.pid, stitched.tracks.size()).second) {
          stitched.tracks.push_back(track);
        }
      } else if (seen_threads
                     .emplace(std::make_pair(track.pid, track.tid),
                              stitched.tracks.size())
                     .second) {
        stitched.tracks.push_back(track);
      }
    }
  }
  // Merge the event streams: dedup by ticket (an open segment rewritten
  // just before rotation can coexist with a crashed writer's older copy),
  // then re-sort to monotonic ticket order.
  struct Entry {
    std::uint64_t ticket;
    const SpanEvent* event;
  };
  std::vector<Entry> entries;
  for (const auto& segment : stitched.segments) {
    for (const auto& te : segment.events) {
      entries.push_back(Entry{te.ticket, &te.event});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.ticket < b.ticket;
                   });
  const std::size_t before = entries.size();
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.ticket == b.ticket;
                            }),
                entries.end());
  stitched.duplicates_removed = before - entries.size();
  stitched.events.reserve(entries.size());
  for (const auto& entry : entries) stitched.events.push_back(*entry.event);
  return stitched;
}

// --- SegmentWriter ---------------------------------------------------------

std::string SegmentWriter::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%06llu",
                static_cast<unsigned long long>(seq));
  return config_.dir + "/" + config_.prefix + name + ".cbt";
}

Status SegmentWriter::open() {
  if (config_.dir.empty()) {
    return InvalidArgument("segment directory must not be empty");
  }
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    return Internal("cannot create " + config_.dir + ": " + ec.message());
  }
  // Resume numbering after anything already present so a restarted daemon
  // appends to the directory instead of overwriting history; pre-existing
  // segments count toward the retention bound.
  auto existing = list_segments(config_.dir);
  CEDR_RETURN_IF_ERROR(existing.status());
  for (const auto& path : existing.value()) {
    finalized_.push_back(path);
  }
  if (!finalized_.empty()) {
    const auto parsed = read_segment(finalized_.back());
    seq_ = parsed.ok() ? parsed.value().seq + 1
                       : static_cast<std::uint64_t>(finalized_.size());
  }
  return Status::Ok();
}

Status SegmentWriter::write_open_segment() {
  CEDR_RETURN_IF_ERROR(write_segment_file(segment_path(seq_), seq_,
                                          pending_dropped_, open_tracks_,
                                          pending_));
  open_written_ = true;
  return Status::Ok();
}

Status SegmentWriter::rotate() {
  finalized_.push_back(segment_path(seq_));
  ++seq_;
  ++segments_finalized_;
  open_written_ = false;
  open_tracks_.clear();
  if (config_.max_segments > 0) {
    while (finalized_.size() > config_.max_segments) {
      std::remove(finalized_.front().c_str());
      finalized_.pop_front();
    }
  }
  return Status::Ok();
}

Status SegmentWriter::append(
    const std::vector<SpanTracer::TicketedEvent>& events, std::uint64_t dropped,
    const std::vector<TrackName>& tracks, double now) {
  pending_dropped_ += dropped;
  if (!events.empty() && open_since_ < 0.0) open_since_ = now;
  pending_.insert(pending_.end(), events.begin(), events.end());
  merge_tracks(open_tracks_, tracks);
  events_written_ += events.size();
  // Size rotation: peel off full segments. A single oversized drain can
  // finalize several segments in one call.
  while (config_.max_segment_events > 0 &&
         pending_.size() >= config_.max_segment_events) {
    const auto split =
        pending_.begin() +
        static_cast<std::ptrdiff_t>(config_.max_segment_events);
    const std::vector<SpanTracer::TicketedEvent> chunk(pending_.begin(), split);
    CEDR_RETURN_IF_ERROR(write_segment_file(
        segment_path(seq_), seq_, pending_dropped_, open_tracks_, chunk));
    pending_.erase(pending_.begin(), split);
    pending_dropped_ = 0;
    open_since_ = pending_.empty() ? -1.0 : now;
    CEDR_RETURN_IF_ERROR(rotate());
    // Every event still pending came from this call (each call leaves
    // fewer than a segment pending), so this call's table names them.
    open_tracks_ = tracks;
  }
  // Age rotation: the open segment's oldest event has waited long enough.
  if (!pending_.empty() && config_.max_segment_age_s > 0.0 &&
      open_since_ >= 0.0 && now - open_since_ >= config_.max_segment_age_s) {
    CEDR_RETURN_IF_ERROR(write_open_segment());
    CEDR_RETURN_IF_ERROR(rotate());
    pending_.clear();
    pending_dropped_ = 0;
    open_since_ = -1.0;
    return Status::Ok();
  }
  // Otherwise durably rewrite the open segment so a SIGKILL after this
  // flush loses nothing that was drained.
  if (!pending_.empty() || pending_dropped_ > 0) {
    return write_open_segment();
  }
  return Status::Ok();
}

Status SegmentWriter::finalize(const std::vector<TrackName>& tracks) {
  if (pending_.empty() && pending_dropped_ == 0 && !open_written_) {
    return Status::Ok();
  }
  merge_tracks(open_tracks_, tracks);
  CEDR_RETURN_IF_ERROR(write_open_segment());
  CEDR_RETURN_IF_ERROR(rotate());
  pending_.clear();
  pending_dropped_ = 0;
  open_since_ = -1.0;
  return Status::Ok();
}

// --- TraceFlusher ----------------------------------------------------------

Status TraceFlusher::append_drained(double now) {
  // The runtime forgets a finished instance's name once the ring has
  // overwritten its spans, which can happen between the drain and a table
  // taken after it. A table taken before the drain names every finished
  // instance whose spans the drain can still copy; one taken after names
  // the instances started since. The segment carries both.
  std::vector<TrackName> tracks = tracks_fn_();
  const auto events = tracer_.drain(cursor_);
  const std::uint64_t dropped = tracer_.consume_dropped();
  if (dropped > 0) {
    dropped_total_.fetch_add(dropped, std::memory_order_relaxed);
  }
  merge_tracks(tracks, tracks_fn_());
  return writer_.append(events, dropped, tracks, now);
}

Status TraceFlusher::flush(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  return append_drained(now);
}

Status TraceFlusher::finish(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  CEDR_RETURN_IF_ERROR(append_drained(now));
  return writer_.finalize({});  // the open segment holds every table
}

}  // namespace cedr::obs
