#pragma once
// Lock-free span tracer.
//
// The runtime's hot paths (enqueue, scheduling rounds, per-PE workers, IPC)
// record fixed-size span events into a preallocated ring buffer. Recording
// is wait-free on the fast path: a relaxed fetch_add claims a slot and a
// per-slot sequence word (even = stable, odd = being written) guards the
// payload copy so concurrent snapshot readers never observe a torn event.
// When the ring wraps, the oldest events are overwritten — the tracer keeps
// the most recent `capacity` events, and `dropped()` reports how many were
// lost, so a full trace of a long run requires sizing the ring up front.
//
// Timestamps are supplied by the caller (seconds, arbitrary epoch): the
// threaded runtime passes wall-clock offsets from its epoch while the
// discrete-event simulator passes virtual time, which is what gives the two
// execution surfaces an identical span stream for golden testing.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace cedr::obs {

/// Chrome trace-event phases the exporter understands.
enum class EventKind : std::uint8_t {
  kComplete,   ///< span with duration (ph "X")
  kInstant,    ///< point event (ph "i")
  kFlowBegin,  ///< flow start (ph "s")
  kFlowStep,   ///< flow step (ph "t")
  kFlowEnd,    ///< flow end (ph "f", binding point "enclosing")
};

/// Span taxonomy; becomes the Chrome "cat" field.
enum class Category : std::uint8_t {
  kRuntime,  ///< main-loop work: enqueue, completion drain
  kSched,    ///< scheduling rounds
  kWorker,   ///< per-PE task execution
  kIpc,      ///< socket command handling
  kApp,      ///< app lifecycle markers
  kFault,    ///< fault injection / retry / quarantine markers
  kSim,      ///< simulator engine internals
};

const char* category_name(Category cat);

/// Arg1 names of a worker execute span, whose value is the attempt index
/// (0 = first execution): one per outcome. Arg0 is named after the kernel
/// (platform::kernel_name) and holds the problem size, so the span alone
/// records what ran where, for how long, and whether it succeeded.
inline constexpr const char* kAttemptArg = "attempt";
inline constexpr const char* kFailedAttemptArg = "failed_attempt";

/// One fixed-size trace event. POD so a slot claim + memcpy is enough; the
/// name is truncated to fit and arg names must be string literals (only the
/// pointer is stored).
struct SpanEvent {
  static constexpr std::size_t kNameCapacity = 48;

  EventKind kind = EventKind::kComplete;
  Category category = Category::kRuntime;
  char name[kNameCapacity] = {};
  double ts = 0.0;   ///< seconds since the surface's epoch
  double dur = 0.0;  ///< seconds; kComplete only
  std::uint64_t pid = 0;      ///< 0 = runtime, otherwise app instance id
  std::uint64_t tid = 0;      ///< 0 = main loop, 1+pe = worker, see chrome_trace.h
  std::uint64_t flow_id = 0;  ///< nonzero on flow events
  const char* arg0_name = nullptr;  ///< string literal or nullptr
  double arg0 = 0.0;
  const char* arg1_name = nullptr;  ///< string literal or nullptr
  double arg1 = 0.0;

  void set_name(const char* text);
};

/// MPMC ring buffer of SpanEvents. Writers are wait-free apart from the
/// per-slot claim; `snapshot()` may run concurrently with recording and
/// returns the surviving events in record order.
class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);

  /// Cheap global gate; when disabled record() is a single relaxed load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(const SpanEvent& event);

  /// Convenience wrappers; no-ops when disabled.
  void complete_span(Category cat, const char* name, std::uint64_t pid,
                     std::uint64_t tid, double start, double duration,
                     const char* arg0_name = nullptr, double arg0 = 0.0,
                     const char* arg1_name = nullptr, double arg1 = 0.0);
  void instant(Category cat, const char* name, std::uint64_t pid,
               std::uint64_t tid, double ts, const char* arg0_name = nullptr,
               double arg0 = 0.0, const char* arg1_name = nullptr,
               double arg1 = 0.0);
  void flow(EventKind kind, Category cat, const char* name, std::uint64_t pid,
            std::uint64_t tid, double ts, std::uint64_t flow_id);

  /// Copies out the currently stored events, oldest first. Safe to call
  /// while other threads keep recording; events written mid-snapshot may or
  /// may not be included.
  std::vector<SpanEvent> snapshot() const;

  /// An event paired with its global record index, as returned by drain().
  /// Tickets are unique and monotonically increasing over the tracer's
  /// lifetime, which is what lets a segment reader dedup and re-sort events
  /// across rotated files.
  struct TicketedEvent {
    std::uint64_t ticket = 0;
    SpanEvent event;
  };

  /// Incremental consumer API for the continuous trace pipeline
  /// (docs/observability.md). Copies every event with ticket >= `cursor`
  /// that still survives in the ring, advances `cursor` past the end of the
  /// copied window, and returns the events in ticket order. The cursor is
  /// caller-owned (start at 0); recording is never blocked — a drain takes
  /// the same per-slot claim a writer does, for the duration of one struct
  /// copy. Events the ring overwrote before the cursor reached them are
  /// lost and counted into the drain-drop counter (consume_dropped()).
  std::vector<TicketedEvent> drain(std::uint64_t& cursor) const;

  /// Drain-drop counter: events that fell out of the ring before a drain()
  /// cursor reached them, accumulated since the previous call; calling
  /// consumes (zeroes) the counter, so a segment flusher can stamp each
  /// segment with the drops *since the previous segment* instead of the
  /// lifetime total dropped() reports. Single-consumer by design.
  std::uint64_t consume_dropped() const {
    return drain_dropped_.exchange(0, std::memory_order_relaxed);
  }
  /// Current (unconsumed) drain-drop count.
  std::uint64_t drain_dropped() const {
    return drain_dropped_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  /// Total events recorded since construction.
  std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  /// Events overwritten because the ring wrapped.
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

 private:
  struct Slot {
    /// Even = stable, odd = writer active. Monotonically increasing.
    std::atomic<std::uint32_t> seq{0};
    std::uint64_t ticket = 0;  ///< global record index, for snapshot ordering
    SpanEvent event;
  };

  std::size_t capacity_;  ///< power of two
  std::size_t mask_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> cursor_{0};
  /// Events overwritten before a drain() cursor reached them; zeroed by
  /// consume_dropped(). Mutable: draining is logically const (it never
  /// changes the stored events), but must account what it could not read.
  mutable std::atomic<std::uint64_t> drain_dropped_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace cedr::obs
