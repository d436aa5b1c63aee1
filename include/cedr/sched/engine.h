#pragma once
// Scheduling-policy engine (docs/scheduling.md "Policy engine"): every
// policy the threaded runtime and the discrete-event emulator share, written
// once — PE health (quarantine, probe windows, reinstatement), bounded retry
// (failed-class narrowing, backoff, the deferred set), the per-round PE view
// and cost view, each PE's outstanding work, and the lookahead reservation
// table.
//
// The engine owns no clock and no thread. Time-dependent calls take the
// caller's `now` (wall seconds in the runtime, virtual seconds in the
// emulator) and return the transition they made, which each caller turns
// into its own trace and log lines. Times compare with a 1e-12 s tolerance.
// Not thread-safe: the runtime calls it from the scheduling-round owner
// under the locks the owner holds, the emulator from its single event loop.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cedr/platform/cost_model.h"
#include "cedr/platform/fault.h"
#include "cedr/platform/pe.h"
#include "cedr/sched/frontier.h"
#include "cedr/sched/scheduler.h"

namespace cedr::sched {

/// Retry state a task carries between attempts; only the engine changes it.
struct RetryState {
  std::uint32_t attempt = 0;            ///< executions beyond the first
  std::uint32_t failed_class_mask = 0;  ///< PE classes that already failed it
};

/// Fault-tolerance health of one PE.
struct PeHealthState {
  std::uint32_t consecutive_faults = 0;  ///< since the last success
  std::uint64_t faults_seen = 0;         ///< lifetime failed executions
  std::uint64_t quarantines = 0;         ///< times this PE was quarantined
  bool quarantined = false;
  bool probe_inflight = false;  ///< a probe task is on this PE right now
  double probe_at = 0.0;        ///< when the next probe may be dispatched
};

/// The PE-health transition one finished execution caused.
enum class HealthTransition : std::uint8_t {
  kNone,
  kProbeFailed,  ///< a quarantined PE's probe failed; window re-armed
  kQuarantined,
  kReinstated,   ///< a quarantined PE's probe succeeded
};

struct FailureOutcome {
  HealthTransition health = HealthTransition::kNone;
  bool retry = false;      ///< deferred for a retry; false = retries exhausted
  double backoff_s = 0.0;
};

/// kProbe: the PE is quarantined and this task is its one probe; kHold: a
/// probe is already in flight there, so the task stays queued.
enum class DispatchGate : std::uint8_t { kDispatch, kProbe, kHold };

struct Honoured {
  enum class Outcome : std::uint8_t { kNone, kHit, kStale };
  Outcome outcome = Outcome::kNone;
  std::size_t pe_index = 0;  ///< reserved PE on a hit
  double estimate_s = 0.0;   ///< execution estimate booked on a hit
};

/// Attempts dispatched to one PE that have not ended yet, and the sum of
/// the execution estimates the heuristics charged for them.
struct Outstanding {
  std::uint64_t attempts = 0;
  double estimate_s = 0.0;
};

struct PolicyCounters {
  std::uint64_t tasks_retried = 0;
  std::uint64_t tasks_lost = 0;  ///< retries exhausted
  std::uint64_t pes_quarantined = 0;
  std::uint64_t pes_reinstated = 0;
  std::uint64_t reservation_hits = 0;
  std::uint64_t reservation_stale = 0;
};

class PolicyEngine {
 public:
  static constexpr double kTimeEps = 1e-12;
  /// Lookahead tasks per round window, bounding one round's placement cost.
  static constexpr std::size_t kMaxLookaheadTasks = 512;

  /// `base_costs` (priced with when no learned table is offered) must
  /// outlive the engine.
  PolicyEngine(std::span<const platform::PeDescriptor> pes,
               const platform::FaultPolicy& policy,
               const platform::CostModel* base_costs);

  // --- PE health and bounded retry -----------------------------------------
  [[nodiscard]] const PeHealthState& health(std::size_t pe) const {
    return health_[pe];
  }
  /// Resets the PE's fault streak; reinstates it if it was quarantined.
  HealthTransition on_success(std::size_t pe);
  /// Updates PE health, records the failed class in `retry` (the task's own
  /// state), and either defers `task` for a backed-off retry or reports the
  /// failure terminal.
  FailureOutcome on_failure(std::size_t pe, RetryState& retry,
                            const std::shared_ptr<void>& task, double now);
  /// `impl_mask` narrowed away from classes that already failed the task,
  /// unless no present class left in it can run `kernel`.
  [[nodiscard]] std::uint32_t effective_mask(
      platform::KernelId kernel, std::uint32_t impl_mask,
      const RetryState& retry) const noexcept {
    const std::uint32_t narrowed = impl_mask & ~retry.failed_class_mask;
    return placeable(kernel, narrowed) ? narrowed : impl_mask;
  }
  /// True when a PE class present on the platform both supports `kernel`
  /// and is in `impl_mask`. Otherwise no round can ever place the task.
  [[nodiscard]] bool placeable(platform::KernelId kernel,
                               std::uint32_t impl_mask) const noexcept;
  /// Hands each deferred task whose backoff has elapsed to `push`, in
  /// deferral order; the rest stay deferred, in order.
  template <typename Push>
  void release_due(double now, Push&& push) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      if (deferred_[i].release_at <= now + kTimeEps) {
        push(std::move(deferred_[i].task));
      } else {
        if (kept != i) deferred_[kept] = std::move(deferred_[i]);
        ++kept;
      }
    }
    deferred_.resize(kept);
  }
  [[nodiscard]] std::size_t deferred_count() const noexcept {
    return deferred_.size();
  }
  /// Earliest deferred release; +infinity when nothing is deferred.
  [[nodiscard]] double next_release() const noexcept;

  // --- Round input ---------------------------------------------------------
  /// The round's PE view at `now`: carried-over availability, quarantined
  /// PEs hidden unless their probe window is open with no probe in flight.
  /// Valid, and updated by the heuristic in place, until the next call.
  std::span<PeState> round_pes(double now);
  /// `learned` when offered, else the base table; a change of table bumps
  /// the reservation epoch.
  const platform::CostModel* cost_view(const platform::CostModel* learned);
  /// Carries the availability the heuristic assigned into later rounds and
  /// books every placement in `placed` as outstanding work on its PE.
  void commit_round(std::span<const Assignment> placed = {});
  DispatchGate gate(std::size_t pe);
  /// Earliest probe window of a quarantined PE with no probe in flight;
  /// +infinity when there is none.
  [[nodiscard]] double next_probe() const noexcept;

  // --- Lookahead window and reservations -----------------------------------
  /// Starts a window over round_pes() with the ready views first. `ctx` must
  /// outlive the round.
  Frontier& open_window(std::span<const ReadyTask> ready,
                        const ScheduleContext& ctx);
  /// Frontier::add_lookahead(_staged) for a task named by the caller's
  /// reservation `key`.
  std::size_t add_lookahead(std::uint64_t key, const ReadyTask& view,
                            std::uint32_t depth,
                            std::span<const std::size_t> preds);
  std::size_t add_lookahead_staged(std::uint64_t key, const ReadyTask& view,
                                   std::uint32_t depth,
                                   std::uint32_t pred_set);
  [[nodiscard]] std::size_t lookahead_count() const noexcept {
    return window_keys_.size();
  }
  /// Records the window's placements, replacing older ones for the same
  /// task: the freshest window saw the freshest availability.
  void reserve(std::span<const Reservation> reservations);
  /// Reserve-once check: a reservation from the current epoch stands.
  [[nodiscard]] bool reserved(std::uint64_t key) const;
  /// Consumes a released task's reservation. A hit (same epoch, PE not
  /// quarantined) folds its predicted finish into the PE's availability and
  /// books its estimate as outstanding work there.
  Honoured honour(std::uint64_t key);

  // --- Outstanding work ----------------------------------------------------
  // A PE's availability is the time the heuristics expect it to be free of
  // the work they placed there: each placement pushes it out by the task's
  // estimate. Estimates can be far off (nominal tables on a host), so an
  // attempt that ran shorter than its estimate re-grounds its PE on what is
  // still queued there: availability becomes min(carried, now + estimates
  // still outstanding). The clip only ever lowers it. An attempt that took
  // at least its estimate shows no estimate was too high and leaves
  // availability unchanged, keeping any planned idle time in it (a
  // lookahead reservation waiting on predicted predecessor finishes).
  /// Books one attempt on `pe` at the estimate its placement charged.
  void book(std::size_t pe, double estimate_s);
  /// Drops one booking from `pe` without touching its availability: a
  /// placement held back before it ran.
  void unbook(std::size_t pe, double estimate_s);
  /// One booked attempt on `pe` ended at `now`, successful or not, after
  /// running `ran_s` seconds.
  void complete(std::size_t pe, double estimate_s, double ran_s, double now);
  [[nodiscard]] const Outstanding& outstanding(std::size_t pe) const {
    return outstanding_[pe];
  }
  /// Largest lead of any PE's carried availability over `now`, in seconds;
  /// 0 when every PE is free.
  [[nodiscard]] double avail_lead(double now) const noexcept;

  [[nodiscard]] const PolicyCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Deferred {
    double release_at = 0.0;
    std::shared_ptr<void> task;
  };
  struct ReservationEntry {
    std::size_t pe_index = 0;
    double predicted_finish = 0.0;
    double estimate_s = 0.0;
    std::uint64_t epoch = 0;
  };

  platform::FaultPolicy policy_;
  const platform::CostModel* base_costs_;
  const platform::CostModel* last_costs_ = nullptr;
  std::uint32_t present_classes_ = 0;
  std::vector<PeHealthState> health_;
  std::vector<PeState> pes_;       ///< round view, reused across rounds
  std::vector<double> available_;  ///< availability carried across rounds
  std::vector<Outstanding> outstanding_;
  std::vector<Deferred> deferred_;
  /// Bumped by quarantine, reinstatement and cost-table changes; older
  /// reservations are stale.
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, ReservationEntry> reservations_;
  Frontier frontier_;
  std::vector<std::uint64_t> window_keys_;  ///< per lookahead window task
  PolicyCounters counters_;
};

}  // namespace cedr::sched
