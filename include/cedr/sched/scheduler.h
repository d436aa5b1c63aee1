#pragma once
// Pluggable scheduling-heuristic interface.
//
// CEDR invokes a user-selected heuristic in its main event loop each
// scheduling round: the heuristic examines the ready queue and the state of
// every PE and produces task->PE assignments. The same Scheduler objects
// drive both the threaded runtime (runtime/) and the discrete-event emulator
// (sim/), so heuristics see only abstract views: no clocks, threads or
// devices. The `comparisons` count a heuristic reports is its decision
// complexity for that round; the emulator converts it into main-thread CPU
// time, which is how the paper's scheduling-overhead trends (Fig. 7)
// reproduce mechanistically.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cedr/common/status.h"
#include "cedr/platform/cost_model.h"
#include "cedr/platform/kernel_id.h"
#include "cedr/platform/pe.h"

namespace cedr::sched {

/// A task awaiting assignment, as the heuristic sees it.
struct ReadyTask {
  std::uint64_t task_key = 0;       ///< opaque key the caller maps back
  std::uint64_t app_instance_id = 0;
  platform::KernelId kernel = platform::KernelId::kGeneric;
  std::size_t problem_size = 0;
  std::size_t data_bytes = 0;
  double ready_time = 0.0;  ///< when the task entered the queue
  double rank = 0.0;        ///< HEFT upward rank; 0 when not precomputed
  /// Bit per PeClass: which classes have an implementation of this task
  /// (beyond nominal kernel support — e.g. the FFT IP caps at 2048 points).
  std::uint32_t class_mask = 0xffffffffu;

  [[nodiscard]] bool allowed_on(platform::PeClass cls) const noexcept {
    return (class_mask >> static_cast<unsigned>(cls)) & 1u;
  }
};

/// Mutable per-PE view. Heuristics update available_time as they assign so
/// that later decisions in the same round see earlier ones.
struct PeState {
  std::size_t pe_index = 0;  ///< position in the platform's PE list
  platform::PeClass cls = platform::PeClass::kCpu;
  double available_time = 0.0;  ///< earliest time the PE can start new work
  /// Throughput relative to the class cost table (PeDescriptor::speed_factor).
  double speed = 1.0;
  /// Fault-tolerance: the PE is quarantined after repeated faults and must
  /// receive no assignments this round. Every heuristic excludes it from
  /// its candidate set (the policy engine re-admits the PE for probes).
  bool quarantined = false;
};

/// One task->PE decision. queue_index indexes the `ready` span passed to
/// schedule(); each index appears at most once per round.
struct Assignment {
  std::size_t queue_index = 0;
  std::size_t pe_index = 0;  ///< PeState::pe_index of the chosen PE
  /// Execution estimate the heuristic charged the PE for this task, in
  /// seconds; the policy engine books it as the PE's outstanding work.
  double estimate_s = 0.0;
};

/// Immutable inputs of one scheduling round.
struct ScheduleContext {
  double now = 0.0;
  const platform::CostModel* costs = nullptr;
};

/// Result of one scheduling round.
struct ScheduleResult {
  std::vector<Assignment> assignments;
  /// Number of (task, PE) cost evaluations the heuristic performed; the
  /// emulator charges decision time proportional to this.
  std::uint64_t comparisons = 0;
};

/// Precomputed per-class candidate structure for one scheduling round
/// (docs/scheduling.md). Built once from the ready queue's views, it gives
/// every heuristic:
///
///   * per-task eligible-PE slot lists, so ineligible (task, PE) pairs are
///     skipped up front instead of being probed one by one;
///   * per-(task, class) cost estimates evaluated once per class instead of
///     once per PE — the arithmetic (class estimate / pe.speed) is identical
///     to the legacy per-pair evaluation, so assignments are unchanged.
///
/// A caller restricts a round to part of the PE pool by passing only those
/// PEs' states.
///
/// Two eligibility predicates exist because the heuristics historically used
/// two: RR and RANDOM probe nominal kernel support
/// (platform::pe_class_supports), while the cost-aware heuristics admit any
/// pairing whose cost-table estimate is finite. Both also require
/// ReadyTask::allowed_on and exclude quarantined PEs.
///
/// The view is built per round and used by one thread; it is not
/// thread-safe. `pes()` exposes the caller's PeState array mutably so
/// heuristics keep updating available_time in place.
///
/// Construction is allocation-conscious: reset() reuses every internal
/// buffer (Scheduler::schedule keeps one thread_local view warm across
/// rounds, so steady-state rounds allocate nothing), and the cost side
/// (per-class estimates, cost eligibility) is evaluated lazily on first
/// access — RR and RANDOM decide from nominal kernel support and never pay
/// for a single cost-table lookup.
class CandidateView {
 public:
  CandidateView() = default;
  CandidateView(std::span<const ReadyTask> ready, std::span<PeState> pes,
                const ScheduleContext& ctx) {
    reset(ready, pes, ctx);
  }

  /// Rebuilds the view for a new round, reusing internal buffer capacity.
  /// The spans must stay valid for as long as the view is read.
  void reset(std::span<const ReadyTask> ready, std::span<PeState> pes,
             const ScheduleContext& ctx);

  [[nodiscard]] std::span<const ReadyTask> ready() const noexcept {
    return ready_;
  }
  [[nodiscard]] std::span<PeState> pes() const noexcept { return pes_; }
  [[nodiscard]] const ScheduleContext& ctx() const noexcept { return *ctx_; }

  /// Queue indices, in queue order: every task, including unassignable
  /// ones, which the legacy comparison formulas count — so `tasks().size()`
  /// is the Q of those formulas (served from a shared iota table, not
  /// per-round stores).
  [[nodiscard]] std::span<const std::size_t> tasks() const noexcept {
    return task_span_;
  }

  /// Number of PEs, quarantined included — the P of the legacy comparison
  /// formulas and RR's rotation space.
  [[nodiscard]] std::size_t pe_count() const noexcept { return pes_.size(); }

  /// Slots where task q may run under the support predicate (RR/RANDOM):
  /// !quarantined && pe_class_supports && allowed_on. Ascending.
  [[nodiscard]] std::span<const std::size_t> support_eligible(
      std::size_t q) const {
    return merged_slots(support_mask_[q]);
  }
  /// Slots where task q may run under the cost predicate (EFT/ETF/HEFT_RT/
  /// MET): !quarantined && allowed_on && finite estimate.
  [[nodiscard]] std::span<const std::size_t> cost_eligible(
      std::size_t q) const {
    return merged_slots(cost_mask(q));
  }

  [[nodiscard]] std::uint32_t support_mask(std::size_t q) const noexcept {
    return support_mask_[q];
  }
  [[nodiscard]] std::uint32_t cost_mask(std::size_t q) const {
    return kind_costs(q).finite_mask & ready_[q].class_mask & kClassBits;
  }

  /// Cached class-table estimate for (task q, class cls), in seconds at
  /// speed 1.0; +infinity when the pairing is inadmissible.
  [[nodiscard]] double class_estimate(std::size_t q,
                                      platform::PeClass cls) const {
    return kind_costs(q).est[static_cast<std::size_t>(cls)];
  }

  /// Execution estimate of task q on `pe` — bit-identical arithmetic to the
  /// legacy per-pair evaluation (class estimate / pe.speed).
  [[nodiscard]] double exec_estimate(std::size_t q,
                                     const PeState& pe) const {
    return class_estimate(q, pe.cls) / pe.speed;
  }

  /// All per-class estimates of task q's kind at once — one kind lookup for
  /// a whole PE scan instead of one per slot. Entries for inadmissible
  /// classes are +infinity; cost_eligible() already excludes their slots.
  [[nodiscard]] const std::array<double, platform::kNumPeClasses>&
  class_estimates(std::size_t q) const {
    return kind_costs(q).est;
  }

 private:
  /// One distinct (kernel, size, bytes) shape in this round's queue. DAG
  /// mode floods the queue with hundreds of copies of a handful of kinds,
  /// so per-kind memoization turns Q*C table evaluations into kinds*C.
  struct Kind {
    platform::KernelId kernel = platform::KernelId::kGeneric;
    std::size_t size = 0;
    std::size_t bytes = 0;
    std::array<double, platform::kNumPeClasses> est{};
    std::uint32_t finite_mask = 0;  ///< classes with a finite estimate
    bool costs_done = false;        ///< est/finite_mask populated
  };

  [[nodiscard]] std::span<const std::size_t> merged_slots(
      std::uint32_t class_mask) const;

  /// Cost side of task q's kind, populated on first use — one table
  /// evaluation per (kind, class), and only for kinds a heuristic actually
  /// prices. Kind identification itself is lazy too, so reset() does no
  /// per-task (kernel, size, bytes) searching; support-only heuristics pay
  /// for neither.
  [[nodiscard]] const Kind& kind_costs(std::size_t q) const {
    std::uint32_t k = kind_of_[q];
    if (k == kNoKind) k = identify_kind(q);
    Kind& kind = kinds_[k];
    if (!kind.costs_done) compute_kind_costs(kind);
    return kind;
  }
  std::uint32_t identify_kind(std::size_t q) const;
  void compute_kind_costs(Kind& kind) const;

  static constexpr std::uint32_t kNoKind =
      std::numeric_limits<std::uint32_t>::max();

  static constexpr std::uint32_t kClassBits =
      (1u << platform::kNumPeClasses) - 1u;

  std::span<const ReadyTask> ready_;
  std::span<PeState> pes_;
  const ScheduleContext* ctx_ = nullptr;
  std::uint32_t slotted_classes_ = 0;  ///< classes with >= 1 eligible slot

  std::vector<std::size_t> iota_;  ///< grown monotonically, 0..max Q
  std::span<const std::size_t> task_span_;
  std::array<std::vector<std::size_t>, platform::kNumPeClasses> class_slots_;
  std::vector<std::uint8_t> support_mask_;

  /// Kind cache: flat + linearly searched (a round sees few distinct
  /// kinds, so this beats a hash map and reuses its storage across resets).
  mutable std::vector<Kind> kinds_;
  /// task index -> kinds_ index, kNoKind until first priced.
  mutable std::vector<std::uint32_t> kind_of_;

  /// Lazily merged eligible-slot lists, one per class-mask value.
  static constexpr std::size_t kMaskSpace = 1u << platform::kNumPeClasses;
  mutable std::array<std::vector<std::size_t>, kMaskSpace> merged_;
  mutable std::array<bool, kMaskSpace> merged_built_{};
  mutable std::vector<std::size_t> merge_scratch_;
};

/// Base class for scheduling heuristics.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Heuristic name as used in runtime configuration ("RR", "EFT", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Assigns ready tasks to PEs. Implementations must only produce
  /// assignments where the PE class supports the task's kernel, and should
  /// assign every assignable task (CEDR drains its ready queue each round).
  /// Builds a CandidateView and runs the heuristic over it;
  /// assignments and `comparisons` are identical to the historical
  /// direct-scan implementations. Virtual so a heuristic that never reads
  /// the view's cost side (RR) can skip building it entirely — overrides
  /// must keep assignments and comparisons bit-identical to this path.
  virtual ScheduleResult schedule(std::span<const ReadyTask> ready,
                                  std::span<PeState> pes,
                                  const ScheduleContext& ctx) {
    // One warm workspace per scheduling thread: after the first rounds the
    // view's buffers reach steady-state capacity and a round allocates
    // nothing. Heuristics never re-enter schedule() from schedule(view).
    thread_local CandidateView view;
    view.reset(ready, pes, ctx);
    return schedule(view);
  }

  /// Heuristic entry point over a prebuilt candidate view.
  virtual ScheduleResult schedule(CandidateView& view) = 0;
};

/// Creates a heuristic by configuration name: "RR", "EFT", "ETF", "HEFT_RT".
StatusOr<std::unique_ptr<Scheduler>> make_scheduler(std::string_view name);

/// All heuristic names make_scheduler accepts, in paper order.
std::span<const std::string_view> scheduler_names() noexcept;

}  // namespace cedr::sched
