#pragma once
// Frontier lookahead scheduling (docs/scheduling.md "Lookahead rounds").
//
// A classic scheduling round sees only the ready queue: tasks whose
// predecessors have all completed. DAG applications expose much more — the
// cached DagPlan skeleton knows every not-yet-ready successor, its HEFT
// rank and its predecessor set. A `Frontier` widens one round's view to
// that window: the ready tasks first (so Assignment::queue_index keeps
// its meaning), then successors within a bounded lookahead depth whose
// uncompleted predecessors are all inside the window.
//
// A `LookaheadScheduler` places the whole window in one pass. Placements
// for ready tasks dispatch immediately, exactly like a classic round;
// placements for not-yet-ready tasks come back as `Reservation`s — the
// caller records them and, when the task's predecessors complete, dispatches
// straight to the reserved PE without another scheduling round. A staleness
// check (quarantine / cost-snapshot epoch) returns invalidated reservations
// to the normal ready path.
//
// Two heuristics implement the interface:
//
//   HEFT_LA — full HEFT over the window: upward-rank order (depth breaks
//             rank ties so predecessors always place first), per-PE busy
//             timelines, and insertion-based slot packing that can tuck a
//             short lookahead task into a gap before an already-reserved
//             long one. Ready tasks place with plain earliest-finish
//             against running availability — they dispatch into worker
//             FIFOs immediately, so sub-slot packing cannot change when
//             they actually run and would only burn decision time.
//   EFT_LA  — batched EFT: window FIFO order, earliest-finish placement
//             with incremental availability updates; the cheap variant.
//
// Both reuse the CandidateView cost memoization, so comparison accounting
// stays auditable: EFT_LA charges P per task like EFT, HEFT_LA charges
// W*log2(W) + P*W like HEFT_RT.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cedr/sched/heuristics.h"
#include "cedr/sched/scheduler.h"

namespace cedr::sched {

/// One round's scheduling window: the ready queue plus not-yet-ready
/// successors within the lookahead depth. Built fresh each round (buffers
/// are reused across reset() calls); not thread-safe.
class Frontier {
 public:
  /// Starts a new window. The PeState span and context must outlive the
  /// round, exactly as with Scheduler::schedule().
  void reset(std::span<PeState> pes, const ScheduleContext& ctx);

  /// Appends one ready task. All ready tasks must be added before any
  /// lookahead task, in ready-queue order, so window indices below
  /// ready_count() coincide with Assignment::queue_index.
  void add_ready(const ReadyTask& view);

  /// Appends one not-yet-ready task at `depth` >= 1 whose in-window
  /// predecessors are the window indices in `preds` (all of them — a task
  /// belongs in the window only when every uncompleted predecessor is
  /// already inside it). Returns the new task's window index.
  std::size_t add_lookahead(const ReadyTask& view, std::uint32_t depth,
                            std::span<const std::size_t> preds);

  /// Stages a predecessor set shared by several lookahead tasks — e.g. a
  /// barrier level whose every task depends on the whole previous level.
  /// The set is stored once and the schedulers memoize the earliest-start
  /// scan per set, so a level of N tasks pays one predecessor copy and one
  /// scan instead of N. Returns the set id for add_lookahead_staged.
  std::uint32_t stage_preds(std::span<const std::size_t> preds);

  /// add_lookahead against a staged predecessor set (see stage_preds). All
  /// members of one set must be added consecutively (no interleaving with
  /// other add_* calls) — they form one barrier level, and the schedulers
  /// exploit the resulting contiguous window-index range.
  std::size_t add_lookahead_staged(const ReadyTask& view, std::uint32_t depth,
                                   std::uint32_t pred_set);

  /// No shared predecessor set: preds are private to the task.
  static constexpr std::uint32_t kNoPredSet = 0xffffffffu;

  [[nodiscard]] std::span<const ReadyTask> views() const noexcept {
    return views_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return views_.size(); }
  [[nodiscard]] std::size_t ready_count() const noexcept {
    return ready_count_;
  }
  /// 0 for ready tasks, 1 + max(predecessor depth) for lookahead tasks.
  [[nodiscard]] std::uint32_t depth(std::size_t i) const noexcept {
    return depth_[i];
  }
  /// In-window predecessor indices of window task i (empty for ready tasks).
  [[nodiscard]] std::span<const std::size_t> preds(std::size_t i) const {
    const auto& [begin, end] = pred_range_[i];
    return std::span<const std::size_t>(pred_pool_).subspan(begin, end - begin);
  }
  /// Staged-set id task i shares with its level, or kNoPredSet.
  [[nodiscard]] std::uint32_t pred_set(std::size_t i) const noexcept {
    return pred_set_[i];
  }
  [[nodiscard]] std::size_t pred_set_count() const noexcept {
    return staged_.size();
  }
  /// Contiguous window-index range of the set's member tasks:
  /// {first index, count}. Meaningful once at least one member was added.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> set_members(
      std::uint32_t set) const noexcept {
    return set_members_[set];
  }
  [[nodiscard]] std::span<PeState> pes() const noexcept { return pes_; }
  [[nodiscard]] const ScheduleContext& ctx() const noexcept { return *ctx_; }

 private:
  std::vector<ReadyTask> views_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pred_range_;
  std::vector<std::uint32_t> pred_set_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> staged_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> set_members_;
  std::vector<std::size_t> pred_pool_;
  std::size_t ready_count_ = 0;
  std::span<PeState> pes_;
  const ScheduleContext* ctx_ = nullptr;
};

/// A placement decided ahead of readiness. `window_index` >= ready_count();
/// the caller maps it back to its (app, dag task) identity and honors the
/// placement when the predecessors complete, unless it has gone stale.
struct Reservation {
  std::size_t window_index = 0;
  std::size_t pe_index = 0;         ///< PeState::pe_index of the chosen PE
  double predicted_start = 0.0;
  double predicted_finish = 0.0;
};

/// Result of one frontier-wide round: immediate assignments for ready
/// tasks (queue_index semantics unchanged) plus reservations for the
/// lookahead portion of the window.
struct FrontierResult {
  std::vector<Assignment> assignments;
  std::vector<Reservation> reservations;
  std::uint64_t comparisons = 0;
};

/// Base for heuristics that place a whole lookahead window per round. The
/// inherited per-CandidateView entry point stays available (and is used for
/// API-mode tasks and plain ready-only rounds), so a
/// LookaheadScheduler is always a drop-in Scheduler.
class LookaheadScheduler : public Scheduler {
 public:
  using Scheduler::schedule;
  virtual FrontierResult schedule_window(Frontier& frontier) = 0;
};

/// HEFT_LA — full HEFT over the visible window (header comment above).
class HeftLaScheduler final : public LookaheadScheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "HEFT_LA";
  }
  /// Ready-only fallback: identical to HEFT_RT (rank order, EFT placement).
  ScheduleResult schedule(CandidateView& view) override {
    return fallback_.schedule(view);
  }
  FrontierResult schedule_window(Frontier& frontier) override;

 private:
  HeftRtScheduler fallback_;
  // Round-local scratch, reused so steady-state rounds allocate nothing.
  struct SortKey {
    double neg_rank;
    std::uint64_t depth_index;
  };
  std::vector<SortKey> sort_keys_;
  std::vector<std::size_t> order_;
  std::vector<double> finish_;
  std::vector<double> ready_finish_;
  std::vector<double> avail_;
  std::vector<double> set_est_;
  std::vector<double> tail_;
  std::vector<double> cand_start_;
  std::vector<double> cand_fin_;
  std::vector<double> inv_speed_;
  std::vector<std::size_t> cls_of_;
  std::vector<std::vector<std::pair<double, double>>> timelines_;
};

/// EFT_LA — batched EFT over the window (header comment above).
class EftLaScheduler final : public LookaheadScheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "EFT_LA";
  }
  /// Ready-only fallback: identical to EFT.
  ScheduleResult schedule(CandidateView& view) override {
    return fallback_.schedule(view);
  }
  FrontierResult schedule_window(Frontier& frontier) override;

 private:
  EftScheduler fallback_;
  std::vector<double> finish_;
  std::vector<double> ready_finish_;
  std::vector<double> avail_;
  std::vector<double> set_est_;
  std::vector<double> inv_speed_;
  std::vector<std::size_t> cls_of_;
};

}  // namespace cedr::sched
