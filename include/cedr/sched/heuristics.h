#pragma once
// The four scheduling heuristics evaluated in the paper (§III):
//
//   RR      — Round Robin: fair rotation over compatible PEs; ignores cost.
//   EFT     — Earliest Finish Time: FIFO over tasks, each placed on the PE
//             minimizing its finish time.
//   ETF     — Earliest Task First: globally searches all (task, PE) pairs
//             each step for the earliest-finishing pair; O(Q^2 * P) per
//             round, which is why its overhead tracks ready-queue size.
//   HEFT_RT — runtime variant of Heterogeneous Earliest Finish Time
//             (Mack et al., TPDS 2022): tasks ordered by upward rank, then
//             EFT placement.
//
// All heuristics consume a CandidateView (docs/scheduling.md): ineligible
// (task, PE) pairs are pruned up front and cost estimates are evaluated
// once per class instead of once per PE. Assignments and the reported
// `comparisons` counts are identical to the historical per-pair scans —
// the comparisons number remains the *naive* decision complexity, which is
// what the emulator charges as virtual decision time (Fig. 7).

#include "cedr/common/rng.h"
#include "cedr/sched/scheduler.h"

namespace cedr::sched {

class RoundRobinScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override { return "RR"; }
  ScheduleResult schedule(CandidateView& view) override;
  /// Fast path: RR never reads the view's cost side, so the round skips
  /// CandidateView construction and probes PEs directly (the pre-view flat
  /// path). Assignments and comparison counts are identical to the view
  /// path; tests/test_sched_lookahead.cpp asserts it.
  ScheduleResult schedule(std::span<const ReadyTask> ready,
                          std::span<PeState> pes,
                          const ScheduleContext& ctx) override;

 private:
  std::size_t next_pe_ = 0;  ///< rotation cursor persisted across rounds
};

class EftScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "EFT";
  }
  ScheduleResult schedule(CandidateView& view) override;
};

class EtfScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "ETF";
  }
  ScheduleResult schedule(CandidateView& view) override;
};

class HeftRtScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "HEFT_RT";
  }
  ScheduleResult schedule(CandidateView& view) override;
};

/// Shared helper: finish time of `t` if started on `pe` no earlier than now.
/// Returns +infinity for unsupported pairings.
double finish_time_on(const ReadyTask& t, const PeState& pe,
                      const ScheduleContext& ctx) noexcept;

// Beyond the paper's four, the wider CEDR ecosystem (DS3, Mack et al.
// TPDS 2022) evaluates two simpler baselines, provided here for ablations:

/// MET — Minimum Execution Time: each task goes to the PE with the lowest
/// *execution* estimate, ignoring queue availability entirely (the greedy
/// static-mapping strawman the paper's introduction argues against).
class MetScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "MET";
  }
  ScheduleResult schedule(CandidateView& view) override;
};

/// RANDOM — uniformly random compatible PE per task; the no-information
/// floor for scheduler comparisons. Deterministically seeded.
class RandomScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  explicit RandomScheduler(std::uint64_t seed = 0x5eedu) : rng_(seed) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "RANDOM";
  }
  ScheduleResult schedule(CandidateView& view) override;

 private:
  Rng rng_;
};

}  // namespace cedr::sched
