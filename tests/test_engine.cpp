// Tests for the scheduling-policy engine (docs/scheduling.md "Policy
// engine"): PE health (threshold quarantine, probe windows, reinstatement),
// bounded retry (backoff sequence, present-class fallback, deferred
// release), and the lookahead reservation lifecycle (reserve-once, hits,
// staleness after a quarantine or a cost-table change). The engine owns no
// clock, so every test drives it with a fake one.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "cedr/platform/platform.h"
#include "cedr/sched/engine.h"

namespace cedr::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kCpu0 = 0;
constexpr std::size_t kFft0 = 2;

/// Time as the caller sees it; the engine only ever receives `now`.
struct FakeClock {
  double t = 0.0;
  double advance(double dt) { return t += dt; }
};

std::uint32_t bit(platform::PeClass cls) {
  return 1u << static_cast<unsigned>(cls);
}

class PolicyEngineTest : public ::testing::Test {
 protected:
  PolicyEngineTest() : platform_(platform::host(/*cpus=*/2, /*ffts=*/1)) {
    policy_.max_retries = 3;
    policy_.backoff_base_s = 1e-3;
    policy_.backoff_factor = 2.0;
    policy_.quarantine_threshold = 3;
    policy_.probe_period_s = 10e-3;
  }

  PolicyEngine make_engine() const {
    return PolicyEngine(platform_.pes, policy_, &platform_.costs);
  }

  /// Fails one attempt of a throwaway task on `pe`.
  static FailureOutcome fail_once(PolicyEngine& engine, std::size_t pe,
                                  double now) {
    RetryState retry;
    return engine.on_failure(pe, retry, std::make_shared<int>(0), now);
  }

  /// Opens a window holding one ready task and reserves one lookahead task
  /// under `key` on `pe`, finishing at `finish`.
  void reserve_one(PolicyEngine& engine, std::uint64_t key, std::size_t pe,
                   double finish) {
    engine.round_pes(clock_.t);
    ctx_ = ScheduleContext{.now = clock_.t,
                           .costs = engine.cost_view(nullptr)};
    const std::vector<ReadyTask> ready{ReadyTask{.task_key = 1}};
    engine.open_window(ready, ctx_);
    const std::size_t pred = 0;
    const std::size_t index = engine.add_lookahead(
        key, ReadyTask{}, 1, std::span<const std::size_t>(&pred, 1));
    const std::vector<Reservation> placed{Reservation{
        .window_index = index, .pe_index = pe, .predicted_finish = finish}};
    engine.reserve(placed);
    engine.commit_round();
  }

  platform::PlatformConfig platform_;
  platform::FaultPolicy policy_;
  FakeClock clock_;
  ScheduleContext ctx_;
};

TEST_F(PolicyEngineTest, ThresholdQuarantine) {
  PolicyEngine engine = make_engine();
  EXPECT_EQ(fail_once(engine, kFft0, clock_.t).health, HealthTransition::kNone);
  EXPECT_EQ(fail_once(engine, kFft0, clock_.advance(1e-3)).health,
            HealthTransition::kNone);
  EXPECT_FALSE(engine.health(kFft0).quarantined);
  // A success in between resets the streak.
  EXPECT_EQ(engine.on_success(kFft0), HealthTransition::kNone);
  EXPECT_EQ(engine.health(kFft0).consecutive_faults, 0u);
  for (int i = 0; i < 2; ++i) fail_once(engine, kFft0, clock_.advance(1e-3));
  const FailureOutcome third = fail_once(engine, kFft0, clock_.advance(1e-3));
  EXPECT_EQ(third.health, HealthTransition::kQuarantined);
  const PeHealthState& h = engine.health(kFft0);
  EXPECT_TRUE(h.quarantined);
  EXPECT_EQ(h.consecutive_faults, 3u);
  EXPECT_EQ(h.faults_seen, 5u);
  EXPECT_EQ(h.quarantines, 1u);
  EXPECT_DOUBLE_EQ(h.probe_at, clock_.t + policy_.probe_period_s);
  EXPECT_EQ(engine.counters().pes_quarantined, 1u);
  // Hidden from the heuristic until the probe window opens.
  EXPECT_TRUE(engine.round_pes(clock_.t)[kFft0].quarantined);
  EXPECT_FALSE(engine.round_pes(clock_.t)[kCpu0].quarantined);
}

TEST_F(PolicyEngineTest, ZeroThresholdNeverQuarantines) {
  policy_.quarantine_threshold = 0;
  PolicyEngine engine = make_engine();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fail_once(engine, kFft0, clock_.advance(1e-3)).health,
              HealthTransition::kNone);
  }
  EXPECT_FALSE(engine.health(kFft0).quarantined);
}

TEST_F(PolicyEngineTest, FailedProbeRearmsTheWindow) {
  PolicyEngine engine = make_engine();
  for (int i = 0; i < 3; ++i) fail_once(engine, kFft0, clock_.t);
  ASSERT_TRUE(engine.health(kFft0).quarantined);
  EXPECT_DOUBLE_EQ(engine.next_probe(), 10e-3);

  clock_.advance(5e-3);
  EXPECT_TRUE(engine.round_pes(clock_.t)[kFft0].quarantined);
  clock_.advance(5e-3);  // window open: admitted for exactly one probe
  EXPECT_FALSE(engine.round_pes(clock_.t)[kFft0].quarantined);
  EXPECT_EQ(engine.gate(kFft0), DispatchGate::kProbe);
  EXPECT_EQ(engine.gate(kFft0), DispatchGate::kHold);
  EXPECT_EQ(engine.gate(kCpu0), DispatchGate::kDispatch);
  EXPECT_TRUE(engine.round_pes(clock_.t)[kFft0].quarantined);
  EXPECT_EQ(engine.next_probe(), kInf);  // a probe is in flight

  const FailureOutcome probe = fail_once(engine, kFft0, clock_.advance(2e-3));
  EXPECT_EQ(probe.health, HealthTransition::kProbeFailed);
  EXPECT_TRUE(engine.health(kFft0).quarantined);
  EXPECT_FALSE(engine.health(kFft0).probe_inflight);
  EXPECT_EQ(engine.health(kFft0).quarantines, 1u);
  EXPECT_DOUBLE_EQ(engine.next_probe(), clock_.t + policy_.probe_period_s);
  EXPECT_TRUE(engine.round_pes(clock_.advance(5e-3))[kFft0].quarantined);
  EXPECT_FALSE(engine.round_pes(clock_.advance(5e-3))[kFft0].quarantined);
}

TEST_F(PolicyEngineTest, ReinstatementBumpsTheEpoch) {
  PolicyEngine engine = make_engine();
  for (int i = 0; i < 3; ++i) fail_once(engine, kFft0, clock_.t);
  clock_.advance(policy_.probe_period_s);
  reserve_one(engine, /*key=*/7, kCpu0, clock_.t + 1e-3);
  ASSERT_TRUE(engine.reserved(7));
  ASSERT_EQ(engine.gate(kFft0), DispatchGate::kProbe);
  EXPECT_EQ(engine.on_success(kFft0), HealthTransition::kReinstated);
  EXPECT_FALSE(engine.health(kFft0).quarantined);
  EXPECT_EQ(engine.counters().pes_reinstated, 1u);
  // The PE pool changed under the reservation: it is stale now.
  EXPECT_FALSE(engine.reserved(7));
  EXPECT_EQ(engine.honour(7).outcome, Honoured::Outcome::kStale);
  EXPECT_EQ(engine.counters().reservation_stale, 1u);
}

TEST_F(PolicyEngineTest, BackoffSequenceThenTerminal) {
  PolicyEngine engine = make_engine();
  auto task = std::make_shared<int>(42);
  RetryState retry;
  const double expected[] = {1e-3, 2e-3, 4e-3};
  for (const double backoff : expected) {
    const FailureOutcome out = engine.on_failure(kCpu0, retry, task, clock_.t);
    ASSERT_TRUE(out.retry);
    EXPECT_DOUBLE_EQ(out.backoff_s, backoff);
    EXPECT_DOUBLE_EQ(engine.next_release(), clock_.t + backoff);
    // Not released a hair early; released once the backoff has elapsed.
    std::vector<std::shared_ptr<void>> released;
    const auto collect = [&](std::shared_ptr<void> t) {
      released.push_back(std::move(t));
    };
    engine.release_due(clock_.t + backoff * 0.5, collect);
    EXPECT_TRUE(released.empty());
    clock_.advance(backoff);
    engine.release_due(clock_.t, collect);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].get(), task.get());
    EXPECT_EQ(engine.deferred_count(), 0u);
  }
  EXPECT_EQ(retry.attempt, 3u);
  const FailureOutcome last = engine.on_failure(kCpu0, retry, task, clock_.t);
  EXPECT_FALSE(last.retry);
  EXPECT_EQ(engine.deferred_count(), 0u);
  EXPECT_EQ(engine.next_release(), kInf);
  EXPECT_EQ(engine.counters().tasks_retried, 3u);
  EXPECT_EQ(engine.counters().tasks_lost, 1u);
}

TEST_F(PolicyEngineTest, ReleaseKeepsDeferralOrder) {
  PolicyEngine engine = make_engine();
  std::vector<std::shared_ptr<int>> tasks;
  std::vector<RetryState> retries(3);
  retries[1].attempt = 2;  // backs off 4 ms, the others 1 ms
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(std::make_shared<int>(i));
    engine.on_failure(kCpu0, retries[static_cast<std::size_t>(i)],
                      tasks.back(), clock_.t);
  }
  std::vector<int> order;
  const auto collect = [&](std::shared_ptr<void> t) {
    order.push_back(*std::static_pointer_cast<int>(t));
  };
  engine.release_due(clock_.advance(1e-3), collect);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(engine.deferred_count(), 1u);
  engine.release_due(clock_.advance(3e-3), collect);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(PolicyEngineTest, PresentClassFallback) {
  PolicyEngine engine = make_engine();
  const std::uint32_t cpu = bit(platform::PeClass::kCpu);
  const std::uint32_t fft = bit(platform::PeClass::kFftAccel);
  const std::uint32_t gpu = bit(platform::PeClass::kGpu);
  RetryState retry;
  EXPECT_EQ(engine.effective_mask(cpu | fft, retry), cpu | fft);
  // A failure on the accelerator narrows the retry to the CPUs.
  engine.on_failure(kFft0, retry, std::make_shared<int>(0), clock_.t);
  EXPECT_EQ(retry.failed_class_mask, fft);
  EXPECT_EQ(engine.effective_mask(cpu | fft, retry), cpu);
  // Narrowing that would leave nothing present keeps the full mask.
  EXPECT_EQ(engine.effective_mask(fft, retry), fft);
  RetryState cpu_failed{.attempt = 1, .failed_class_mask = cpu};
  EXPECT_EQ(engine.effective_mask(cpu | gpu, cpu_failed), cpu | gpu);
}

TEST_F(PolicyEngineTest, StaleAfterQuarantine) {
  PolicyEngine engine = make_engine();
  reserve_one(engine, /*key=*/1, kFft0, 5e-3);
  reserve_one(engine, /*key=*/2, kCpu0, 5e-3);
  for (int i = 0; i < 3; ++i) fail_once(engine, kFft0, clock_.t);
  // Both were priced with fft0 healthy: stale, whichever PE they named.
  EXPECT_EQ(engine.honour(1).outcome, Honoured::Outcome::kStale);
  EXPECT_EQ(engine.honour(2).outcome, Honoured::Outcome::kStale);
  // Consumed: a second release finds nothing.
  EXPECT_EQ(engine.honour(1).outcome, Honoured::Outcome::kNone);
  EXPECT_EQ(engine.counters().reservation_stale, 2u);
  EXPECT_EQ(engine.counters().reservation_hits, 0u);
}

TEST_F(PolicyEngineTest, StaleAfterCostTableChange) {
  PolicyEngine engine = make_engine();
  reserve_one(engine, /*key=*/3, kCpu0, 5e-3);
  // Same table next round: nothing changes.
  EXPECT_EQ(engine.cost_view(nullptr), &platform_.costs);
  EXPECT_TRUE(engine.reserved(3));
  // A learned snapshot replaces the table the reservation was priced with.
  const platform::CostModel learned = platform_.costs;
  EXPECT_EQ(engine.cost_view(&learned), &learned);
  EXPECT_FALSE(engine.reserved(3));
  EXPECT_EQ(engine.honour(3).outcome, Honoured::Outcome::kStale);
}

TEST_F(PolicyEngineTest, ReserveOnceAndHitFoldsAvailability) {
  PolicyEngine engine = make_engine();
  EXPECT_FALSE(engine.reserved(9));
  reserve_one(engine, /*key=*/9, kFft0, 0.25);
  EXPECT_TRUE(engine.reserved(9));
  EXPECT_EQ(engine.lookahead_count(), 1u);
  // A fresh reservation is honoured on the reserved PE, and its predicted
  // finish becomes the PE's availability for later rounds.
  const Honoured hit = engine.honour(9);
  EXPECT_EQ(hit.outcome, Honoured::Outcome::kHit);
  EXPECT_EQ(hit.pe_index, kFft0);
  EXPECT_EQ(engine.counters().reservation_hits, 1u);
  EXPECT_FALSE(engine.reserved(9));
  const std::span<PeState> pes = engine.round_pes(clock_.advance(0.1));
  EXPECT_DOUBLE_EQ(pes[kFft0].available_time, 0.25);
  EXPECT_DOUBLE_EQ(pes[kCpu0].available_time, 0.1);
}

TEST_F(PolicyEngineTest, HeuristicAvailabilityCarriesAcrossRounds) {
  PolicyEngine engine = make_engine();
  std::span<PeState> pes = engine.round_pes(clock_.t);
  pes[kCpu0].available_time = 3.0;  // what a heuristic's assignment leaves
  engine.commit_round();
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.advance(1.0))[kCpu0].available_time,
                   3.0);
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kFft0].available_time, 1.0);
}

}  // namespace
}  // namespace cedr::sched

// --- Outstanding work: booking, completion and re-grounding ---------------

namespace cedr::sched {
namespace {

/// `count` placements on `pe` at `estimate_s` each, committed as a heuristic
/// would leave them: availability chained from `now`.
void place(PolicyEngine& engine, std::size_t pe, std::size_t count,
           double estimate_s, double now) {
  std::span<PeState> pes = engine.round_pes(now);
  std::vector<Assignment> placed;
  for (std::size_t i = 0; i < count; ++i) {
    pes[pe].available_time =
        std::max(now, pes[pe].available_time) + estimate_s;
    placed.push_back({.queue_index = i, .pe_index = pe,
                      .estimate_s = estimate_s});
  }
  engine.commit_round(placed);
}

TEST_F(PolicyEngineTest, CompletionRegroundsAvailability) {
  PolicyEngine engine = make_engine();
  // Three tasks priced at 1 s each; each really takes 0.1 s.
  place(engine, kCpu0, 3, 1.0, clock_.t);
  EXPECT_DOUBLE_EQ(engine.avail_lead(clock_.t), 3.0);
  engine.complete(kCpu0, 1.0, 0.1, clock_.advance(0.1));
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kCpu0].available_time, 2.1);
  engine.complete(kCpu0, 1.0, 0.1, clock_.advance(0.1));
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kCpu0].available_time, 1.2);
  // Drained: the PE is free from the moment its last attempt ended.
  engine.complete(kCpu0, 1.0, 0.1, clock_.advance(0.1));
  EXPECT_DOUBLE_EQ(engine.avail_lead(clock_.t), 0.0);
  const double later = clock_.advance(0.1);
  EXPECT_DOUBLE_EQ(engine.round_pes(later)[kCpu0].available_time, later);
  // Other PEs never saw a placement.
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kFft0].available_time, clock_.t);
}

TEST_F(PolicyEngineTest, FailedAttemptRegroundsToo) {
  PolicyEngine engine = make_engine();
  place(engine, kFft0, 2, 0.5, clock_.t);
  const double now = clock_.advance(0.01);
  fail_once(engine, kFft0, now);
  engine.complete(kFft0, 0.5, 0.0, now);
  EXPECT_DOUBLE_EQ(engine.round_pes(now)[kFft0].available_time, now + 0.5);
}

TEST_F(PolicyEngineTest, BookingAndCompletingAreExact) {
  PolicyEngine engine = make_engine();
  // Sums of these are not exact in binary floating point.
  const double estimates[] = {0.1, 0.2, 0.3, 0.7, 1e-7};
  for (const double e : estimates) engine.book(kCpu0, e);
  EXPECT_EQ(engine.outstanding(kCpu0).attempts, 5u);
  EXPECT_NEAR(engine.outstanding(kCpu0).estimate_s, 1.3000001, 1e-12);
  // Completed in another order; the held placement is dropped unrun.
  engine.complete(kCpu0, 0.7, 0.7, 1.0);
  engine.unbook(kCpu0, 0.2);
  engine.complete(kCpu0, 1e-7, 1e-7, 1.0);
  engine.complete(kCpu0, 0.1, 0.1, 1.0);
  EXPECT_EQ(engine.outstanding(kCpu0).attempts, 1u);
  EXPECT_NEAR(engine.outstanding(kCpu0).estimate_s, 0.3, 1e-12);
  engine.complete(kCpu0, 0.3, 0.3, 1.0);
  EXPECT_EQ(engine.outstanding(kCpu0).attempts, 0u);
  EXPECT_EQ(engine.outstanding(kCpu0).estimate_s, 0.0);  // no residue
  // A completion with nothing booked changes nothing.
  engine.complete(kCpu0, 1.0, 0.0, 1.0);
  EXPECT_EQ(engine.outstanding(kCpu0).attempts, 0u);
  EXPECT_EQ(engine.outstanding(kCpu0).estimate_s, 0.0);
  EXPECT_EQ(engine.outstanding(kFft0).attempts, 0u);
}

TEST_F(PolicyEngineTest, AttemptAtOrPastItsEstimateLeavesAvailabilityUnchanged) {
  PolicyEngine engine = make_engine();
  // A reservation hit plans fft0 busy until 0.25 s, a 0.25 s estimate
  // starting now; a round then chains a 0.1 s task behind it.
  reserve_one(engine, /*key=*/4, kFft0, 0.25);
  ASSERT_EQ(engine.honour(4).outcome, Honoured::Outcome::kHit);
  EXPECT_EQ(engine.outstanding(kFft0).attempts, 1u);
  place(engine, kFft0, 1, 0.1, clock_.t);
  const double planned = engine.round_pes(clock_.t)[kFft0].available_time;
  EXPECT_DOUBLE_EQ(planned, 0.35);
  // Early completions that took exactly or more than their estimates leave
  // the plan alone, even though now + outstanding is below it.
  engine.complete(kFft0, 0.1, 0.1, clock_.advance(0.05));
  EXPECT_EQ(engine.round_pes(clock_.t)[kFft0].available_time, planned);
  engine.complete(kFft0, 0.25, 0.3, clock_.advance(0.05));
  EXPECT_EQ(engine.round_pes(clock_.t)[kFft0].available_time, planned);
  EXPECT_EQ(engine.outstanding(kFft0).attempts, 0u);
}

TEST_F(PolicyEngineTest, HeldPlacementIsUnbookedWithoutRegrounding) {
  PolicyEngine engine = make_engine();
  place(engine, kCpu0, 2, 1.0, clock_.t);
  engine.unbook(kCpu0, 1.0);
  EXPECT_EQ(engine.outstanding(kCpu0).attempts, 1u);
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kCpu0].available_time, 2.0);
  // The next short attempt re-grounds on what is really left.
  engine.complete(kCpu0, 1.0, 0.1, clock_.advance(0.1));
  EXPECT_DOUBLE_EQ(engine.round_pes(clock_.t)[kCpu0].available_time, 0.1);
}

}  // namespace
}  // namespace cedr::sched
