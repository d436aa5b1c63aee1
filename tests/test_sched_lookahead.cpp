// Tests for frontier lookahead scheduling (docs/scheduling.md "Lookahead
// rounds"): Frontier window construction, staged predecessor sets, HEFT_LA
// placement semantics vs HEFT_RT, the reservation lifecycle in the emulator
// (honor, depth gating, fault-quarantine staleness), determinism across
// sweep parallelism, and the RR fast path's equivalence to the
// CandidateView path.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <thread>
#include <vector>

#include "cedr/scenario/runner.h"
#include "cedr/scenario/scenario.h"
#include "cedr/sched/frontier.h"
#include "cedr/sched/heuristics.h"
#include "cedr/sched/scheduler.h"
#include "cedr/sim/model.h"
#include "cedr/sim/simulator.h"

namespace cedr::sched {
namespace {

platform::PlatformConfig test_platform() { return platform::zcu102(3, 2, 0); }

std::vector<PeState> pe_states(const platform::PlatformConfig& platform) {
  std::vector<PeState> pes;
  for (std::size_t i = 0; i < platform.pes.size(); ++i) {
    pes.push_back(PeState{.pe_index = i,
                          .cls = platform.pes[i].cls,
                          .speed = platform.pes[i].speed_factor});
  }
  return pes;
}

ReadyTask fft_task(std::uint64_t key, double rank) {
  return ReadyTask{.task_key = key,
                   .kernel = platform::KernelId::kFft,
                   .problem_size = 256,
                   .data_bytes = 2 * 256 * 8,
                   .rank = rank};
}

ReadyTask generic_task(std::uint64_t key, double rank) {
  return ReadyTask{.task_key = key,
                   .kernel = platform::KernelId::kGeneric,
                   .problem_size = 50000,
                   .rank = rank};
}

TEST(Frontier, WindowShapeAndPredecessorSets) {
  const auto platform = test_platform();
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  Frontier frontier;
  frontier.reset(pes, ctx);
  frontier.add_ready(fft_task(1, 5.0));
  frontier.add_ready(fft_task(2, 5.0));
  ASSERT_EQ(frontier.ready_count(), 2u);

  // One barrier level staged once, shared by three tasks.
  const std::size_t roots[] = {0, 1};
  const std::uint32_t level = frontier.stage_preds(roots);
  const std::size_t a = frontier.add_lookahead_staged(fft_task(3, 4.0), 1, level);
  const std::size_t b = frontier.add_lookahead_staged(fft_task(4, 4.0), 1, level);
  const std::size_t c = frontier.add_lookahead_staged(fft_task(5, 4.0), 1, level);
  // Plus one task with a private predecessor list.
  const std::size_t mids[] = {a, b, c};
  const std::size_t d = frontier.add_lookahead(generic_task(6, 3.0), 2, mids);

  EXPECT_EQ(frontier.size(), 6u);
  EXPECT_EQ(frontier.depth(0), 0u);
  EXPECT_EQ(frontier.depth(a), 1u);
  EXPECT_EQ(frontier.depth(d), 2u);
  // Ready and private-pred tasks belong to no staged set.
  EXPECT_EQ(frontier.pred_set(0), Frontier::kNoPredSet);
  EXPECT_EQ(frontier.pred_set(d), Frontier::kNoPredSet);
  // Staged members share the set id and form a contiguous index range.
  EXPECT_EQ(frontier.pred_set(a), level);
  EXPECT_EQ(frontier.pred_set(c), level);
  const auto [first, count] = frontier.set_members(level);
  EXPECT_EQ(first, a);
  EXPECT_EQ(count, 3u);
  // Both staged and private predecessor spans read back exactly.
  for (const std::size_t member : {a, b, c}) {
    const auto preds = frontier.preds(member);
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], 0u);
    EXPECT_EQ(preds[1], 1u);
  }
  const auto dpreds = frontier.preds(d);
  ASSERT_EQ(dpreds.size(), 3u);
  EXPECT_EQ(dpreds[2], c);
  // reset() starts a clean window.
  frontier.reset(pes, ctx);
  EXPECT_EQ(frontier.size(), 0u);
  EXPECT_EQ(frontier.pred_set_count(), 0u);
}

TEST(HeftLa, ReadyOnlyWindowMatchesHeftRt) {
  const auto platform = test_platform();
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 12; ++i) {
    ready.push_back(fft_task(i, 10.0 - static_cast<double>(i)));
  }
  for (std::uint64_t i = 12; i < 16; ++i) {
    ready.push_back(generic_task(i, 20.0 - static_cast<double>(i)));
  }

  auto rt_pes = pe_states(platform);
  HeftRtScheduler rt;
  const ScheduleResult rt_result = rt.schedule(ready, rt_pes, ctx);

  auto la_pes = pe_states(platform);
  Frontier frontier;
  frontier.reset(la_pes, ctx);
  for (const ReadyTask& t : ready) frontier.add_ready(t);
  HeftLaScheduler la;
  const FrontierResult la_result = la.schedule_window(frontier);

  // A window with no lookahead portion is a classic round: identical
  // placements, identical comparison accounting, no reservations.
  EXPECT_TRUE(la_result.reservations.empty());
  EXPECT_EQ(la_result.comparisons, rt_result.comparisons);
  ASSERT_EQ(la_result.assignments.size(), rt_result.assignments.size());
  for (std::size_t i = 0; i < rt_result.assignments.size(); ++i) {
    EXPECT_EQ(la_result.assignments[i].queue_index,
              rt_result.assignments[i].queue_index);
    EXPECT_EQ(la_result.assignments[i].pe_index,
              rt_result.assignments[i].pe_index);
  }
  for (std::size_t i = 0; i < rt_pes.size(); ++i) {
    EXPECT_DOUBLE_EQ(la_pes[i].available_time, rt_pes[i].available_time);
  }
}

TEST(LookaheadWindows, ReadyAssignmentsCarryTheEstimateTheyCharged) {
  const auto platform = test_platform();
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 9; ++i) ready.push_back(fft_task(i, 1.0));
  for (std::uint64_t i = 9; i < 12; ++i) ready.push_back(generic_task(i, 1.0));
  HeftLaScheduler heft_la;
  EftLaScheduler eft_la;
  for (LookaheadScheduler* scheduler :
       std::initializer_list<LookaheadScheduler*>{&heft_la, &eft_la}) {
    auto pes = pe_states(platform);
    Frontier frontier;
    frontier.reset(pes, ctx);
    for (const ReadyTask& t : ready) frontier.add_ready(t);
    const FrontierResult result = scheduler->schedule_window(frontier);
    ASSERT_EQ(result.assignments.size(), ready.size()) << scheduler->name();
    for (const Assignment& a : result.assignments) {
      const ReadyTask& t = ready[a.queue_index];
      const PeState& pe = pes[a.pe_index];
      EXPECT_DOUBLE_EQ(a.estimate_s, platform.costs.estimate(
                                         t.kernel, pe.cls, t.problem_size,
                                         t.data_bytes) /
                                         pe.speed)
          << scheduler->name();
    }
  }
}

/// Emulates the classic per-readiness scheduling of a diamond DAG with
/// HEFT_RT: each level becomes ready only when the previous level finished,
/// and each round sees only that level.
double heft_rt_diamond_makespan(const platform::PlatformConfig& platform) {
  auto pes = pe_states(platform);
  HeftRtScheduler rt;
  double now = 0.0;
  const auto run_level = [&](std::vector<ReadyTask> level) {
    const ScheduleContext ctx{.now = now, .costs = &platform.costs};
    rt.schedule(level, pes, ctx);
    double level_finish = now;
    for (const PeState& pe : pes) {
      level_finish = std::max(level_finish, pe.available_time);
    }
    now = level_finish;
  };
  run_level({fft_task(1, 3.0)});
  run_level({fft_task(2, 2.0), fft_task(3, 2.0), fft_task(4, 2.0),
             fft_task(5, 2.0)});
  run_level({generic_task(6, 1.0)});
  return now;
}

TEST(HeftLa, DiamondDagMakespanNoWorseThanHeftRt) {
  const auto platform = test_platform();
  const double rt_makespan = heft_rt_diamond_makespan(platform);

  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  Frontier frontier;
  frontier.reset(pes, ctx);
  frontier.add_ready(fft_task(1, 3.0));
  const std::size_t root[] = {0};
  const std::uint32_t l1 = frontier.stage_preds(root);
  for (std::uint64_t k = 2; k <= 5; ++k) {
    frontier.add_lookahead_staged(fft_task(k, 2.0), 1, l1);
  }
  const std::size_t mids[] = {1, 2, 3, 4};
  const std::uint32_t l2 = frontier.stage_preds(mids);
  frontier.add_lookahead_staged(generic_task(6, 1.0), 2, l2);

  HeftLaScheduler la;
  const FrontierResult result = la.schedule_window(frontier);
  ASSERT_EQ(result.assignments.size(), 1u);
  ASSERT_EQ(result.reservations.size(), 5u);
  double la_makespan = 0.0;
  for (const PeState& pe : pes) {
    la_makespan = std::max(la_makespan, pe.available_time);
  }
  for (const Reservation& r : result.reservations) {
    EXPECT_GE(r.predicted_start, 0.0);
    EXPECT_GT(r.predicted_finish, r.predicted_start);
    la_makespan = std::max(la_makespan, r.predicted_finish);
  }
  // Whole-window placement sees the successor levels the per-readiness
  // baseline cannot, so its predicted diamond makespan never loses.
  EXPECT_LE(la_makespan, rt_makespan * (1.0 + 1e-9));
}

sim::SimConfig dag_config(const std::string& scheduler) {
  sim::SimConfig config;
  config.platform = platform::zcu102(3, 2, 0);
  config.scheduler = scheduler;
  config.model = sim::ProgrammingModel::kDagBased;
  return config;
}

std::vector<sim::Arrival> pd_arrivals(const sim::SimApp& pd) {
  return {{&pd, 0.0}, {&pd, 1e-3}, {&pd, 2e-3}};
}

TEST(SimLookahead, ReservationsHonoredAndWorkConserved) {
  const sim::SimApp pd = sim::make_pulse_doppler_model();
  const auto arrivals = pd_arrivals(pd);
  const auto rt = sim::simulate(dag_config("HEFT_RT"), arrivals);
  const auto la = sim::simulate(dag_config("HEFT_LA"), arrivals);
  ASSERT_TRUE(rt.ok()) << rt.status().to_string();
  ASSERT_TRUE(la.ok()) << la.status().to_string();
  // Same work either way; lookahead only changes when decisions happen.
  EXPECT_EQ(la->apps, rt->apps);
  EXPECT_EQ(la->tasks_executed, rt->tasks_executed);
  // Reservations fire (successors skip rounds) and none go stale without
  // faults or cost-table swaps.
  EXPECT_GT(la->reservation_hits, 0u);
  EXPECT_EQ(la->reservation_stale, 0u);
  EXPECT_LT(la->sched_rounds, rt->sched_rounds);
  // Classic heuristics never produce reservations.
  EXPECT_EQ(rt->reservation_hits, 0u);
  // The decision batching must not cost throughput.
  EXPECT_LE(la->makespan, rt->makespan * 1.05);
}

TEST(SimLookahead, DepthZeroDisablesReservations) {
  const sim::SimApp pd = sim::make_pulse_doppler_model();
  const auto arrivals = pd_arrivals(pd);
  sim::SimConfig config = dag_config("HEFT_LA");
  config.lookahead_depth = 0;
  const auto metrics = sim::simulate(config, arrivals);
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  EXPECT_EQ(metrics->reservation_hits, 0u);
  EXPECT_EQ(metrics->reservation_stale, 0u);
  const auto full = sim::simulate(dag_config("HEFT_LA"), arrivals);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(metrics->tasks_executed, full->tasks_executed);
}

TEST(SimLookahead, QuarantineInvalidatesPendingReservations) {
  const sim::SimApp pd = sim::make_pulse_doppler_model();
  const auto arrivals = pd_arrivals(pd);
  sim::SimConfig config = dag_config("HEFT_LA");
  // Both FFT accelerators fail hard and quarantine quickly, while
  // reservations targeting them are still pending — the staleness check
  // must return those tasks to the normal ready path, not dispatch them
  // onto a quarantined PE.
  config.faults.per_pe["fft0"] = platform::FaultSpec{.fail_prob = 0.9};
  config.faults.per_pe["fft1"] = platform::FaultSpec{.fail_prob = 0.9};
  config.faults.policy.max_retries = 8;
  config.faults.policy.quarantine_threshold = 2;
  config.faults.policy.probe_period_s = 1.0;  // no reinstatement mid-run
  const auto metrics = sim::simulate(config, arrivals);
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  EXPECT_GT(metrics->pes_quarantined, 0u);
  EXPECT_GT(metrics->reservation_stale, 0u);
  // Stale reservations fall back to normal rounds; the workload still
  // completes (retries may lose tasks, but apps all terminate).
  EXPECT_EQ(metrics->apps, 3u);
}

TEST(SimLookahead, DeterministicAcrossSweepParallelism) {
  // The fig10 scenario's 16-PE point, shrunk for test time. Running the
  // same compiled scenario serially and from four concurrent threads must
  // produce bit-identical summaries — the property that makes the golden
  // band gate independent of cedr_sweep's -j level.
  constexpr const char* kText = R"(
name = "lookahead_determinism"
seed = 7
trials = 2
scheduler = "HEFT_LA"
model = "dag"

[platform]
preset = "zcu102"
cpus = 4
ffts = 2
mmults = 2

[arrival]
process = "periodic"
rate_mbps = 500.0
jitter = 0.2

[[app]]
kind = "pulse_doppler"
instances = 3

[[app]]
kind = "wifi_tx"
instances = 2
)";
  auto scenario = scenario::parse_scenario(kText);
  ASSERT_TRUE(scenario.ok()) << scenario.status().to_string();
  auto compiled = scenario::compile_scenario(*scenario);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  auto serial = scenario::run_scenario(*compiled);
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  EXPECT_GT(serial->summary.at("reservation_hits"), 0.0);

  std::vector<scenario::MetricSummary> concurrent(4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < concurrent.size(); ++t) {
    pool.emplace_back([&, t] {
      auto r = scenario::run_scenario(*compiled);
      if (r.ok()) concurrent[t] = r->summary;
    });
  }
  for (auto& t : pool) t.join();
  for (const scenario::MetricSummary& summary : concurrent) {
    EXPECT_EQ(summary, serial->summary);
  }
}

TEST(RrFastPath, DirectPathMatchesCandidateViewPath) {
  // RR's span overload skips CandidateView construction (the ~1 µs it
  // costs buys nothing for a cost-oblivious policy). Both paths must stay
  // bit-identical: same placements, same cursor walk, same probe charges.
  const auto platform = test_platform();
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 24; ++i) {
    ready.push_back(i % 3 == 0 ? generic_task(i, 1.0) : fft_task(i, 1.0));
  }
  auto direct_pes = pe_states(platform);
  RoundRobinScheduler direct;
  const ScheduleResult direct_result = direct.schedule(ready, direct_pes, ctx);

  auto view_pes = pe_states(platform);
  RoundRobinScheduler via_view;
  thread_local CandidateView view;
  view.reset(ready, view_pes, ctx);
  const ScheduleResult view_result = via_view.schedule(view);

  EXPECT_EQ(direct_result.comparisons, view_result.comparisons);
  ASSERT_EQ(direct_result.assignments.size(), view_result.assignments.size());
  for (std::size_t i = 0; i < direct_result.assignments.size(); ++i) {
    EXPECT_EQ(direct_result.assignments[i].queue_index,
              view_result.assignments[i].queue_index);
    EXPECT_EQ(direct_result.assignments[i].pe_index,
              view_result.assignments[i].pe_index);
  }
  for (std::size_t i = 0; i < direct_pes.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct_pes[i].available_time,
                     view_pes[i].available_time);
  }
}

}  // namespace
}  // namespace cedr::sched
