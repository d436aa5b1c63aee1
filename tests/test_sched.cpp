// Tests for the scheduling heuristics: assignment validity, policy
// behavior on crafted scenarios, complexity accounting, HEFT ranks, the
// sharded ready queue, and rounds restricted to one class's PEs.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "cedr/common/rng.h"

#include "cedr/sched/heuristics.h"
#include "cedr/sched/rank.h"
#include "cedr/sched/ready_queue.h"
#include "cedr/sched/scheduler.h"

namespace cedr::sched {
namespace {

platform::PlatformConfig test_platform() { return platform::zcu102(3, 1, 1); }

std::vector<PeState> pe_states(const platform::PlatformConfig& platform) {
  std::vector<PeState> pes;
  for (std::size_t i = 0; i < platform.pes.size(); ++i) {
    pes.push_back(PeState{.pe_index = i, .cls = platform.pes[i].cls});
  }
  return pes;
}

ReadyTask fft_task(std::uint64_t key, std::size_t size = 256) {
  return ReadyTask{.task_key = key,
                   .kernel = platform::KernelId::kFft,
                   .problem_size = size,
                   .data_bytes = 2 * size * 8};
}

ReadyTask generic_task(std::uint64_t key, std::size_t work) {
  return ReadyTask{.task_key = key,
                   .kernel = platform::KernelId::kGeneric,
                   .problem_size = work};
}

/// Shared validity property: every assignable task assigned exactly once,
/// each to a PE whose class supports its kernel and passes the class mask.
void check_validity(const std::vector<ReadyTask>& ready,
                    const platform::PlatformConfig& platform,
                    const ScheduleResult& result) {
  std::vector<int> seen(ready.size(), 0);
  for (const Assignment& a : result.assignments) {
    ASSERT_LT(a.queue_index, ready.size());
    ASSERT_LT(a.pe_index, platform.pes.size());
    ++seen[a.queue_index];
    const ReadyTask& t = ready[a.queue_index];
    EXPECT_TRUE(platform::pe_class_supports(platform.pes[a.pe_index].cls,
                                            t.kernel));
    EXPECT_TRUE(t.allowed_on(platform.pes[a.pe_index].cls));
  }
  for (const int count : seen) EXPECT_LE(count, 1);
}

class AllSchedulers : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSchedulers, FactoryAndName) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  EXPECT_EQ((*scheduler)->name(), GetParam());
}

TEST_P(AllSchedulers, AssignsEveryAssignableTask) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 40; ++i) ready.push_back(fft_task(i));
  for (std::uint64_t i = 40; i < 50; ++i) ready.push_back(generic_task(i, 1000));
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  EXPECT_EQ(result.assignments.size(), ready.size());
  check_validity(ready, platform, result);
  EXPECT_GT(result.comparisons, 0u);
}

TEST_P(AllSchedulers, EmptyQueueProducesNothing) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule({}, pes, ctx);
  EXPECT_TRUE(result.assignments.empty());
}

TEST_P(AllSchedulers, RespectsClassMask) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  // FFT tasks restricted to CPU only (e.g. >2048-point transforms).
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 12; ++i) {
    ReadyTask t = fft_task(i, 4096);
    t.class_mask = 1u << static_cast<unsigned>(platform::PeClass::kCpu);
    ready.push_back(t);
  }
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  EXPECT_EQ(result.assignments.size(), ready.size());
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(platform.pes[a.pe_index].cls, platform::PeClass::kCpu);
  }
}

TEST_P(AllSchedulers, AssignmentsCarryTheEstimateTheyCharged) {
  // The policy engine books Assignment::estimate_s as the PE's outstanding
  // work, so it must be the execution estimate the placement pushed the
  // PE's availability out by.
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 10; ++i) ready.push_back(fft_task(i));
  for (std::uint64_t i = 10; i < 14; ++i) ready.push_back(generic_task(i, 800));
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  ASSERT_EQ(result.assignments.size(), ready.size());
  std::vector<double> charged(pes.size(), 0.0);
  for (const Assignment& a : result.assignments) {
    const ReadyTask& t = ready[a.queue_index];
    EXPECT_DOUBLE_EQ(a.estimate_s,
                     platform.costs.estimate(t.kernel, pes[a.pe_index].cls,
                                             t.problem_size, t.data_bytes));
    EXPECT_GT(a.estimate_s, 0.0);
    charged[a.pe_index] += a.estimate_s;
  }
  // Every PE started free at now = 0, so its availability is the sum.
  for (std::size_t i = 0; i < pes.size(); ++i) {
    EXPECT_NEAR(pes[i].available_time, charged[i], 1e-12) << "PE " << i;
  }
}

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names;
  for (const std::string_view name : scheduler_names()) {
    names.emplace_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Names, AllSchedulers,
                         ::testing::ValuesIn(all_scheduler_names()),
                         [](const auto& info) { return info.param; });

TEST(SchedulerFactory, RejectsUnknownName) {
  const auto result = make_scheduler("FIFO");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The error must name the offender so a config typo is diagnosable.
  EXPECT_NE(result.status().to_string().find("FIFO"), std::string::npos);
  EXPECT_EQ(scheduler_names().size(), 8u);
}

// ---------------------------------------------------------------------------
// Restricted rounds: schedule() over one class's PE states only
// ---------------------------------------------------------------------------

class ShardViews : public ::testing::TestWithParam<std::string> {};

/// The PE states of one class, keeping platform pe_index values — the way a
/// caller restricts a round to part of the pool.
std::vector<PeState> class_pe_states(const platform::PlatformConfig& platform,
                                     platform::PeClass cls) {
  std::vector<PeState> pes;
  for (const PeState& pe : pe_states(platform)) {
    if (pe.cls == cls) pes.push_back(pe);
  }
  return pes;
}

TEST_P(ShardViews, RestrictedViewOnlyUsesAdmittedClasses) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();  // 3 CPU + 1 FFT + 1 MMULT
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 8; ++i) ready.push_back(fft_task(i));
  for (std::uint64_t i = 8; i < 12; ++i) ready.push_back(generic_task(i, 500));
  auto pes = class_pe_states(platform, platform::PeClass::kFftAccel);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  EXPECT_FALSE(result.assignments.empty());
  for (const Assignment& a : result.assignments) {
    // Only FFT-accelerator PEs may appear, and only FFT tasks may land
    // there (the generic tasks are not eligible on the admitted class).
    EXPECT_EQ(platform.pes[a.pe_index].cls, platform::PeClass::kFftAccel);
    EXPECT_EQ(ready[a.queue_index].kernel, platform::KernelId::kFft);
  }
}

TEST_P(ShardViews, RestrictedViewHonorsTaskClassMask) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  // FFT tasks whose effective mask excludes the accelerator (>2048 points):
  // a round over only the FFT PEs must assign none of them.
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ReadyTask t = fft_task(i, 4096);
    t.class_mask = 1u << static_cast<unsigned>(platform::PeClass::kCpu);
    ready.push_back(t);
  }
  auto pes = class_pe_states(platform, platform::PeClass::kFftAccel);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  EXPECT_TRUE(result.assignments.empty());
}

TEST_P(ShardViews, QuarantinedPesGetNothingOnRestrictedViews) {
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok());
  const auto platform = test_platform();
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 10; ++i) ready.push_back(fft_task(i));
  auto pes = class_pe_states(platform, platform::PeClass::kCpu);
  for (PeState& pe : pes) pe.quarantined = true;
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = (*scheduler)->schedule(ready, pes, ctx);
  EXPECT_TRUE(result.assignments.empty());
  // Over the whole pool the quarantined CPUs stay excluded: every task
  // lands on the FFT accelerator.
  auto all = pe_states(platform);
  for (PeState& pe : all) pe.quarantined = pe.cls == platform::PeClass::kCpu;
  const ScheduleResult full = (*scheduler)->schedule(ready, all, ctx);
  EXPECT_EQ(full.assignments.size(), ready.size());
  for (const Assignment& a : full.assignments) {
    EXPECT_EQ(platform.pes[a.pe_index].cls, platform::PeClass::kFftAccel);
  }
}

INSTANTIATE_TEST_SUITE_P(Names, ShardViews,
                         ::testing::ValuesIn(all_scheduler_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Comparison accounting (Fig. 7's input)
// ---------------------------------------------------------------------------

TEST(Comparisons, EftCountsPePoolPerTask) {
  // EFT's legacy accounting: P evaluations per queued task, assignable or
  // not — the formula fig10's baseline comparison relies on.
  EftScheduler eft;
  const auto platform = test_platform();
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 17; ++i) ready.push_back(fft_task(i));
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = eft.schedule(ready, pes, ctx);
  EXPECT_EQ(result.comparisons, 17u * platform.pes.size());
}

TEST(Comparisons, RoundRobinCountsCursorProbes) {
  RoundRobinScheduler rr;
  // Homogeneous all-CPU platform: every probe hits an eligible PE on the
  // first try, so the cursor arithmetic yields exactly one probe per task.
  platform::PlatformConfig plat = platform::zcu102(3, 0, 0);
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 9; ++i) ready.push_back(fft_task(i));
  auto pes = pe_states(plat);
  const ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const ScheduleResult result = rr.schedule(ready, pes, ctx);
  EXPECT_EQ(result.assignments.size(), 9u);
  EXPECT_EQ(result.comparisons, 9u);
}

TEST(Comparisons, RoundRobinChargesFullRotationForUnassignable) {
  RoundRobinScheduler rr;
  platform::PlatformConfig plat = platform::zcu102(3, 0, 0);
  std::vector<ReadyTask> ready{fft_task(0)};
  ready[0].class_mask = 0;  // eligible nowhere
  auto pes = pe_states(plat);
  const ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const ScheduleResult result = rr.schedule(ready, pes, ctx);
  EXPECT_TRUE(result.assignments.empty());
  // The legacy scan probed every PE before giving up on the task.
  EXPECT_EQ(result.comparisons, plat.pes.size());
}

// ---------------------------------------------------------------------------
// Ready queue
// ---------------------------------------------------------------------------

ReadyTask masked_task(std::uint64_t key, std::uint32_t mask) {
  ReadyTask t = fft_task(key);
  t.class_mask = mask;
  return t;
}

std::vector<std::uint64_t> queued_keys(const ReadyQueue& queue) {
  std::vector<std::uint64_t> keys;
  for (const ReadyTask& view : queue.views()) keys.push_back(view.task_key);
  return keys;
}

TEST(ReadyQueueTest, FifoOrderAcrossClasses) {
  ReadyQueue queue;
  // Interleave pushes across three classes; the views present push order.
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  const std::uint32_t fft =
      1u << static_cast<unsigned>(platform::PeClass::kFftAccel);
  const std::uint32_t masks[] = {cpu, fft, 0xffffffffu, fft, cpu, 0xffffffffu};
  for (std::uint64_t i = 0; i < 6; ++i) {
    queue.push(masked_task(i, masks[i]), std::make_shared<std::uint64_t>(i));
  }
  EXPECT_EQ(queue.size(), 6u);
  ASSERT_EQ(queue.views().size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(queue.views()[i].task_key, i);
    EXPECT_EQ(*std::static_pointer_cast<std::uint64_t>(queue.payload(i)), i);
  }
}

TEST(ReadyQueueShardsTest, RoutesSingleClassMasksToTheirShard) {
  for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
    EXPECT_EQ(ReadyQueue::shard_for(1u << c), c);
  }
  const std::uint32_t cpu_and_fft =
      (1u << static_cast<unsigned>(platform::PeClass::kCpu)) |
      (1u << static_cast<unsigned>(platform::PeClass::kFftAccel));
  EXPECT_EQ(ReadyQueue::shard_for(cpu_and_fft), ReadyQueue::kMultiShard);
  EXPECT_EQ(ReadyQueue::shard_for(0xffffffffu), ReadyQueue::kMultiShard);
  EXPECT_EQ(ReadyQueue::shard_for(0u), ReadyQueue::kMultiShard);
}

TEST(ReadyQueueShardsTest, RemoveTakesOnlySnapshottedEntries) {
  // The emulator's round covers the first entries; pushes while it is
  // charged append behind them and must survive its removal untouched.
  ReadyQueue queue;
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  for (std::uint64_t i = 0; i < 4; ++i) {
    queue.push(masked_task(i, i % 2 == 0 ? cpu : 0xffffffffu),
               std::make_shared<std::uint64_t>(i));
  }
  const std::size_t round[] = {0, 1, 2, 3};
  queue.push(masked_task(4, cpu), std::make_shared<std::uint64_t>(4));
  queue.push(masked_task(5, 0xffffffffu), std::make_shared<std::uint64_t>(5));
  queue.remove(round);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queued_keys(queue), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(*std::static_pointer_cast<std::uint64_t>(queue.payload(0)), 4u);
  EXPECT_EQ(*std::static_pointer_cast<std::uint64_t>(queue.payload(1)), 5u);
  const auto depths = queue.depths();
  EXPECT_EQ(depths[static_cast<std::size_t>(platform::PeClass::kCpu)], 1u);
  EXPECT_EQ(depths[ReadyQueue::kMultiShard], 1u);
}

TEST(ReadyQueueShardsTest, PartialRemovalKeepsFifoOrder) {
  ReadyQueue queue;
  for (std::uint64_t i = 0; i < 6; ++i) {
    queue.push(masked_task(i, 0xffffffffu), std::make_shared<std::uint64_t>(i));
  }
  queue.push(masked_task(6, 0xffffffffu), std::make_shared<std::uint64_t>(6));
  // Dispatch a non-contiguous subset, in no particular order, as a round
  // with a busy PE pool would.
  const std::size_t taken[] = {4, 1};
  queue.remove(taken);
  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queued_keys(queue), (std::vector<std::uint64_t>{0, 2, 3, 5, 6}));
  for (std::size_t i = 0; i < queue.views().size(); ++i) {
    EXPECT_EQ(*std::static_pointer_cast<std::uint64_t>(queue.payload(i)),
              queue.views()[i].task_key);
  }
  const std::size_t all_of_round[] = {0, 1, 2, 3};
  queue.remove(all_of_round);
  EXPECT_EQ(queued_keys(queue), (std::vector<std::uint64_t>{6}));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(ReadyQueueShardsTest, DepthsTrackPerShardOccupancy) {
  ReadyQueue queue;
  const auto cpu_shard = static_cast<std::size_t>(platform::PeClass::kCpu);
  const auto fft_shard =
      static_cast<std::size_t>(platform::PeClass::kFftAccel);
  queue.push(masked_task(0, 1u << cpu_shard), std::make_shared<int>(0));
  queue.push(masked_task(1, 1u << cpu_shard), std::make_shared<int>(1));
  queue.push(masked_task(2, 1u << fft_shard), std::make_shared<int>(2));
  queue.push(masked_task(3, 0xffffffffu), std::make_shared<int>(3));
  auto depths = queue.depths();
  EXPECT_EQ(depths[cpu_shard], 2u);
  EXPECT_EQ(depths[fft_shard], 1u);
  EXPECT_EQ(depths[ReadyQueue::kMultiShard], 1u);
  EXPECT_EQ(queue.size(), 4u);
  const std::size_t taken[] = {0, 3};
  queue.remove(taken);
  depths = queue.depths();
  EXPECT_EQ(depths[cpu_shard], 1u);
  EXPECT_EQ(depths[fft_shard], 1u);
  EXPECT_EQ(depths[ReadyQueue::kMultiShard], 0u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(ReadyQueue::shard_name(cpu_shard), "cpu");
  EXPECT_EQ(ReadyQueue::shard_name(ReadyQueue::kMultiShard), "multi");
}

TEST(ReadyQueueTest, ViewsCarryTheEffectiveMask) {
  // The heuristics read eligibility straight off the views; the queue must
  // hand back exactly the mask it was given at push time.
  ReadyQueue queue;
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  queue.push(masked_task(7, cpu), std::make_shared<int>(0));
  ASSERT_EQ(queue.views().size(), 1u);
  EXPECT_EQ(queue.views()[0].class_mask, cpu);
  EXPECT_EQ(queue.depths()[static_cast<std::size_t>(platform::PeClass::kCpu)],
            1u);
}

TEST(RoundRobin, SpreadsAcrossCompatiblePes) {
  RoundRobinScheduler rr;
  const auto platform = test_platform();  // 3 CPU + 1 FFT + 1 MMULT
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 40; ++i) ready.push_back(fft_task(i));
  auto pes = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult result = rr.schedule(ready, pes, ctx);
  std::vector<int> per_pe(platform.pes.size(), 0);
  for (const Assignment& a : result.assignments) ++per_pe[a.pe_index];
  // 4 compatible PEs (MMULT can't run FFT): 40 tasks -> 10 each.
  EXPECT_EQ(per_pe[0], 10);
  EXPECT_EQ(per_pe[1], 10);
  EXPECT_EQ(per_pe[2], 10);
  EXPECT_EQ(per_pe[3], 10);
  EXPECT_EQ(per_pe[4], 0);
}

TEST(Eft, PicksEarliestFinishingPe) {
  EftScheduler eft;
  platform::PlatformConfig plat = platform::zcu102(2, 0, 0);
  auto pes = pe_states(plat);
  pes[0].available_time = 10.0;  // cpu0 busy far into the future
  pes[1].available_time = 0.0;
  std::vector<ReadyTask> ready{fft_task(0)};
  const ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const ScheduleResult result = eft.schedule(ready, pes, ctx);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].pe_index, 1u);
}

TEST(Eft, BalancesLoadViaAvailability) {
  EftScheduler eft;
  platform::PlatformConfig plat = platform::zcu102(3, 0, 0);
  auto pes = pe_states(plat);
  std::vector<ReadyTask> ready;
  for (std::uint64_t i = 0; i < 9; ++i) ready.push_back(fft_task(i));
  const ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const ScheduleResult result = eft.schedule(ready, pes, ctx);
  std::vector<int> per_pe(plat.pes.size(), 0);
  for (const Assignment& a : result.assignments) ++per_pe[a.pe_index];
  // Identical tasks on identical CPUs must spread evenly.
  EXPECT_EQ(per_pe[0], 3);
  EXPECT_EQ(per_pe[1], 3);
  EXPECT_EQ(per_pe[2], 3);
}

TEST(Etf, MatchesNaiveReferenceImplementation) {
  // The lazy-heap ETF must produce the same assignments as the textbook
  // O(Q^2 P) formulation it models.
  const auto platform = test_platform();
  std::vector<ReadyTask> ready;
  Rng rng(11);
  for (std::uint64_t i = 0; i < 30; ++i) {
    ReadyTask t = fft_task(i, 64u << rng.next_below(4));
    ready.push_back(t);
  }
  EtfScheduler etf;
  auto pes_fast = pe_states(platform);
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  const ScheduleResult fast = etf.schedule(ready, pes_fast, ctx);

  // Naive reference.
  auto pes_ref = pe_states(platform);
  std::vector<std::uint8_t> taken(ready.size(), 0);
  std::vector<Assignment> ref;
  for (std::size_t step = 0; step < ready.size(); ++step) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_q = 0;
    PeState* best_pe = nullptr;
    for (std::size_t q = 0; q < ready.size(); ++q) {
      if (taken[q]) continue;
      for (PeState& pe : pes_ref) {
        const double finish = finish_time_on(ready[q], pe, ctx);
        if (finish < best) {
          best = finish;
          best_q = q;
          best_pe = &pe;
        }
      }
    }
    if (best_pe == nullptr) break;
    taken[best_q] = 1;
    best_pe->available_time = best;
    ref.push_back({best_q, best_pe->pe_index});
  }

  ASSERT_EQ(fast.assignments.size(), ref.size());
  // Finish-time profiles must match exactly (assignment order may permute
  // between equal-cost ties, so compare the resulting PE availability).
  for (std::size_t i = 0; i < pes_fast.size(); ++i) {
    EXPECT_NEAR(pes_fast[i].available_time, pes_ref[i].available_time, 1e-12);
  }
}

TEST(Etf, ReportsQuadraticComparisons) {
  EtfScheduler etf;
  const auto platform = test_platform();
  const ScheduleContext ctx{.now = 0.0, .costs = &platform.costs};
  std::vector<ReadyTask> small, large;
  for (std::uint64_t i = 0; i < 10; ++i) small.push_back(fft_task(i));
  for (std::uint64_t i = 0; i < 100; ++i) large.push_back(fft_task(i));
  auto pes1 = pe_states(platform);
  auto pes2 = pe_states(platform);
  const auto c_small = etf.schedule(small, pes1, ctx).comparisons;
  const auto c_large = etf.schedule(large, pes2, ctx).comparisons;
  // 10x the queue -> ~100x the modeled comparisons (Fig. 7's mechanism).
  EXPECT_NEAR(static_cast<double>(c_large) / static_cast<double>(c_small),
              100.0, 15.0);
  EXPECT_EQ(c_small, 5u * 10u * 11u / 2u);
}

TEST(HeftRt, SchedulesHighRankFirst) {
  HeftRtScheduler heft;
  platform::PlatformConfig plat = platform::zcu102(1, 0, 0);  // single CPU
  auto pes = pe_states(plat);
  std::vector<ReadyTask> ready;
  ReadyTask low = fft_task(0);
  low.rank = 1.0;
  ReadyTask high = fft_task(1);
  high.rank = 10.0;
  ready.push_back(low);
  ready.push_back(high);
  const ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
  const ScheduleResult result = heft.schedule(ready, pes, ctx);
  ASSERT_EQ(result.assignments.size(), 2u);
  // Higher-rank task (queue index 1) must be placed first.
  EXPECT_EQ(result.assignments[0].queue_index, 1u);
  EXPECT_EQ(result.assignments[1].queue_index, 0u);
}

TEST(UpwardRank, MonotoneAlongPaths) {
  // Chain 0 -> 1 -> 2: rank must strictly decrease toward the exit.
  task::TaskGraph g;
  for (task::TaskId id = 0; id < 3; ++id) {
    task::Task t;
    t.id = id;
    t.kernel = platform::KernelId::kFft;
    t.problem_size = 256;
    t.data_bytes = 4096;
    ASSERT_TRUE(g.add_task(std::move(t)).ok());
  }
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(1, 2).ok());
  const auto platform = test_platform();
  const auto ranks = upward_ranks(g, platform);
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_GT(ranks.at(0), ranks.at(1));
  EXPECT_GT(ranks.at(1), ranks.at(2));
  EXPECT_GT(ranks.at(2), 0.0);
  // Exit-node rank equals its own average execution.
  task::Task probe;
  probe.kernel = platform::KernelId::kFft;
  probe.problem_size = 256;
  probe.data_bytes = 4096;
  EXPECT_NEAR(ranks.at(2), average_execution(probe, platform), 1e-12);
}

TEST(UpwardRank, BranchTakesMaxSuccessor) {
  // 0 -> {1 (cheap), 2 (expensive)}: rank(0) = exec(0) + rank(2).
  task::TaskGraph g;
  auto add = [&](task::TaskId id, std::size_t size) {
    task::Task t;
    t.id = id;
    t.kernel = platform::KernelId::kFft;
    t.problem_size = size;
    ASSERT_TRUE(g.add_task(std::move(t)).ok());
  };
  add(0, 256);
  add(1, 64);
  add(2, 2048);
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(0, 2).ok());
  const auto platform = test_platform();
  const auto ranks = upward_ranks(g, platform);
  task::Task probe;
  probe.kernel = platform::KernelId::kFft;
  probe.problem_size = 256;
  EXPECT_NEAR(ranks.at(0), average_execution(probe, platform) + ranks.at(2),
              1e-12);
}

}  // namespace
}  // namespace cedr::sched
