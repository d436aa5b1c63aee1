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
// Sharded ready queue
// ---------------------------------------------------------------------------

ReadyTask masked_task(std::uint64_t key, std::uint32_t mask) {
  ReadyTask t = fft_task(key);
  t.class_mask = mask;
  return t;
}

TEST(ReadyQueueShardsTest, RoutesSingleClassMasksToTheirShard) {
  for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
    EXPECT_EQ(ReadyQueueShards::shard_for(1u << c), c);
  }
  const std::uint32_t cpu_and_fft =
      (1u << static_cast<unsigned>(platform::PeClass::kCpu)) |
      (1u << static_cast<unsigned>(platform::PeClass::kFftAccel));
  EXPECT_EQ(ReadyQueueShards::shard_for(cpu_and_fft),
            ReadyQueueShards::kMultiShard);
  EXPECT_EQ(ReadyQueueShards::shard_for(0xffffffffu),
            ReadyQueueShards::kMultiShard);
  EXPECT_EQ(ReadyQueueShards::shard_for(0u), ReadyQueueShards::kMultiShard);
}

TEST(ReadyQueueShardsTest, SnapshotMergesInGlobalFifoOrder) {
  ReadyQueueShards queue;
  // Interleave pushes across three shards; the snapshot must present the
  // global push order, exactly as the legacy single deque did.
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  const std::uint32_t fft =
      1u << static_cast<unsigned>(platform::PeClass::kFftAccel);
  const std::uint32_t masks[] = {cpu, fft, 0xffffffffu, fft, cpu, 0xffffffffu};
  for (std::uint64_t i = 0; i < 6; ++i) {
    queue.push(masked_task(i, masks[i]), std::make_shared<std::uint64_t>(i));
  }
  EXPECT_EQ(queue.size(), 6u);
  const ReadyQueueShards::Snapshot snap = queue.snapshot();
  ASSERT_EQ(snap.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(snap.views[i].task_key, i);
    EXPECT_EQ(snap.entries[i].view.task_key, i);
    EXPECT_EQ(*std::static_pointer_cast<std::uint64_t>(snap.entries[i].payload),
              i);
  }
}

TEST(ReadyQueueShardsTest, RemoveTakesOnlySnapshottedEntries) {
  ReadyQueueShards queue;
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  for (std::uint64_t i = 0; i < 4; ++i) {
    queue.push(masked_task(i, i % 2 == 0 ? cpu : 0xffffffffu),
               std::make_shared<std::uint64_t>(i));
  }
  const ReadyQueueShards::Snapshot snap = queue.snapshot();
  // Entries pushed after the snapshot must survive removal untouched.
  queue.push(masked_task(4, cpu), std::make_shared<std::uint64_t>(4));
  queue.push(masked_task(5, 0xffffffffu), std::make_shared<std::uint64_t>(5));
  queue.remove(snap.entries);
  EXPECT_EQ(queue.size(), 2u);
  const ReadyQueueShards::Snapshot rest = queue.snapshot();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest.views[0].task_key, 4u);
  EXPECT_EQ(rest.views[1].task_key, 5u);
}

TEST(ReadyQueueShardsTest, PartialRemovalKeepsFifoOrder) {
  ReadyQueueShards queue;
  for (std::uint64_t i = 0; i < 6; ++i) {
    queue.push(masked_task(i, 0xffffffffu),
               std::make_shared<std::uint64_t>(i));
  }
  const ReadyQueueShards::Snapshot snap = queue.snapshot();
  // Dispatch a non-contiguous subset, as a round with a busy PE pool would.
  const ReadyQueueShards::Entry taken[] = {snap.entries[1], snap.entries[4]};
  queue.remove(taken);
  const ReadyQueueShards::Snapshot rest = queue.snapshot();
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest.views[0].task_key, 0u);
  EXPECT_EQ(rest.views[1].task_key, 2u);
  EXPECT_EQ(rest.views[2].task_key, 3u);
  EXPECT_EQ(rest.views[3].task_key, 5u);
}

TEST(ReadyQueueShardsTest, DepthsTrackPerShardOccupancy) {
  ReadyQueueShards queue;
  const auto cpu_shard = static_cast<std::size_t>(platform::PeClass::kCpu);
  const auto fft_shard =
      static_cast<std::size_t>(platform::PeClass::kFftAccel);
  queue.push(masked_task(0, 1u << cpu_shard), std::make_shared<int>(0));
  queue.push(masked_task(1, 1u << cpu_shard), std::make_shared<int>(1));
  queue.push(masked_task(2, 1u << fft_shard), std::make_shared<int>(2));
  queue.push(masked_task(3, 0xffffffffu), std::make_shared<int>(3));
  const auto depths = queue.depths();
  EXPECT_EQ(depths[cpu_shard], 2u);
  EXPECT_EQ(depths[fft_shard], 1u);
  EXPECT_EQ(depths[ReadyQueueShards::kMultiShard], 1u);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(ReadyQueueShards::shard_name(cpu_shard), "cpu");
  EXPECT_EQ(ReadyQueueShards::shard_name(ReadyQueueShards::kMultiShard),
            "multi");
}

TEST(ReadyQueueShardsTest, SnapshotViewsCarryTheEffectiveMask) {
  // The heuristics read eligibility straight off the snapshot views; the
  // queue must hand back exactly the mask it was given at push time.
  ReadyQueueShards queue;
  const std::uint32_t cpu =
      1u << static_cast<unsigned>(platform::PeClass::kCpu);
  queue.push(masked_task(7, cpu), std::make_shared<int>(0));
  const ReadyQueueShards::Snapshot snap = queue.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.views[0].class_mask, cpu);
  EXPECT_EQ(snap.entries[0].shard,
            static_cast<std::uint8_t>(platform::PeClass::kCpu));
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
