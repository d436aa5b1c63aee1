#include "cedr/sched/heuristics.h"

#include <algorithm>

#include "cedr/sched/frontier.h"
#include <cmath>
#include <limits>
#include <numeric>

namespace cedr::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
}  // namespace

double finish_time_on(const ReadyTask& t, const PeState& pe,
                      const ScheduleContext& ctx) noexcept {
  if (pe.quarantined) return kInf;
  if (!t.allowed_on(pe.cls)) return kInf;
  const double exec =
      ctx.costs->estimate(t.kernel, pe.cls, t.problem_size, t.data_bytes) /
      pe.speed;
  if (exec == kInf) return kInf;
  return std::max(ctx.now, pe.available_time) + exec;
}

ScheduleResult RoundRobinScheduler::schedule(CandidateView& view) {
  ScheduleResult result;
  const std::size_t p_count = view.pe_count();
  if (p_count == 0) return result;
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();
  for (const std::size_t q : view.tasks()) {
    // Rotate to the next PE that supports this kernel; RR "tries to use all
    // of the PEs equally" (paper §IV-C) with no cost awareness. The legacy
    // loop probed PE by PE from the cursor, charging one comparison per
    // probe; the eligible list lets us land on the same PE with cursor
    // arithmetic while charging the identical probe count.
    const std::span<const std::size_t> eligible = view.support_eligible(q);
    if (eligible.empty()) {
      // A full fruitless rotation: P probes, cursor back where it started.
      result.comparisons += p_count;
      continue;
    }
    const std::size_t cursor = next_pe_ % p_count;
    // First eligible slot at/after the cursor, wrapping to the front.
    const auto it = std::lower_bound(eligible.begin(), eligible.end(), cursor);
    const std::size_t slot = it != eligible.end() ? *it : eligible.front();
    result.comparisons += (slot + p_count - cursor) % p_count + 1;
    next_pe_ = (slot + 1) % p_count;
    PeState& pe = pes[slot];
    const double exec = view.exec_estimate(q, pe);
    pe.available_time = std::max(ctx.now, pe.available_time) + exec;
    result.assignments.push_back({q, pe.pe_index, exec});
  }
  return result;
}

ScheduleResult RoundRobinScheduler::schedule(std::span<const ReadyTask> ready,
                                             std::span<PeState> pes,
                                             const ScheduleContext& ctx) {
  // Direct probe loop, no CandidateView: RR decides from nominal kernel
  // support only, so the view's cost memoization buys nothing and its
  // construction cost (~1 µs) is pure overhead on an otherwise flat ~10 µs
  // round. Probing slots cursor, cursor+1, ... is exactly the view path's
  // "first eligible slot at/after the cursor, wrapping" with one comparison
  // charged per probe, so both paths stay bit-identical.
  ScheduleResult result;
  const std::size_t p_count = pes.size();
  if (p_count == 0) return result;
  for (std::size_t q = 0; q < ready.size(); ++q) {
    const ReadyTask& t = ready[q];
    const std::size_t cursor = next_pe_ % p_count;
    bool placed = false;
    for (std::size_t probe = 0; probe < p_count; ++probe) {
      const std::size_t slot = (cursor + probe) % p_count;
      PeState& pe = pes[slot];
      if (pe.quarantined || !t.allowed_on(pe.cls) ||
          !platform::pe_class_supports(pe.cls, t.kernel)) {
        continue;
      }
      result.comparisons += probe + 1;
      next_pe_ = (slot + 1) % p_count;
      const double exec =
          ctx.costs->estimate(t.kernel, pe.cls, t.problem_size, t.data_bytes) /
          pe.speed;
      pe.available_time = std::max(ctx.now, pe.available_time) + exec;
      result.assignments.push_back({q, pe.pe_index, exec});
      placed = true;
      break;
    }
    // A full fruitless rotation: P probes, cursor back where it started.
    if (!placed) result.comparisons += p_count;
  }
  return result;
}

ScheduleResult EftScheduler::schedule(CandidateView& view) {
  ScheduleResult result;
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();
  const std::size_t p_count = view.pe_count();
  for (const std::size_t q : view.tasks()) {
    // The legacy scan evaluated every PE; ineligible ones produced +inf and
    // never won. Charging P comparisons while scanning only the eligible
    // list keeps both the count and the winner (strict <, ascending slots)
    // identical.
    result.comparisons += p_count;
    double best = kInf;
    double best_exec = 0.0;
    std::size_t best_slot = kNoSlot;
    for (const std::size_t slot : view.cost_eligible(q)) {
      const PeState& pe = pes[slot];
      const double exec = view.exec_estimate(q, pe);
      const double finish = std::max(ctx.now, pe.available_time) + exec;
      if (finish < best) {
        best = finish;
        best_exec = exec;
        best_slot = slot;
      }
    }
    if (best_slot == kNoSlot) continue;  // no PE supports this kernel
    pes[best_slot].available_time = best;
    result.assignments.push_back({q, pes[best_slot].pe_index, best_exec});
  }
  return result;
}

ScheduleResult EtfScheduler::schedule(CandidateView& view) {
  // ETF semantics: each step assigns the globally earliest-finishing
  // (task, PE) pair among all unassigned tasks. The reference
  // implementation rescans every pair each step — O(Q^2 * P) cost
  // evaluations — which is exactly why ETF's overhead tracks ready-queue
  // size in the paper (Fig. 7). We *report* that naive comparison count
  // (the emulator charges decision time from it) but *compute* the
  // identical assignment with a lazy min-heap: since PE availability only
  // ever increases within a round, a popped entry whose PE state is
  // unchanged is globally minimal, and stale entries are recomputed and
  // reinserted.
  ScheduleResult result;
  const std::span<const std::size_t> tasks = view.tasks();
  const std::size_t q_count = tasks.size();
  const std::size_t p_count = view.pe_count();
  if (q_count == 0 || p_count == 0) return result;
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();

  // Naive-reference cost: P * (Q + Q-1 + ... + 1).
  result.comparisons = static_cast<std::uint64_t>(p_count) * q_count *
                       (q_count + 1) / 2;

  struct Entry {
    double finish;
    double exec;
    std::size_t q;
    std::size_t pe_slot;   ///< index into `pes`
    std::uint64_t stamp;   ///< pes[pe_slot] version when evaluated
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.finish > b.finish;
  };
  std::vector<std::uint64_t> version(pes.size(), 0);

  const auto best_for = [&](std::size_t q) -> Entry {
    Entry e{kInf, 0.0, q, 0, 0};
    for (const std::size_t slot : view.cost_eligible(q)) {
      const PeState& pe = pes[slot];
      const double exec = view.exec_estimate(q, pe);
      const double finish = std::max(ctx.now, pe.available_time) + exec;
      if (finish < e.finish) {
        e.finish = finish;
        e.exec = exec;
        e.pe_slot = slot;
        e.stamp = version[slot];
      }
    }
    return e;
  };

  std::vector<Entry> heap;
  heap.reserve(q_count);
  for (const std::size_t q : tasks) {
    const Entry e = best_for(q);
    if (e.finish < kInf) heap.push_back(e);
  }
  std::make_heap(heap.begin(), heap.end(), later);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Entry e = heap.back();
    heap.pop_back();
    if (e.stamp != version[e.pe_slot]) {
      // Stale: the chosen PE moved since this entry was computed.
      e = best_for(e.q);
      if (e.finish >= kInf) continue;
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), later);
      continue;
    }
    PeState& pe = pes[e.pe_slot];
    pe.available_time = e.finish;
    ++version[e.pe_slot];
    result.assignments.push_back({e.q, pe.pe_index, e.exec});
  }
  return result;
}

ScheduleResult HeftRtScheduler::schedule(CandidateView& view) {
  ScheduleResult result;
  const std::span<const ReadyTask> ready = view.ready();
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();
  const std::size_t p_count = view.pe_count();
  // Order by upward rank (descending): tasks on the critical path first.
  const std::span<const std::size_t> tasks = view.tasks();
  std::vector<std::size_t> order(tasks.begin(), tasks.end());
  std::stable_sort(order.begin(), order.end(),
                   [&ready](std::size_t a, std::size_t b) {
                     return ready[a].rank > ready[b].rank;
                   });
  // Sorting cost: ~Q log2 Q comparisons.
  if (order.size() > 1) {
    result.comparisons += static_cast<std::uint64_t>(
        static_cast<double>(order.size()) *
        std::max(1.0, std::log2(static_cast<double>(order.size()))));
  }
  for (const std::size_t q : order) {
    result.comparisons += p_count;
    double best = kInf;
    double best_exec = 0.0;
    std::size_t best_slot = kNoSlot;
    for (const std::size_t slot : view.cost_eligible(q)) {
      const PeState& pe = pes[slot];
      const double exec = view.exec_estimate(q, pe);
      const double finish = std::max(ctx.now, pe.available_time) + exec;
      if (finish < best) {
        best = finish;
        best_exec = exec;
        best_slot = slot;
      }
    }
    if (best_slot == kNoSlot) continue;
    pes[best_slot].available_time = best;
    result.assignments.push_back({q, pes[best_slot].pe_index, best_exec});
  }
  return result;
}

ScheduleResult MetScheduler::schedule(CandidateView& view) {
  ScheduleResult result;
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();
  const std::size_t p_count = view.pe_count();
  for (const std::size_t q : view.tasks()) {
    result.comparisons += p_count;
    double best = kInf;
    std::size_t best_slot = kNoSlot;
    for (const std::size_t slot : view.cost_eligible(q)) {
      const double exec = view.exec_estimate(q, pes[slot]);
      if (exec < best) {
        best = exec;
        best_slot = slot;
      }
    }
    if (best_slot == kNoSlot) continue;
    // Availability is tracked (so traces stay meaningful) but never read:
    // MET ignores queueing, which is exactly its pathology.
    PeState& pe = pes[best_slot];
    pe.available_time = std::max(ctx.now, pe.available_time) + best;
    result.assignments.push_back({q, pe.pe_index, best});
  }
  return result;
}

ScheduleResult RandomScheduler::schedule(CandidateView& view) {
  ScheduleResult result;
  const std::span<PeState> pes = view.pes();
  const ScheduleContext& ctx = view.ctx();
  const std::size_t p_count = view.pe_count();
  for (const std::size_t q : view.tasks()) {
    result.comparisons += p_count;
    // The eligible list is ascending by slot — the same candidate order the
    // legacy scan built — so the seeded pick lands on the same PE.
    const std::span<const std::size_t> eligible = view.support_eligible(q);
    if (eligible.empty()) continue;
    PeState& pe = pes[eligible[rng_.next_below(eligible.size())]];
    const double exec = view.exec_estimate(q, pe);
    pe.available_time = std::max(ctx.now, pe.available_time) + exec;
    result.assignments.push_back({q, pe.pe_index, exec});
  }
  return result;
}

StatusOr<std::unique_ptr<Scheduler>> make_scheduler(std::string_view name) {
  if (name == "RR") return std::unique_ptr<Scheduler>(new RoundRobinScheduler);
  if (name == "EFT") return std::unique_ptr<Scheduler>(new EftScheduler);
  if (name == "ETF") return std::unique_ptr<Scheduler>(new EtfScheduler);
  if (name == "HEFT_RT") return std::unique_ptr<Scheduler>(new HeftRtScheduler);
  if (name == "HEFT_LA") return std::unique_ptr<Scheduler>(new HeftLaScheduler);
  if (name == "EFT_LA") return std::unique_ptr<Scheduler>(new EftLaScheduler);
  if (name == "MET") return std::unique_ptr<Scheduler>(new MetScheduler);
  if (name == "RANDOM") return std::unique_ptr<Scheduler>(new RandomScheduler);
  return NotFound("unknown scheduler: " + std::string(name));
}

std::span<const std::string_view> scheduler_names() noexcept {
  // The paper's four first, then the frontier-lookahead pair
  // (docs/scheduling.md "Lookahead rounds"), then the ecosystem baselines.
  static constexpr std::string_view kNames[] = {
      "RR", "EFT", "ETF", "HEFT_RT", "HEFT_LA", "EFT_LA", "MET", "RANDOM"};
  return kNames;
}

}  // namespace cedr::sched
