#include "cedr/sched/frontier.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cedr::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Earliest (start, finish) for an `exec`-long task on a PE whose committed
/// work occupies `timeline` (disjoint intervals, ascending) on top of a base
/// availability, starting no earlier than `est`. Insertion-based: a gap
/// between two committed intervals is usable if the task fits entirely.
std::pair<double, double> earliest_gap(
    const std::vector<std::pair<double, double>>& timeline, double base,
    double est, double exec) {
  const double lo = std::max(base, est);
  // Steady-state fast path: most placements land past the committed tail
  // (ranks descend and successor ESTs grow), so the append case is the
  // common one and skips the search entirely.
  if (timeline.empty() || lo >= timeline.back().second) {
    return {lo, lo + exec};
  }
  // Any interval ending at or before the earliest feasible start can never
  // bound a usable gap (the candidate start is already past it), so skip the
  // prefix with a binary search; interval ends are ascending because the
  // intervals are disjoint and sorted by start.
  auto it = std::lower_bound(
      timeline.begin(), timeline.end(), lo,
      [](const std::pair<double, double>& iv, double v) {
        return iv.second <= v;
      });
  double prev_end = base;
  if (it != timeline.begin()) {
    prev_end = std::max(prev_end, std::prev(it)->second);
  }
  for (; it != timeline.end(); ++it) {
    const auto& [ivl_start, ivl_end] = *it;
    const double start = std::max(est, prev_end);
    if (start + exec <= ivl_start) return {start, start + exec};
    prev_end = std::max(prev_end, ivl_end);
  }
  const double start = std::max(est, prev_end);
  return {start, start + exec};
}

void insert_interval(std::vector<std::pair<double, double>>& timeline,
                     double start, double finish) {
  const auto it = std::lower_bound(
      timeline.begin(), timeline.end(), start,
      [](const std::pair<double, double>& iv, double s) { return iv.first < s; });
  timeline.insert(it, {start, finish});
}
}  // namespace

void Frontier::reset(std::span<PeState> pes, const ScheduleContext& ctx) {
  views_.clear();
  depth_.clear();
  pred_range_.clear();
  pred_set_.clear();
  staged_.clear();
  set_members_.clear();
  pred_pool_.clear();
  ready_count_ = 0;
  pes_ = pes;
  ctx_ = &ctx;
}

void Frontier::add_ready(const ReadyTask& view) {
  views_.push_back(view);
  depth_.push_back(0);
  pred_range_.emplace_back(static_cast<std::uint32_t>(pred_pool_.size()),
                           static_cast<std::uint32_t>(pred_pool_.size()));
  pred_set_.push_back(kNoPredSet);
  ready_count_ = views_.size();
}

std::size_t Frontier::add_lookahead(const ReadyTask& view, std::uint32_t depth,
                                    std::span<const std::size_t> preds) {
  const std::size_t index = views_.size();
  views_.push_back(view);
  depth_.push_back(depth);
  const auto begin = static_cast<std::uint32_t>(pred_pool_.size());
  pred_pool_.insert(pred_pool_.end(), preds.begin(), preds.end());
  pred_range_.emplace_back(begin, static_cast<std::uint32_t>(pred_pool_.size()));
  pred_set_.push_back(kNoPredSet);
  return index;
}

std::uint32_t Frontier::stage_preds(std::span<const std::size_t> preds) {
  const auto begin = static_cast<std::uint32_t>(pred_pool_.size());
  pred_pool_.insert(pred_pool_.end(), preds.begin(), preds.end());
  staged_.emplace_back(begin, static_cast<std::uint32_t>(pred_pool_.size()));
  set_members_.emplace_back(0, 0);
  return static_cast<std::uint32_t>(staged_.size() - 1);
}

std::size_t Frontier::add_lookahead_staged(const ReadyTask& view,
                                           std::uint32_t depth,
                                           std::uint32_t pred_set) {
  const std::size_t index = views_.size();
  views_.push_back(view);
  depth_.push_back(depth);
  pred_range_.push_back(staged_[pred_set]);
  pred_set_.push_back(pred_set);
  auto& [first, count] = set_members_[pred_set];
  if (count == 0) first = static_cast<std::uint32_t>(index);
  ++count;
  return index;
}

FrontierResult HeftLaScheduler::schedule_window(Frontier& frontier) {
  FrontierResult result;
  const std::span<PeState> pes = frontier.pes();
  const ScheduleContext& ctx = frontier.ctx();
  const std::size_t w = frontier.size();
  const std::size_t p_count = pes.size();
  if (w == 0 || p_count == 0) return result;

  thread_local CandidateView view;
  view.reset(frontier.views(), pes, ctx);
  const std::span<const ReadyTask> tasks = frontier.views();

  // Upward-rank order, critical path first. rank(pred) >= rank(succ) by
  // construction of the upward rank, and depth breaks the ties (a lookahead
  // task's depth strictly exceeds every in-window predecessor's), so a
  // predecessor always places before its successors and EST propagation
  // below sees final predecessor finishes.
  // Pack (rank desc, depth asc, index asc) into contiguous 16-byte keys:
  // the sort then runs over sequential memory instead of chasing 64-byte
  // ReadyTask structs, and the index tiebreak makes the order total (the
  // exact order stable_sort would produce). One key stands for a whole
  // staged set: its members share rank and depth and occupy consecutive
  // window indices, so expanding the representative in place reproduces
  // the full sort's order exactly while the sort itself shrinks from W
  // keys to ready count + set count — the win that keeps worst-round
  // decision time flat as barrier levels widen.
  sort_keys_.clear();
  const auto push_key = [&](std::size_t i) {
    sort_keys_.push_back(
        {-tasks[i].rank,
         (static_cast<std::uint64_t>(frontier.depth(i)) << 32) |
             static_cast<std::uint32_t>(i)});
  };
  for (std::size_t i = 0; i < frontier.ready_count(); ++i) push_key(i);
  for (std::size_t i = frontier.ready_count(); i < w; ++i) {
    const std::uint32_t set = frontier.pred_set(i);
    if (set == Frontier::kNoPredSet || frontier.set_members(set).first == i) {
      push_key(i);
    }
  }
  std::sort(sort_keys_.begin(), sort_keys_.end(),
            [](const SortKey& a, const SortKey& b) {
              if (a.neg_rank != b.neg_rank) return a.neg_rank < b.neg_rank;
              return a.depth_index < b.depth_index;
            });
  order_.clear();
  order_.reserve(w);
  for (const SortKey& key : sort_keys_) {
    const auto idx = static_cast<std::uint32_t>(key.depth_index);
    const std::uint32_t set =
        idx >= frontier.ready_count() ? frontier.pred_set(idx)
                                      : Frontier::kNoPredSet;
    if (set == Frontier::kNoPredSet) {
      order_.push_back(idx);
      continue;
    }
    const auto [first, count] = frontier.set_members(set);
    for (std::uint32_t j = 0; j < count; ++j) order_.push_back(first + j);
  }
  // Same accounting shape as HEFT_RT: ~W log2 W sort + P per placement.
  if (w > 1) {
    result.comparisons += static_cast<std::uint64_t>(
        static_cast<double>(w) *
        std::max(1.0, std::log2(static_cast<double>(w))));
  }

  // Ready tasks place against this running availability — the same scalar
  // HEFT_RT tracks. Lookahead tasks gap-pack into the reservation timeline
  // on top of it; keeping the timeline reservation-only preserves the
  // disjoint/ascending-ends invariant earliest_gap's binary search needs.
  timelines_.resize(p_count);
  for (auto& timeline : timelines_) timeline.clear();
  avail_.resize(p_count);
  tail_.assign(p_count, -kInf);
  inv_speed_.resize(p_count);
  cls_of_.resize(p_count);
  for (std::size_t slot = 0; slot < p_count; ++slot) {
    avail_[slot] = std::max(ctx.now, pes[slot].available_time);
    // Reciprocal multiply instead of a divide per candidate; flat class
    // array instead of a strided PeState load. The window loop below is
    // the only consumer, so the ulp-level difference from exec_estimate's
    // division never leaks into another heuristic's decisions.
    inv_speed_[slot] = 1.0 / pes[slot].speed;
    cls_of_[slot] = static_cast<std::size_t>(pes[slot].cls);
  }
  ready_finish_.assign(p_count, 0.0);
  finish_.assign(w, kInf);
  set_est_.assign(frontier.pred_set_count(), -1.0);
  cand_start_.resize(p_count);
  cand_fin_.resize(p_count);

  const auto place_candidate = [&](std::size_t slot, double est, double exec) {
    // Flat-array tail check before touching the timeline vector: barrier
    // levels stack contiguously, so the append case dominates and the
    // per-slot gap search is the exception, not the rule.
    const double lo = std::max(est, avail_[slot]);
    if (lo >= tail_[slot]) {
      cand_start_[slot] = lo;
      cand_fin_[slot] = lo + exec;
      return;
    }
    const auto [start, fin] =
        earliest_gap(timelines_[slot], avail_[slot], est, exec);
    cand_start_[slot] = start;
    cand_fin_[slot] = fin;
  };

  for (std::size_t oi = 0; oi < w; ++oi) {
    const std::size_t q = order_[oi];
    if (q < frontier.ready_count()) {
      result.comparisons += p_count;
      // Ready: earliest finish against running availability, identical in
      // shape and cost to HEFT_RT. These dispatch into worker FIFOs now, so
      // sub-slot packing could not change when they actually run.
      const auto& est_c = view.class_estimates(q);
      double best_finish = kInf;
      double best_exec = 0.0;
      std::size_t best_slot = kNoSlot;
      for (const std::size_t slot : view.cost_eligible(q)) {
        const double exec = est_c[cls_of_[slot]] * inv_speed_[slot];
        const double fin = avail_[slot] + exec;
        if (fin < best_finish) {
          best_finish = fin;
          best_exec = exec;
          best_slot = slot;
        }
      }
      if (best_slot != kNoSlot) {
        avail_[best_slot] = best_finish;
        finish_[q] = best_finish;
        result.assignments.push_back(
            {q, pes[best_slot].pe_index, best_exec});
        ready_finish_[best_slot] = best_finish;
      }
      continue;
    }
    // Earliest start: all in-window predecessors must have finished. An
    // unplaced predecessor (nothing eligible this round) contributes
    // nothing — its successor's reservation is advisory timing anyway;
    // dispatch only honors it after the real completions arrive. Tasks of
    // one barrier level share a staged predecessor set, and every
    // predecessor places before any successor (rank order with depth
    // tiebreak), so the scan result is final and memoizable per set.
    double est = ctx.now;
    const std::uint32_t set = frontier.pred_set(q);
    if (set != Frontier::kNoPredSet && set_est_[set] >= 0.0) {
      est = set_est_[set];
    } else {
      for (const std::size_t pred : frontier.preds(q)) {
        if (finish_[pred] < kInf) est = std::max(est, finish_[pred]);
      }
      if (set != Frontier::kNoPredSet) set_est_[set] = est;
    }
    // Tasks of one barrier level are interchangeable: same staged set (so
    // the same EST, kind and class mask) and consecutive in rank order (one
    // rank, one depth, consecutive window indices). Place the whole block in
    // one tight pass over flat arrays — the kind lookup, eligibility span
    // and per-slot candidate search are hoisted out and paid once per level,
    // not once per task.
    std::size_t block = 1;
    if (set != Frontier::kNoPredSet) {
      while (oi + block < w) {
        const std::size_t nq = order_[oi + block];
        if (nq < frontier.ready_count() || frontier.pred_set(nq) != set) break;
        ++block;
      }
    }
    result.comparisons += p_count * block;
    const auto& est_c = view.class_estimates(q);
    const std::span<const std::size_t> eligible = view.cost_eligible(q);
    for (const std::size_t slot : eligible) {
      place_candidate(slot, est, est_c[cls_of_[slot]] * inv_speed_[slot]);
    }
    for (std::size_t r = 0; r < block; ++r) {
      const std::size_t bq = order_[oi + r];
      double best_finish = kInf;
      std::size_t best_slot = kNoSlot;
      for (const std::size_t slot : eligible) {
        if (cand_fin_[slot] < best_finish) {
          best_finish = cand_fin_[slot];
          best_slot = slot;
        }
      }
      if (best_slot == kNoSlot) break;  // nothing eligible for this kind
      const double best_start = cand_start_[best_slot];
      finish_[bq] = best_finish;
      result.reservations.push_back(
          {bq, pes[best_slot].pe_index, best_start, best_finish});
      // Only the chosen slot's timeline changed; refresh its candidate for
      // the block's next task. An append placement (at or past the tail)
      // needs no search at all: it extends the tail, and the next identical
      // task can only chain right behind it — the region before est stays
      // unusable, so no new gap opens.
      if (best_start >= tail_[best_slot]) {
        timelines_[best_slot].push_back({best_start, best_finish});
        tail_[best_slot] = best_finish;
        cand_start_[best_slot] = best_finish;
        cand_fin_[best_slot] = best_finish + (best_finish - best_start);
      } else {
        insert_interval(timelines_[best_slot], best_start, best_finish);
        place_candidate(best_slot, est,
                        est_c[cls_of_[best_slot]] * inv_speed_[best_slot]);
      }
    }
    oi += block - 1;
  }
  // Only dispatched (ready) placements advance PE availability; a reserved
  // task advances it when dispatch honors the reservation, and not at all
  // if the reservation goes stale first.
  for (std::size_t slot = 0; slot < p_count; ++slot) {
    if (ready_finish_[slot] > 0.0) {
      pes[slot].available_time =
          std::max(pes[slot].available_time, ready_finish_[slot]);
    }
  }
  return result;
}

FrontierResult EftLaScheduler::schedule_window(Frontier& frontier) {
  FrontierResult result;
  const std::span<PeState> pes = frontier.pes();
  const ScheduleContext& ctx = frontier.ctx();
  const std::size_t w = frontier.size();
  const std::size_t p_count = pes.size();
  if (w == 0 || p_count == 0) return result;

  thread_local CandidateView view;
  view.reset(frontier.views(), pes, ctx);

  avail_.resize(p_count);
  inv_speed_.resize(p_count);
  cls_of_.resize(p_count);
  for (std::size_t slot = 0; slot < p_count; ++slot) {
    avail_[slot] = std::max(ctx.now, pes[slot].available_time);
    // Same flat-array / reciprocal-multiply hoist as HEFT_LA above.
    inv_speed_[slot] = 1.0 / pes[slot].speed;
    cls_of_[slot] = static_cast<std::size_t>(pes[slot].cls);
  }
  ready_finish_.assign(p_count, 0.0);
  finish_.assign(w, kInf);
  set_est_.assign(frontier.pred_set_count(), -1.0);

  // Window FIFO order: ready tasks in queue order, then lookahead tasks in
  // discovery order — the frontier builder adds predecessors before their
  // successors, so EST propagation sees committed predecessor finishes.
  for (std::size_t q = 0; q < w; ++q) {
    result.comparisons += p_count;  // same per-task accounting as EFT
    // Predecessors all precede their successors in window order, so the
    // earliest-start scan is final when first needed and memoizable for a
    // barrier level sharing one staged predecessor set.
    double est = ctx.now;
    const std::uint32_t set = frontier.pred_set(q);
    if (set != Frontier::kNoPredSet && set_est_[set] >= 0.0) {
      est = set_est_[set];
    } else {
      for (const std::size_t pred : frontier.preds(q)) {
        if (finish_[pred] < kInf) est = std::max(est, finish_[pred]);
      }
      if (set != Frontier::kNoPredSet) set_est_[set] = est;
    }
    const auto& est_c = view.class_estimates(q);
    double best_finish = kInf;
    double best_start = est;
    double best_exec = 0.0;
    std::size_t best_slot = kNoSlot;
    for (const std::size_t slot : view.cost_eligible(q)) {
      const double start = std::max(est, avail_[slot]);
      const double exec = est_c[cls_of_[slot]] * inv_speed_[slot];
      const double fin = start + exec;
      if (fin < best_finish) {
        best_finish = fin;
        best_start = start;
        best_exec = exec;
        best_slot = slot;
      }
    }
    if (best_slot == kNoSlot) continue;
    avail_[best_slot] = best_finish;
    finish_[q] = best_finish;
    if (q < frontier.ready_count()) {
      result.assignments.push_back({q, pes[best_slot].pe_index, best_exec});
      ready_finish_[best_slot] = std::max(ready_finish_[best_slot], best_finish);
    } else {
      result.reservations.push_back(
          {q, pes[best_slot].pe_index, best_start, best_finish});
    }
  }
  for (std::size_t slot = 0; slot < p_count; ++slot) {
    if (ready_finish_[slot] > 0.0) {
      pes[slot].available_time =
          std::max(pes[slot].available_time, ready_finish_[slot]);
    }
  }
  return result;
}

}  // namespace cedr::sched
