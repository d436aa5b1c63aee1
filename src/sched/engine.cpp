#include "cedr/sched/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cedr::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

PolicyEngine::PolicyEngine(std::span<const platform::PeDescriptor> pes,
                           const platform::FaultPolicy& policy,
                           const platform::CostModel* base_costs)
    : policy_(policy),
      base_costs_(base_costs),
      health_(pes.size()),
      available_(pes.size(), 0.0) {
  for (std::size_t i = 0; i < pes.size(); ++i) {
    present_classes_ |= 1u << static_cast<unsigned>(pes[i].cls);
    pes_.push_back(PeState{
        .pe_index = i, .cls = pes[i].cls, .speed = pes[i].speed_factor});
  }
}

HealthTransition PolicyEngine::on_success(std::size_t pe) {
  PeHealthState& h = health_[pe];
  h.consecutive_faults = 0;
  h.probe_inflight = false;
  if (!h.quarantined) return HealthTransition::kNone;
  h.quarantined = false;
  ++epoch_;  // reservations were placed without this PE
  ++counters_.pes_reinstated;
  return HealthTransition::kReinstated;
}

FailureOutcome PolicyEngine::on_failure(std::size_t pe, RetryState& retry,
                                        const std::shared_ptr<void>& task,
                                        double now) {
  FailureOutcome out;
  PeHealthState& h = health_[pe];
  ++h.faults_seen;
  if (h.quarantined) {
    h.probe_inflight = false;
    h.probe_at = now + policy_.probe_period_s;
    out.health = HealthTransition::kProbeFailed;
  } else {
    ++h.consecutive_faults;
    if (policy_.quarantine_threshold > 0 &&
        h.consecutive_faults >= policy_.quarantine_threshold) {
      h.quarantined = true;
      h.probe_inflight = false;
      h.probe_at = now + policy_.probe_period_s;
      ++h.quarantines;
      ++epoch_;  // reservations priced this PE as healthy
      ++counters_.pes_quarantined;
      out.health = HealthTransition::kQuarantined;
    }
  }
  // The retry prefers another PE class: a quarantined accelerator's work
  // lands on the CPU implementation through the same dispatch table.
  retry.failed_class_mask |= 1u << static_cast<unsigned>(pes_[pe].cls);
  if (retry.attempt >= policy_.max_retries) {
    ++counters_.tasks_lost;
    return out;
  }
  ++retry.attempt;
  ++counters_.tasks_retried;
  out.retry = true;
  out.backoff_s = policy_.backoff_base_s *
                  std::pow(policy_.backoff_factor,
                           static_cast<double>(retry.attempt - 1));
  deferred_.push_back({.release_at = now + out.backoff_s, .task = task});
  return out;
}

double PolicyEngine::next_release() const noexcept {
  double t = kInf;
  for (const Deferred& d : deferred_) t = std::min(t, d.release_at);
  return t;
}

std::span<PeState> PolicyEngine::round_pes(double now) {
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    const PeHealthState& h = health_[i];
    pes_[i].available_time = std::max(now, available_[i]);
    pes_[i].quarantined =
        h.quarantined && (h.probe_inflight || now + kTimeEps < h.probe_at);
  }
  return pes_;
}

const platform::CostModel* PolicyEngine::cost_view(
    const platform::CostModel* learned) {
  const platform::CostModel* view = learned != nullptr ? learned : base_costs_;
  if (view != last_costs_) {
    if (last_costs_ != nullptr) ++epoch_;  // reservations used the old table
    last_costs_ = view;
  }
  return view;
}

void PolicyEngine::commit_round() {
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    available_[i] = pes_[i].available_time;
  }
}

DispatchGate PolicyEngine::gate(std::size_t pe) {
  PeHealthState& h = health_[pe];
  if (!h.quarantined) return DispatchGate::kDispatch;
  if (h.probe_inflight) return DispatchGate::kHold;
  h.probe_inflight = true;
  return DispatchGate::kProbe;
}

double PolicyEngine::next_probe() const noexcept {
  double t = kInf;
  for (const PeHealthState& h : health_) {
    if (h.quarantined && !h.probe_inflight) t = std::min(t, h.probe_at);
  }
  return t;
}

Frontier& PolicyEngine::open_window(std::span<const ReadyTask> ready,
                                    const ScheduleContext& ctx) {
  frontier_.reset(pes_, ctx);
  for (const ReadyTask& view : ready) frontier_.add_ready(view);
  window_keys_.clear();
  return frontier_;
}

std::size_t PolicyEngine::add_lookahead(std::uint64_t key,
                                        const ReadyTask& view,
                                        std::uint32_t depth,
                                        std::span<const std::size_t> preds) {
  window_keys_.push_back(key);
  return frontier_.add_lookahead(view, depth, preds);
}

std::size_t PolicyEngine::add_lookahead_staged(std::uint64_t key,
                                               const ReadyTask& view,
                                               std::uint32_t depth,
                                               std::uint32_t pred_set) {
  window_keys_.push_back(key);
  return frontier_.add_lookahead_staged(view, depth, pred_set);
}

void PolicyEngine::reserve(std::span<const Reservation> reservations) {
  for (const Reservation& r : reservations) {
    reservations_[window_keys_[r.window_index - frontier_.ready_count()]] = {
        .pe_index = r.pe_index,
        .predicted_finish = r.predicted_finish,
        .epoch = epoch_};
  }
}

bool PolicyEngine::reserved(std::uint64_t key) const {
  const auto it = reservations_.find(key);
  return it != reservations_.end() && it->second.epoch == epoch_;
}

Honoured PolicyEngine::honour(std::uint64_t key) {
  if (reservations_.empty()) return {};
  const auto it = reservations_.find(key);
  if (it == reservations_.end()) return {};
  const ReservationEntry entry = it->second;
  reservations_.erase(it);
  if (entry.epoch != epoch_ || health_[entry.pe_index].quarantined) {
    ++counters_.reservation_stale;
    return {.outcome = Honoured::Outcome::kStale};
  }
  available_[entry.pe_index] =
      std::max(available_[entry.pe_index], entry.predicted_finish);
  ++counters_.reservation_hits;
  return {.outcome = Honoured::Outcome::kHit, .pe_index = entry.pe_index};
}

}  // namespace cedr::sched
