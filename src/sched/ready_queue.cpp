#include "cedr/sched/ready_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace cedr::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kClassBits = (1u << platform::kNumPeClasses) - 1u;
}  // namespace

// ---------------------------------------------------------------------------
// CandidateView
// ---------------------------------------------------------------------------

void CandidateView::reset(std::span<const ReadyTask> ready,
                          std::span<PeState> pes, const ScheduleContext& ctx) {
  ready_ = ready;
  pes_ = pes;
  ctx_ = &ctx;
  slotted_classes_ = 0;
  for (auto& slots : class_slots_) slots.clear();
  kinds_.clear();
  kind_of_.clear();
  for (std::size_t m = 0; m < kMaskSpace; ++m) {
    if (merged_built_[m]) {
      merged_[m].clear();
      merged_built_[m] = false;
    }
  }

  // --- PE side: per-class non-quarantined slot lists. ---------------------
  for (std::size_t slot = 0; slot < pes_.size(); ++slot) {
    const PeState& pe = pes_[slot];
    const auto cls = static_cast<std::size_t>(pe.cls);
    if (pe.quarantined) continue;
    class_slots_[cls].push_back(slot);
    slotted_classes_ |= 1u << cls;
  }

  // --- Task side: support masks only. Support depends on the kernel id
  // alone, so a fixed per-kernel cache answers every task; kind
  // identification (for the cost side) is deferred to kind_costs(), so
  // support-only heuristics (RR, RANDOM) only touch the cost model for
  // kinds they actually assign.
  support_mask_.assign(ready_.size(), 0);
  kind_of_.assign(ready_.size(), kNoKind);
  constexpr std::uint8_t kUnknown = 0xff;  // masks only use the low 4 bits
  std::array<std::uint8_t, platform::kNumKernelIds> kernel_support;
  kernel_support.fill(kUnknown);
  for (std::size_t q = 0; q < ready_.size(); ++q) {
    const ReadyTask& t = ready_[q];
    const auto kid = static_cast<std::size_t>(t.kernel);
    if (kernel_support[kid] == kUnknown) {
      std::uint8_t support = 0;
      for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
        if (platform::pe_class_supports(static_cast<platform::PeClass>(c),
                                        t.kernel)) {
          support |= 1u << c;
        }
      }
      kernel_support[kid] = support;
    }
    support_mask_[q] = static_cast<std::uint8_t>(kernel_support[kid] &
                                                 t.class_mask & kClassBits);
  }
  // Every task is admitted — the legacy formulas count even unassignable
  // ones — so tasks() is just 0..Q-1, served from a monotonically grown
  // iota table with no per-round stores.
  while (iota_.size() < ready_.size()) iota_.push_back(iota_.size());
  task_span_ = std::span<const std::size_t>(iota_.data(), ready_.size());
}

std::uint32_t CandidateView::identify_kind(std::size_t q) const {
  const ReadyTask& t = ready_[q];
  std::size_t k = 0;
  for (; k < kinds_.size(); ++k) {
    const Kind& kind = kinds_[k];
    if (kind.kernel == t.kernel && kind.size == t.problem_size &&
        kind.bytes == t.data_bytes) {
      break;
    }
  }
  if (k == kinds_.size()) {
    Kind kind;
    kind.kernel = t.kernel;
    kind.size = t.problem_size;
    kind.bytes = t.data_bytes;
    kinds_.push_back(kind);
  }
  kind_of_[q] = static_cast<std::uint32_t>(k);
  return kind_of_[q];
}

void CandidateView::compute_kind_costs(Kind& kind) const {
  kind.costs_done = true;
  for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
    const double est = ctx_->costs->estimate(
        kind.kernel, static_cast<platform::PeClass>(c), kind.size, kind.bytes);
    kind.est[c] = est;
    if (est < kInf) kind.finite_mask |= 1u << c;
  }
}

std::span<const std::size_t> CandidateView::merged_slots(
    std::uint32_t class_mask) const {
  class_mask &= slotted_classes_;
  if (class_mask == 0) return {};
  if (std::has_single_bit(class_mask)) {
    return class_slots_[std::countr_zero(class_mask)];
  }
  if (!merged_built_[class_mask]) {
    // Merge the (already ascending) class lists; with <= kNumPeClasses
    // lists a repeated two-way merge into a reused scratch is plenty.
    std::vector<std::size_t>& out = merged_[class_mask];
    for (std::size_t c = 0; c < platform::kNumPeClasses; ++c) {
      if (((class_mask >> c) & 1u) == 0) continue;
      const std::vector<std::size_t>& add = class_slots_[c];
      if (out.empty()) {
        out.assign(add.begin(), add.end());
      } else {
        merge_scratch_.clear();
        merge_scratch_.reserve(out.size() + add.size());
        std::merge(out.begin(), out.end(), add.begin(), add.end(),
                   std::back_inserter(merge_scratch_));
        std::swap(out, merge_scratch_);
      }
    }
    merged_built_[class_mask] = true;
  }
  return merged_[class_mask];
}

// ---------------------------------------------------------------------------
// ReadyQueue
// ---------------------------------------------------------------------------

std::size_t ReadyQueue::shard_for(std::uint32_t effective_mask) noexcept {
  const std::uint32_t mask = effective_mask & kClassBits;
  if (std::has_single_bit(mask)) {
    return static_cast<std::size_t>(std::countr_zero(mask));
  }
  return kMultiShard;
}

std::string_view ReadyQueue::shard_name(std::size_t shard) noexcept {
  if (shard < platform::kNumPeClasses) {
    return platform::pe_class_name(static_cast<platform::PeClass>(shard));
  }
  return "multi";
}

void ReadyQueue::push(const ReadyTask& view, std::shared_ptr<void> payload) {
  views_.push_back(view);
  payloads_.push_back(std::move(payload));
  add(depths_[shard_for(view.class_mask)], 1);
  add(total_, 1);
}

void ReadyQueue::remove(std::span<const std::size_t> indices) {
  if (indices.empty()) return;
  doomed_.assign(views_.size(), 0);
  for (const std::size_t i : indices) doomed_[i] = 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (doomed_[i] != 0) {
      add(depths_[shard_for(views_[i].class_mask)], -1);
      continue;
    }
    if (kept != i) {
      views_[kept] = views_[i];
      payloads_[kept] = std::move(payloads_[i]);
    }
    ++kept;
  }
  views_.resize(kept);
  payloads_.resize(kept);
  total_.store(kept, std::memory_order_relaxed);
}

std::array<std::size_t, ReadyQueue::kShardCount> ReadyQueue::depths()
    const noexcept {
  std::array<std::size_t, kShardCount> out{};
  for (std::size_t i = 0; i < kShardCount; ++i) {
    out[i] = depths_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace cedr::sched
