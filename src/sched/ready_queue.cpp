#include "cedr/sched/ready_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "cedr/common/stopwatch.h"

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
// ReadyQueueShards
// ---------------------------------------------------------------------------

std::size_t ReadyQueueShards::shard_for(std::uint32_t effective_mask) noexcept {
  const std::uint32_t mask = effective_mask & kClassBits;
  if (std::has_single_bit(mask)) {
    return static_cast<std::size_t>(std::countr_zero(mask));
  }
  return kMultiShard;
}

std::string_view ReadyQueueShards::shard_name(std::size_t shard) noexcept {
  if (shard < platform::kNumPeClasses) {
    return platform::pe_class_name(static_cast<platform::PeClass>(shard));
  }
  return "multi";
}

std::unique_lock<std::mutex> ReadyQueueShards::acquire(const Shard& s) const {
  std::unique_lock lock(s.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    Stopwatch wait;
    lock.lock();
    if (lock_wait_us_ != nullptr) lock_wait_us_->record(wait.elapsed_us());
  }
  return lock;
}

void ReadyQueueShards::push(const ReadyTask& view,
                            std::shared_ptr<void> payload) {
  const std::size_t shard = shard_for(view.class_mask);
  Entry entry{
      .view = view,
      .payload = std::move(payload),
      .seq = next_seq_.fetch_add(1, std::memory_order_relaxed),
      .shard = static_cast<std::uint8_t>(shard),
  };
  {
    const auto lock = acquire(shards_[shard]);
    shards_[shard].entries.push_back(std::move(entry));
    // Counted inside the critical section: once the entry is visible to a
    // concurrent snapshot/remove cycle, its decrement must find the
    // increment already applied — counting after unlock lets a fast
    // dispatch remove the entry first and wrap total_ below zero.
    depths_[shard].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReadyQueueShards::push_batch(std::span<PushItem> items) {
  if (items.empty()) return;
  // One fetch_add reserves the whole seq range; assigning seq0+i in input
  // order makes the batch merge into snapshots exactly as element-wise
  // pushes would.
  const std::uint64_t seq0 =
      next_seq_.fetch_add(items.size(), std::memory_order_relaxed);
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    bool locked = false;
    std::unique_lock<std::mutex> lock;
    for (std::size_t i = 0; i < items.size(); ++i) {
      PushItem& item = items[i];
      if (shard_for(item.view.class_mask) != shard) continue;
      if (!locked) {
        lock = acquire(shards_[shard]);
        locked = true;
      }
      shards_[shard].entries.push_back(Entry{
          .view = item.view,
          .payload = std::move(item.payload),
          .seq = seq0 + i,
          .shard = static_cast<std::uint8_t>(shard),
      });
      // Same invariant as push(): count while still holding the lock.
      depths_[shard].fetch_add(1, std::memory_order_relaxed);
      total_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ReadyQueueShards::Snapshot ReadyQueueShards::snapshot() const {
  Snapshot snap;
  snap.entries.reserve(size());
  for (const Shard& shard : shards_) {
    const auto lock = acquire(shard);
    snap.entries.insert(snap.entries.end(), shard.entries.begin(),
                        shard.entries.end());
  }
  // Seq order is push order: the merged view is the same global FIFO the
  // legacy single deque presented, which keeps heuristic inputs — and
  // therefore sim golden traces — identical.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  snap.views.reserve(snap.entries.size());
  for (const Entry& e : snap.entries) snap.views.push_back(e.view);
  return snap;
}

void ReadyQueueShards::remove(std::span<const Entry> taken) {
  if (taken.empty()) return;
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    // Collect this shard's doomed seqs first so the lock covers only the
    // erase itself.
    std::vector<std::uint64_t> seqs;
    for (const Entry& e : taken) {
      if (e.shard == shard) seqs.push_back(e.seq);
    }
    if (seqs.empty()) continue;
    std::sort(seqs.begin(), seqs.end());
    {
      const auto lock = acquire(shards_[shard]);
      auto& entries = shards_[shard].entries;
      const auto new_end = std::remove_if(
          entries.begin(), entries.end(), [&seqs](const Entry& e) {
            return std::binary_search(seqs.begin(), seqs.end(), e.seq);
          });
      const auto erased = static_cast<std::size_t>(entries.end() - new_end);
      entries.erase(new_end, entries.end());
      depths_[shard].fetch_sub(erased, std::memory_order_relaxed);
      total_.fetch_sub(erased, std::memory_order_relaxed);
    }
  }
}

std::array<std::size_t, ReadyQueueShards::kShardCount>
ReadyQueueShards::depths() const noexcept {
  std::array<std::size_t, kShardCount> out{};
  for (std::size_t i = 0; i < kShardCount; ++i) {
    out[i] = depths_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace cedr::sched
