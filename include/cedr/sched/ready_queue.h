#pragma once
// The ready queue (docs/scheduling.md "Ready queue").
//
// One FIFO of ready tasks, owned by whoever runs the scheduling round: the
// threaded runtime's round owner (publishers hand their tasks to the
// owner's inbox, never to the queue) or the single-threaded emulator. It
// takes no lock. Views and payloads sit in two parallel vectors, so the
// heuristics read the views span in place, and removal keeps push order.
//
// The only cross-thread reads are the depth counters: per-class depths
// ("cpu", "fft", ..., and "multi" for tasks whose effective mask names
// several classes or none) and the total. They are written by the owner
// alone and loaded relaxed by stats readers.
//
// Payloads are opaque shared_ptrs (the runtime stores InFlightTask, the
// emulator its SimTask) so the component lives in sched/ without depending
// on either caller.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cedr/sched/scheduler.h"

namespace cedr::sched {

class ReadyQueue {
 public:
  /// Depth index of multi-class / unconstrained tasks.
  static constexpr std::size_t kMultiShard = platform::kNumPeClasses;
  static constexpr std::size_t kShardCount = platform::kNumPeClasses + 1;

  /// Which depth counter an effective class mask counts under: single-class
  /// masks under that class, everything else under kMultiShard.
  [[nodiscard]] static std::size_t shard_for(
      std::uint32_t effective_mask) noexcept;

  /// Appends one task. `view.class_mask` must already be the effective
  /// mask (implementation classes, narrowed by failed classes when the
  /// narrowed mask can still be placed): the heuristics read it as-is.
  void push(const ReadyTask& view, std::shared_ptr<void> payload);

  /// Every queued task's scheduler view, in push order.
  [[nodiscard]] std::span<const ReadyTask> views() const noexcept {
    return views_;
  }
  /// The payload queued with views()[i].
  [[nodiscard]] const std::shared_ptr<void>& payload(std::size_t i) const {
    return payloads_[i];
  }

  /// Removes the entries at `indices` (positions in views(), any order);
  /// the rest keep their push order. Entries appended after the indices
  /// were taken are untouched.
  void remove(std::span<const std::size_t> indices);

  /// Total queued tasks; any thread.
  [[nodiscard]] std::size_t size() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  /// Per-class depths; any thread. Index by PeClass, kMultiShard last.
  [[nodiscard]] std::array<std::size_t, kShardCount> depths() const noexcept;

  /// Display name of one depth counter ("cpu", "fft", ..., "multi").
  [[nodiscard]] static std::string_view shard_name(std::size_t shard) noexcept;

 private:
  /// Single-writer counter update: the owner is the only writer, so a
  /// relaxed load and store suffice.
  static void add(std::atomic<std::size_t>& counter, std::ptrdiff_t delta) {
    counter.store(counter.load(std::memory_order_relaxed) +
                      static_cast<std::size_t>(delta),
                  std::memory_order_relaxed);
  }

  std::vector<ReadyTask> views_;
  std::vector<std::shared_ptr<void>> payloads_;
  std::vector<std::uint8_t> doomed_;  ///< remove() scratch
  std::atomic<std::size_t> total_{0};
  std::array<std::atomic<std::size_t>, kShardCount> depths_{};
};

}  // namespace cedr::sched
