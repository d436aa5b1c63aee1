#pragma once
// Named performance counters.
//
// The paper's runtime can enable PAPI hardware counters. Real PAPI needs
// kernel perf support that is unavailable here, so CounterSet counts
// runtime events instead, which is what every experiment in the paper
// consumes. The per-task execution record lives in the span stream
// (cedr/obs/span.h); trace/report.h summarizes it offline.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cedr/json/json.h"

namespace cedr::trace {

/// Named monotonic counters (the PAPI stand-in). Counter creation is
/// serialized; bumping an existing counter is a relaxed atomic add.
class CounterSet {
 public:
  /// Adds `delta` to `name`, creating the counter on first use. Takes the
  /// set's mutex and a map lookup per call; hot paths use handle().
  void add(const std::string& name, std::uint64_t delta = 1);
  /// The counter `name`, created (at 0) on first use. The pointer stays
  /// valid for the set's lifetime, so a caller can cache it and bump with
  /// a relaxed fetch_add, taking no lock.
  [[nodiscard]] std::atomic<std::uint64_t>* handle(const std::string& name);
  /// Current value; 0 for unknown counters.
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  /// Snapshot of all counters.
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;
  [[nodiscard]] json::Value to_json() const;
  /// Zeroes every counter. Counters are never removed, so handles stay
  /// valid.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters_;
};

/// One counter of a CounterSet bumped on a hot path: resolved through
/// CounterSet::handle on first use, then one relaxed atomic add per bump.
/// Like add(), the counter appears in the set only once it is first bumped.
class CachedCounter {
 public:
  explicit CachedCounter(const char* name) noexcept : name_(name) {}

  void add(CounterSet& set, std::uint64_t delta = 1) {
    std::atomic<std::uint64_t>* counter = slot_.load(std::memory_order_acquire);
    if (counter == nullptr) {
      // Racing first bumps resolve to the same pointer.
      counter = set.handle(name_);
      slot_.store(counter, std::memory_order_release);
    }
    counter->fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  const char* name_;
  std::atomic<std::atomic<std::uint64_t>*> slot_{nullptr};
};

}  // namespace cedr::trace
