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
  /// Adds `delta` to `name`, creating the counter on first use.
  void add(const std::string& name, std::uint64_t delta = 1);
  /// Current value; 0 for unknown counters.
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  /// Snapshot of all counters.
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;
  [[nodiscard]] json::Value to_json() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters_;
};

}  // namespace cedr::trace
