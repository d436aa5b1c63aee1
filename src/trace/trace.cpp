#include "cedr/trace/trace.h"

namespace cedr::trace {

void CounterSet::add(const std::string& name, std::uint64_t delta) {
  handle(name)->fetch_add(delta, std::memory_order_relaxed);
}

std::atomic<std::uint64_t>* CounterSet::handle(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  return slot.get();
}

std::uint64_t CounterSet::get(const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->load(std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t> CounterSet::snapshot() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    out.emplace(name, counter->load(std::memory_order_relaxed));
  }
  return out;
}

json::Value CounterSet::to_json() const {
  json::Object out;
  for (const auto& [name, value] : snapshot()) {
    out.emplace(name, json::Value(value));
  }
  return out;
}

void CounterSet::clear() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->store(0, std::memory_order_relaxed);
  }
}

}  // namespace cedr::trace
