// Tests for the PAPI-substitute counters.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cedr/trace/trace.h"

namespace cedr::trace {
namespace {

TEST(CounterSet, AddGetSnapshot) {
  CounterSet counters;
  EXPECT_EQ(counters.get("missing"), 0u);
  counters.add("tasks");
  counters.add("tasks", 4);
  counters.add("apps");
  EXPECT_EQ(counters.get("tasks"), 5u);
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("apps"), 1u);
  const json::Value doc = counters.to_json();
  EXPECT_EQ(doc.get_int("tasks", 0), 5);
  counters.clear();
  EXPECT_EQ(counters.get("tasks"), 0u);
}

TEST(CounterSet, HandlesShareTheNamedCounterAndSurviveClear) {
  CounterSet counters;
  std::atomic<std::uint64_t>* hits = counters.handle("hits");
  EXPECT_EQ(counters.handle("hits"), hits);
  EXPECT_EQ(counters.snapshot().at("hits"), 0u);
  hits->fetch_add(3);
  counters.add("hits", 2);
  EXPECT_EQ(counters.get("hits"), 5u);
  counters.clear();
  EXPECT_EQ(counters.get("hits"), 0u);
  hits->fetch_add(1);
  EXPECT_EQ(counters.get("hits"), 1u);

  // A CachedCounter appears only once first bumped, like add().
  CachedCounter lazy("lazy");
  EXPECT_EQ(counters.snapshot().count("lazy"), 0u);
  lazy.add(counters);
  lazy.add(counters, 4);
  EXPECT_EQ(counters.get("lazy"), 5u);
}

TEST(CounterSet, ConcurrentIncrementsAreExact) {
  CounterSet counters;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters] {
      for (int i = 0; i < kPerThread; ++i) counters.add("hits");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counters.get("hits"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(CounterSet, HammerMixedNamesWithConcurrentReaders) {
  // Writers race on counter *creation* (first add of each name) while
  // readers snapshot continuously; every increment must survive.
  CounterSet counters;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  constexpr int kNames = 8;
  std::atomic<bool> done{false};
  std::thread reader([&counters, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)counters.snapshot();
      (void)counters.get("name0");
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counters, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counters.add("name" + std::to_string((t + i) % kNames));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters.snapshot()) total += value;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace cedr::trace
