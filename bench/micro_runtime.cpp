// Microbenchmarks for runtime-side components (google-benchmark):
// scheduler decision latency vs ready-queue size, JSON DAG parsing,
// blocking-queue throughput and end-to-end API call latency through the
// threaded runtime.

#include <benchmark/benchmark.h>

#include "cedr/cedr.h"
#include "cedr/common/queue.h"
#include "cedr/json/json.h"
#include "cedr/runtime/runtime.h"
#include "cedr/sched/scheduler.h"
#include "cedr/task/dag_loader.h"

namespace {

using namespace cedr;

/// Decision latency of one heuristic over a queue of `q` FFT tasks and a
/// 3 CPU + 1 FFT + 1 MMULT PE pool — the host-side cost Fig. 7 models.
void BM_SchedulerDecision(benchmark::State& state,
                          const std::string& name) {
  const auto q = static_cast<std::size_t>(state.range(0));
  auto scheduler = sched::make_scheduler(name);
  if (!scheduler.ok()) {
    state.SkipWithError("unknown scheduler");
    return;
  }
  const platform::PlatformConfig plat = platform::zcu102(3, 1, 1);
  std::vector<sched::ReadyTask> ready(q);
  for (std::size_t i = 0; i < q; ++i) {
    ready[i] = sched::ReadyTask{.task_key = i,
                                .app_instance_id = i % 10,
                                .kernel = platform::KernelId::kFft,
                                .problem_size = 256,
                                .data_bytes = 4096,
                                .rank = static_cast<double>(q - i)};
  }
  for (auto _ : state) {
    std::vector<sched::PeState> pes;
    for (std::size_t i = 0; i < plat.pes.size(); ++i) {
      pes.push_back(sched::PeState{.pe_index = i, .cls = plat.pes[i].cls});
    }
    const sched::ScheduleContext ctx{.now = 0.0, .costs = &plat.costs};
    benchmark::DoNotOptimize((*scheduler)->schedule(ready, pes, ctx));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(q));
}
BENCHMARK_CAPTURE(BM_SchedulerDecision, RR, "RR")->Arg(16)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_SchedulerDecision, EFT, "EFT")->Arg(16)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_SchedulerDecision, ETF, "ETF")->Arg(16)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_SchedulerDecision, HEFT_RT, "HEFT_RT")
    ->Arg(16)->Arg(256)->Arg(1024);

void BM_DagJsonRoundTrip(benchmark::State& state) {
  // A chain of `nodes` 256-point FFTs in the JSON DAG schema.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::string text = R"({"app_name":"bench","tasks":[)";
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::string id = std::to_string(i);
    text += (i == 0 ? "" : ",") + std::string(R"({"id":)") + id +
            R"(,"name":"node)" + id + R"(","kernel":"FFT","size":256,)" +
            R"("predecessors":[)" + (i == 0 ? "" : std::to_string(i - 1)) +
            "]}";
  }
  text += "]}";
  for (auto _ : state) {
    auto doc = json::parse(text);
    benchmark::DoNotOptimize(task::app_from_json(*doc));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(nodes));
}
BENCHMARK(BM_DagJsonRoundTrip)->Arg(64)->Arg(512)->Arg(2048);

void BM_BlockingQueue(benchmark::State& state) {
  BlockingQueue<int> queue;
  for (auto _ : state) {
    queue.push(1);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_BlockingQueue);

/// End-to-end latency of one blocking CEDR_FFT through the threaded
/// runtime: enqueue -> schedule -> worker -> condvar signal (Fig. 4).
void BM_ApiCallRoundTrip(benchmark::State& state) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2);
  rt::Runtime runtime(config);
  if (!runtime.start().ok()) {
    state.SkipWithError("runtime failed to start");
    return;
  }
  std::vector<cedr_cplx> buf(256);
  // Drive the benchmark loop from inside one API application so the
  // thread-binding is in place.
  auto instance = runtime.submit_api("bench", [&state, &buf] {
    for (auto _ : state) {
      benchmark::DoNotOptimize(CEDR_FFT(buf.data(), buf.data(), buf.size()));
    }
  });
  if (!instance.ok()) {
    state.SkipWithError("submit failed");
    return;
  }
  (void)runtime.wait_all(600.0);
  (void)runtime.shutdown();
}
BENCHMARK(BM_ApiCallRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_StandaloneApiCall(benchmark::State& state) {
  std::vector<cedr_cplx> buf(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CEDR_FFT(buf.data(), buf.data(), buf.size()));
  }
}
BENCHMARK(BM_StandaloneApiCall)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
