// Tests for executable JSON DAGs (buffer binding + standard-module impls)
// and for profiling-driven cost tables.
#include <gtest/gtest.h>

#include "cedr/apps/executable_dag.h"
#include "cedr/cedr.h"
#include "cedr/kernels/fft.h"
#include "cedr/platform/profiling.h"
#include "cedr/ipc/ipc.h"
#include "cedr/runtime/runtime.h"

namespace cedr {
namespace {

constexpr const char* kFilterDag = R"({
  "app_name": "fd_filter",
  "buffers": {
    "signal":   {"elems": 256, "kind": "cfloat"},
    "mask":     {"elems": 256, "kind": "cfloat"},
    "filtered": {"elems": 256, "kind": "cfloat"}
  },
  "tasks": [
    {"id": 0, "name": "fwd", "kernel": "FFT",
     "args": {"in": "signal", "out": "signal"}, "predecessors": []},
    {"id": 1, "name": "apply", "kernel": "ZIP",
     "args": {"a": "signal", "b": "mask", "out": "filtered", "op": 0},
     "predecessors": [0]},
    {"id": 2, "name": "back", "kernel": "IFFT",
     "args": {"in": "filtered", "out": "filtered"}, "predecessors": [1]},
    {"id": 3, "name": "post", "kernel": "GENERIC",
     "args": {"work_ns": 5000}, "predecessors": [2]}
  ]
})";

TEST(BufferPool, NamedTypedBuffers) {
  apps::BufferPool pool;
  ASSERT_TRUE(pool.add_cfloat("a", 16).ok());
  ASSERT_TRUE(pool.add_float("b", 8).ok());
  EXPECT_EQ(pool.size(), 2u);
  ASSERT_NE(pool.cfloat_buffer("a"), nullptr);
  EXPECT_EQ(pool.cfloat_buffer("a")->size(), 16u);
  EXPECT_EQ(pool.cfloat_buffer("b"), nullptr);  // wrong kind
  EXPECT_NE(pool.float_buffer("b"), nullptr);
  EXPECT_EQ(pool.float_buffer("missing"), nullptr);
  EXPECT_EQ(pool.add_cfloat("a", 4).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.add_float("a", 4).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(pool.add_cfloat("", 4).ok());
  EXPECT_FALSE(pool.add_cfloat("zero", 0).ok());
}

TEST(ExecutableDag, InstantiatesAndRunsEndToEnd) {
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto dag = apps::instantiate_dag(*doc);
  ASSERT_TRUE(dag.ok()) << dag.status().to_string();
  EXPECT_EQ(dag->descriptor->graph.size(), 4u);
  EXPECT_EQ(dag->buffers->size(), 3u);

  // Seed: an impulse; mask = all-pass. Filtered output must equal input.
  auto* signal = dag->buffers->cfloat_buffer("signal");
  auto* mask = dag->buffers->cfloat_buffer("mask");
  ASSERT_NE(signal, nullptr);
  (*signal)[3] = cedr_cplx(1.0f, 0.0f);
  const std::vector<cfloat> original = *signal;
  for (auto& v : *mask) v = cedr_cplx(1.0f, 0.0f);

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime.submit_dag(dag->descriptor).ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, 4u);

  const auto* filtered = dag->buffers->cfloat_buffer("filtered");
  ASSERT_NE(filtered, nullptr);
  EXPECT_LT(max_abs_diff(*filtered, original), 1e-4f);
}

TEST(ExecutableDag, BuffersOutliveTheReturnedStruct) {
  // Only the descriptor is retained (as submit_dag would); task impls must
  // keep the pool alive through their captured shared_ptr.
  std::shared_ptr<const task::AppDescriptor> descriptor;
  {
    auto doc = json::parse(kFilterDag);
    auto dag = apps::instantiate_dag(*doc);
    ASSERT_TRUE(dag.ok());
    auto* signal = dag->buffers->cfloat_buffer("signal");
    (*signal)[0] = cedr_cplx(2.0f, 0.0f);
    auto* mask = dag->buffers->cfloat_buffer("mask");
    for (auto& v : *mask) v = cedr_cplx(1.0f, 0.0f);
    descriptor = dag->descriptor;
  }  // ExecutableDag (and its pool handle) destroyed here
  rt::RuntimeConfig config;
  config.platform = platform::host(1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime.submit_dag(descriptor).ok());
  EXPECT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
}

struct BadDagCase {
  const char* name;
  const char* text;
};

// Print a case as its name, so the test names that gtest lists and ctest
// registers do not embed the addresses of the string literals.
void PrintTo(const BadDagCase& c, std::ostream* os) { *os << c.name; }

class ExecutableDagErrors : public ::testing::TestWithParam<BadDagCase> {};

TEST_P(ExecutableDagErrors, Rejected) {
  auto doc = json::parse(GetParam().text);
  ASSERT_TRUE(doc.ok()) << "fixture must be valid JSON";
  EXPECT_FALSE(apps::instantiate_dag(*doc).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ExecutableDagErrors,
    ::testing::Values(
        BadDagCase{"missing_buffer",
                   R"({"app_name":"x","tasks":[{"id":0,"kernel":"FFT",
                       "args":{"in":"nope","out":"nope"}}]})"},
        BadDagCase{"missing_arg",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":64,"kind":"cfloat"}},
                       "tasks":[{"id":0,"kernel":"FFT","args":{"in":"a"}}]})"},
        BadDagCase{"non_pow2_fft",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":100,"kind":"cfloat"}},
                       "tasks":[{"id":0,"kernel":"FFT",
                                 "args":{"in":"a","out":"a"}}]})"},
        BadDagCase{"zip_size_mismatch",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":64,"kind":"cfloat"},
                                  "b":{"elems":32,"kind":"cfloat"}},
                       "tasks":[{"id":0,"kernel":"ZIP",
                                 "args":{"a":"a","b":"b","out":"a"}}]})"},
        BadDagCase{"zip_bad_op",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":64,"kind":"cfloat"}},
                       "tasks":[{"id":0,"kernel":"ZIP",
                                 "args":{"a":"a","b":"a","out":"a",
                                         "op":9}}]})"},
        BadDagCase{"mmult_missing_dims",
                   R"({"app_name":"x",
                       "buffers":{"m":{"elems":4,"kind":"float"}},
                       "tasks":[{"id":0,"kernel":"MMULT",
                                 "args":{"a":"m","b":"m","c":"m"}}]})"},
        BadDagCase{"wrong_buffer_kind",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":64,"kind":"float"}},
                       "tasks":[{"id":0,"kernel":"FFT",
                                 "args":{"in":"a","out":"a"}}]})"},
        BadDagCase{"unknown_kind",
                   R"({"app_name":"x",
                       "buffers":{"a":{"elems":64,"kind":"double"}},
                       "tasks":[]})"}),
    [](const auto& info) { return info.param.name; });

TEST(ExecutableDag, MmultBindingComputesProduct) {
  constexpr const char* kDag = R"({
    "app_name": "gemm",
    "buffers": {
      "a": {"elems": 4, "kind": "float"},
      "b": {"elems": 4, "kind": "float"},
      "c": {"elems": 4, "kind": "float"}
    },
    "tasks": [
      {"id": 0, "kernel": "MMULT",
       "args": {"a": "a", "b": "b", "c": "c", "m": 2, "k": 2, "n": 2}}
    ]
  })";
  auto doc = json::parse(kDag);
  auto dag = apps::instantiate_dag(*doc);
  ASSERT_TRUE(dag.ok());
  *dag->buffers->float_buffer("a") = {1, 2, 3, 4};
  *dag->buffers->float_buffer("b") = {5, 6, 7, 8};
  rt::RuntimeConfig config;
  config.platform = platform::host(1, 0, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime.submit_dag(dag->descriptor).ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  const auto& c = *dag->buffers->float_buffer("c");
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(ExecutableDag, LoadsFromDiskAndSubmitsOverIpc) {
  const std::string path = ::testing::TempDir() + "/cedr_exec_dag.json";
  {
    auto doc = json::parse(kFilterDag);
    ASSERT_TRUE(json::write_file(path, *doc).ok());
  }
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ipc::IpcServer server(runtime, ::testing::TempDir() + "/cedr_dag.sock");
  ASSERT_TRUE(server.start().ok());
  ipc::IpcClient client(server.socket_path());
  auto instance = client.submit_dag(path);
  ASSERT_TRUE(instance.ok()) << instance.status().to_string();
  ASSERT_TRUE(client.wait_all().ok());
  server.stop();
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, 4u);
  EXPECT_FALSE(client.submit_dag("/nonexistent.json").ok());
}

// ---- Profiling-driven cost tables -------------------------------------------

TEST(Profiling, FitsTablesFromRuntimeTrace) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto instance = runtime.submit_api("calibration", [] {
    for (int round = 0; round < 5; ++round) {
      for (const std::size_t n : {128u, 512u, 2048u}) {
        std::vector<cedr_cplx> buf(n);
        (void)CEDR_FFT(buf.data(), buf.data(), n);
      }
    }
  });
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  ASSERT_EQ(runtime.tracer().dropped(), 0u);
  auto profiled =
      platform::profile_costs(runtime.tracer().snapshot(), config.platform);
  ASSERT_TRUE(profiled.ok());
  EXPECT_EQ(profiled->tasks_used, 15u);
  ASSERT_GE(profiled->entries.size(), 1u);
  const auto& entry = profiled->entries[0];
  EXPECT_EQ(entry.kernel, platform::KernelId::kFft);
  EXPECT_EQ(entry.cls, platform::PeClass::kCpu);
  EXPECT_EQ(entry.samples, 15u);
  EXPECT_GT(entry.mean_service_s, 0.0);
  // Fitted estimates are sane: positive and increasing in size.
  const double small = profiled->costs.estimate(
      platform::KernelId::kFft, platform::PeClass::kCpu, 128, 0);
  const double large = profiled->costs.estimate(
      platform::KernelId::kFft, platform::PeClass::kCpu, 2048, 0);
  EXPECT_GT(small, 0.0);
  EXPECT_GE(large, small);
  // Unprofiled pairings keep their preset coefficients.
  EXPECT_DOUBLE_EQ(profiled->costs.estimate(platform::KernelId::kMmult,
                                            platform::PeClass::kCpu, 64, 0),
                   config.platform.costs.estimate(platform::KernelId::kMmult,
                                                  platform::PeClass::kCpu, 64,
                                                  0));
}

/// A worker execute span for `kernel` at `size` on PE `pe_index`.
void record_execution(obs::SpanTracer& tracer, const char* kernel,
                      std::size_t size, std::size_t pe_index, double start,
                      double end) {
  tracer.complete_span(obs::Category::kWorker, kernel, 0, 1 + pe_index, start,
                       end - start, kernel, static_cast<double>(size),
                       obs::kAttemptArg, 0.0);
}

TEST(Profiling, SyntheticAffineRecovery) {
  // Exact affine service times must be recovered (within fp noise).
  obs::SpanTracer tracer(64);
  const double fixed = 5e-6;
  const double per_point = 2e-8;
  double t = 0.0;
  for (const std::size_t n : {100u, 200u, 400u, 800u}) {
    for (int rep = 0; rep < 2; ++rep) {
      const double service = fixed + per_point * static_cast<double>(n);
      record_execution(tracer, "ZIP", n, /*cpu0*/ 0, t, t + service);
      t += service;
    }
  }
  ASSERT_EQ(tracer.dropped(), 0u);
  const auto platform = platform::host(1);
  auto profiled = platform::profile_costs(tracer.snapshot(), platform);
  ASSERT_TRUE(profiled.ok());
  ASSERT_EQ(profiled->entries.size(), 1u);
  EXPECT_NEAR(profiled->entries[0].fitted.fixed_s, fixed, 1e-9);
  EXPECT_NEAR(profiled->entries[0].fitted.per_point_s, per_point, 1e-12);
}

TEST(Profiling, SkipsUnknownRecordsAndValidates) {
  obs::SpanTracer tracer(64);
  record_execution(tracer, "NOPE", 0, /*cpu0*/ 0, 0, 1);
  record_execution(tracer, "FFT", 0, /*a PE host(1) lacks*/ 9, 0, 1);
  ASSERT_EQ(tracer.dropped(), 0u);
  const auto platform = platform::host(1);
  EXPECT_EQ(platform::profile_costs(tracer.snapshot(), platform)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);  // nothing usable

  EXPECT_FALSE(platform::profile_costs({}, platform).ok());
}

}  // namespace
}  // namespace cedr
