// Tests for executable JSON DAGs: compiled templates, their buffer pools and
// the content-hash template cache (apps/dag_template.h), plus the
// submission plumbing they feed: DagSubmission validation, batched
// submission and slab-recycled app instances (docs/runtime_lifecycle.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cedr/apps/dag_template.h"
#include "cedr/apps/executable_dag.h"
#include "cedr/cedr.h"
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

/// A small valid single-task document whose text varies with `work_ns`, for
/// filling caches with distinct entries.
std::string generic_dag(std::size_t work_ns) {
  return R"({"app_name":"gen","tasks":[{"id":0,"kernel":"GENERIC",
             "args":{"work_ns":)" +
         std::to_string(work_ns) + R"(}}]})";
}

TEST(TemplateCache, SameTextSharesOneTemplate) {
  apps::TemplateCache cache(4);
  auto first = cache.get_or_compile(kFilterDag);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  auto second = cache.get_or_compile(kFilterDag);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // literally the same compilation
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TemplateCache, MutatedDocumentCompilesFresh) {
  apps::TemplateCache cache(4);
  auto original = cache.get_or_compile(generic_dag(1000));
  auto mutated = cache.get_or_compile(generic_dag(2000));
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(mutated.ok());
  EXPECT_NE(original->get(), mutated->get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TemplateCache, CollidingHashesAreDistinguishedByText) {
  // Degenerate hash: every document collides. The full-text compare on the
  // collision chain must still keep the entries apart.
  apps::TemplateCache cache(4, [](std::string_view) -> std::uint64_t {
    return 42;
  });
  const std::string doc_a = generic_dag(1000);
  const std::string doc_b = generic_dag(2000);
  auto a1 = cache.get_or_compile(doc_a);
  auto b1 = cache.get_or_compile(doc_b);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(b1.ok());
  EXPECT_NE(a1->get(), b1->get());
  // Both stay retrievable as hits despite sharing one hash bucket.
  auto a2 = cache.get_or_compile(doc_a);
  auto b2 = cache.get_or_compile(doc_b);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(a1->get(), a2->get());
  EXPECT_EQ(b1->get(), b2->get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(TemplateCache, LruEvictionStaysWithinCapacity) {
  apps::TemplateCache cache(2);
  ASSERT_TRUE(cache.get_or_compile(generic_dag(1)).ok());
  ASSERT_TRUE(cache.get_or_compile(generic_dag(2)).ok());
  // Touch doc 1 so doc 2 becomes least recently used.
  ASSERT_TRUE(cache.get_or_compile(generic_dag(1)).ok());
  ASSERT_TRUE(cache.get_or_compile(generic_dag(3)).ok());  // evicts doc 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Doc 1 survived (hit); doc 2 must recompile (miss).
  const auto before = cache.stats();
  ASSERT_TRUE(cache.get_or_compile(generic_dag(1)).ok());
  ASSERT_TRUE(cache.get_or_compile(generic_dag(2)).ok());
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TemplateCache, CompileFailuresAreNotCached) {
  apps::TemplateCache cache(4);
  constexpr const char* kBad = R"({"app_name":"x","tasks":[{"id":0,
      "kernel":"FFT","args":{"in":"nope","out":"nope"}}]})";
  EXPECT_FALSE(cache.get_or_compile(kBad).ok());
  EXPECT_FALSE(cache.get_or_compile("not json at all").ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DagTemplate, InstancesShareSkeletonButNotBuffers) {
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().to_string();
  apps::DagTemplate::Instance a = (*tmpl)->instantiate();
  apps::DagTemplate::Instance b = (*tmpl)->instantiate();
  EXPECT_EQ(a.descriptor.get(), b.descriptor.get());  // shared skeleton
  EXPECT_NE(a.buffers.get(), b.buffers.get());        // private buffers
  EXPECT_EQ(a.impls.size(), a.descriptor->graph.size());
  // Writing one instance's buffers must not leak into the other.
  (*a.buffers->cfloat_buffer("signal"))[0] = cedr_cplx(9.0f, 0.0f);
  EXPECT_EQ((*b.buffers->cfloat_buffer("signal"))[0].real(), 0.0f);
}

TEST(DagTemplate, InstanceRunsEndToEndWithCorrectBuffers) {
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok());
  apps::DagTemplate::Instance inst = (*tmpl)->instantiate();

  auto* signal = inst.buffers->cfloat_buffer("signal");
  auto* mask = inst.buffers->cfloat_buffer("mask");
  ASSERT_NE(signal, nullptr);
  (*signal)[3] = cedr_cplx(1.0f, 0.0f);
  const std::vector<cfloat> original = *signal;
  for (auto& v : *mask) v = cedr_cplx(1.0f, 0.0f);

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  auto id = runtime.submit_dag(rt::DagSubmission{
      .descriptor = inst.descriptor, .impls = std::move(inst.impls)});
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());

  const auto* filtered = inst.buffers->cfloat_buffer("filtered");
  ASSERT_NE(filtered, nullptr);
  EXPECT_LT(max_abs_diff(*filtered, original), 1e-4f);
}

TEST(DagSubmission, BatchReportsPerElementStatus) {
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok());

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());

  std::vector<rt::DagSubmission> batch;
  apps::DagTemplate::Instance good1 = (*tmpl)->instantiate();
  batch.push_back(rt::DagSubmission{.descriptor = good1.descriptor,
                                    .impls = std::move(good1.impls)});
  batch.push_back(rt::DagSubmission{});  // null descriptor: must fail alone
  apps::DagTemplate::Instance good2 = (*tmpl)->instantiate();
  batch.push_back(rt::DagSubmission{.descriptor = good2.descriptor,
                                    .impls = std::move(good2.impls)});

  auto results = runtime.submit_dag_batch(std::move(batch));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_NE(*results[0], *results[2]);  // distinct instance ids
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, 8u);  // two 4-task DAGs ran
}

TEST(DagSubmission, RecycledInstancesNeverResurrectStaleState) {
  // Sequential waves of submissions drive app instances (and their slab-
  // allocated task blocks) through the recycle pool repeatedly. Every wave
  // seeds a distinct impulse position and amplitude: a recycled instance
  // carrying any stale plan, impl, or counter state would corrupt the
  // filtered output or hang wait_all.
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok());

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());

  constexpr std::size_t kWaves = 8;
  constexpr std::size_t kPerWave = 4;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<apps::DagTemplate::Instance> instances;
    std::vector<rt::DagSubmission> batch;
    for (std::size_t i = 0; i < kPerWave; ++i) {
      apps::DagTemplate::Instance inst = (*tmpl)->instantiate();
      const std::size_t pos = (wave * kPerWave + i) % 256;
      const float amp = static_cast<float>(wave + i + 1);
      (*inst.buffers->cfloat_buffer("signal"))[pos] = cedr_cplx(amp, 0.0f);
      for (auto& v : *inst.buffers->cfloat_buffer("mask")) {
        v = cedr_cplx(1.0f, 0.0f);
      }
      batch.push_back(rt::DagSubmission{.descriptor = inst.descriptor,
                                        .impls = std::move(inst.impls)});
      instances.push_back(std::move(inst));
    }
    for (const auto& result : runtime.submit_dag_batch(std::move(batch))) {
      ASSERT_TRUE(result.ok()) << result.status().to_string();
    }
    ASSERT_TRUE(runtime.wait_all(30.0).ok());  // forces recycling each wave
    for (std::size_t i = 0; i < kPerWave; ++i) {
      const std::size_t pos = (wave * kPerWave + i) % 256;
      const float amp = static_cast<float>(wave + i + 1);
      const auto& filtered = *instances[i].buffers->cfloat_buffer("filtered");
      for (std::size_t e = 0; e < filtered.size(); ++e) {
        const float expect = e == pos ? amp : 0.0f;
        ASSERT_NEAR(filtered[e].real(), expect, 1e-3f)
            << "wave " << wave << " instance " << i << " elem " << e;
        ASSERT_NEAR(filtered[e].imag(), 0.0f, 1e-3f);
      }
    }
  }
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, kWaves * kPerWave * 4);
}

TEST(DagSubmission, RejectsMissingOrMisSizedImpls) {
  // A submission carries exactly one impl array per task; anything else is
  // refused on both entry points, and a batch refuses only the bad ones.
  auto doc = json::parse(kFilterDag);
  ASSERT_TRUE(doc.ok());
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok());
  apps::DagTemplate::Instance inst = (*tmpl)->instantiate();
  const auto with_impls = [&](std::size_t count) {
    std::vector<api::ImplArray> impls(inst.impls.begin(), inst.impls.end());
    impls.resize(count);
    return rt::DagSubmission{.descriptor = inst.descriptor,
                             .impls = std::move(impls)};
  };
  const std::size_t n = inst.impls.size();

  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  EXPECT_EQ(runtime.submit_dag(with_impls(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime.submit_dag(with_impls(n - 1)).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<rt::DagSubmission> batch;
  batch.push_back(with_impls(0));
  batch.push_back(with_impls(n + 1));
  batch.push_back(with_impls(n));
  const auto results = runtime.submit_dag_batch(std::move(batch));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok()) << results[2].status().to_string();
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.completed_apps(), 1u);
  EXPECT_EQ(runtime.stats().tasks_executed, n);
}

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

TEST(DagTemplate, BuffersOutliveTheInstance) {
  // Only the submission is retained: the template, the Instance and its
  // pool handle are gone before the runtime runs the tasks, whose impls
  // must keep the pool alive through their captured shared_ptr.
  rt::DagSubmission submission;
  {
    auto doc = json::parse(kFilterDag);
    auto tmpl = apps::DagTemplate::compile(*doc);
    ASSERT_TRUE(tmpl.ok());
    apps::DagTemplate::Instance inst = (*tmpl)->instantiate();
    (*inst.buffers->cfloat_buffer("signal"))[0] = cedr_cplx(2.0f, 0.0f);
    for (auto& v : *inst.buffers->cfloat_buffer("mask")) {
      v = cedr_cplx(1.0f, 0.0f);
    }
    submission = {.descriptor = inst.descriptor,
                  .impls = std::move(inst.impls)};
  }
  rt::RuntimeConfig config;
  config.platform = platform::host(1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime.submit_dag(std::move(submission)).ok());
  EXPECT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  EXPECT_EQ(runtime.stats().tasks_executed, 4u);
}

struct BadDagCase {
  const char* name;
  const char* text;
};

// Print a case as its name, so the test names that gtest lists and ctest
// registers do not embed the addresses of the string literals.
void PrintTo(const BadDagCase& c, std::ostream* os) { *os << c.name; }

class DagTemplateErrors : public ::testing::TestWithParam<BadDagCase> {};

TEST_P(DagTemplateErrors, Rejected) {
  auto doc = json::parse(GetParam().text);
  ASSERT_TRUE(doc.ok()) << "fixture must be valid JSON";
  EXPECT_FALSE(apps::DagTemplate::compile(*doc).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DagTemplateErrors,
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

TEST(DagTemplate, MmultBindingComputesProduct) {
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
  auto tmpl = apps::DagTemplate::compile(*doc);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().to_string();
  apps::DagTemplate::Instance inst = (*tmpl)->instantiate();
  *inst.buffers->float_buffer("a") = {1, 2, 3, 4};
  *inst.buffers->float_buffer("b") = {5, 6, 7, 8};
  rt::RuntimeConfig config;
  config.platform = platform::host(1, 0, 1);
  rt::Runtime runtime(config);
  ASSERT_TRUE(runtime.start().ok());
  ASSERT_TRUE(runtime
                  .submit_dag(rt::DagSubmission{
                      .descriptor = inst.descriptor,
                      .impls = std::move(inst.impls)})
                  .ok());
  ASSERT_TRUE(runtime.wait_all(30.0).ok());
  EXPECT_TRUE(runtime.shutdown().ok());
  const auto& c = *inst.buffers->float_buffer("c");
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

}  // namespace
}  // namespace cedr
