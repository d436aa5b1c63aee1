// Tests for the task model: TaskGraph invariants, topological order,
// runnability, and the JSON DAG loader.
#include <gtest/gtest.h>

#include "cedr/task/dag_loader.h"
#include "cedr/task/task.h"

namespace cedr::task {
namespace {

Task make_task(TaskId id, platform::KernelId kernel = platform::KernelId::kFft) {
  Task t;
  t.id = id;
  t.name = "t" + std::to_string(id);
  t.kernel = kernel;
  t.problem_size = 256;
  return t;
}

TEST(TaskGraph, AddAndQuery) {
  TaskGraph g;
  ASSERT_TRUE(g.add_task(make_task(0)).ok());
  ASSERT_TRUE(g.add_task(make_task(1)).ok());
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.contains(0));
  EXPECT_FALSE(g.contains(7));
  EXPECT_EQ(g.get(1).name, "t1");
  EXPECT_EQ(g.successors(0), std::vector<TaskId>{1});
  EXPECT_EQ(g.predecessors(1), std::vector<TaskId>{0});
}

TEST(TaskGraph, RejectsDuplicateIds) {
  TaskGraph g;
  ASSERT_TRUE(g.add_task(make_task(5)).ok());
  EXPECT_EQ(g.add_task(make_task(5)).code(), StatusCode::kAlreadyExists);
}

TEST(TaskGraph, RejectsSelfAndDanglingEdges) {
  TaskGraph g;
  ASSERT_TRUE(g.add_task(make_task(0)).ok());
  EXPECT_EQ(g.add_edge(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.add_edge(0, 9).code(), StatusCode::kNotFound);
}

TEST(TaskGraph, DuplicateEdgesCollapse) {
  TaskGraph g;
  ASSERT_TRUE(g.add_task(make_task(0)).ok());
  ASSERT_TRUE(g.add_task(make_task(1)).ok());
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  EXPECT_EQ(g.successors(0).size(), 1u);
  EXPECT_EQ(g.predecessors(1).size(), 1u);
}

TEST(TaskGraph, HeadNodes) {
  TaskGraph g;
  for (TaskId id = 0; id < 4; ++id) ASSERT_TRUE(g.add_task(make_task(id)).ok());
  ASSERT_TRUE(g.add_edge(0, 2).ok());
  ASSERT_TRUE(g.add_edge(1, 2).ok());
  ASSERT_TRUE(g.add_edge(2, 3).ok());
  const auto heads = g.head_nodes();
  EXPECT_EQ(heads, (std::vector<TaskId>{0, 1}));
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  TaskGraph g;
  for (TaskId id = 0; id < 6; ++id) ASSERT_TRUE(g.add_task(make_task(id)).ok());
  // Diamond plus a tail: 0 -> {1,2} -> 3 -> 4, and 5 independent.
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(0, 2).ok());
  ASSERT_TRUE(g.add_edge(1, 3).ok());
  ASSERT_TRUE(g.add_edge(2, 3).ok());
  ASSERT_TRUE(g.add_edge(3, 4).ok());
  const auto order = g.topological_order();
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), 6u);
  auto position = [&](TaskId id) {
    return std::find(order->begin(), order->end(), id) - order->begin();
  };
  EXPECT_LT(position(0), position(1));
  EXPECT_LT(position(0), position(2));
  EXPECT_LT(position(1), position(3));
  EXPECT_LT(position(2), position(3));
  EXPECT_LT(position(3), position(4));
}

TEST(TaskGraph, DetectsCycles) {
  TaskGraph g;
  for (TaskId id = 0; id < 3; ++id) ASSERT_TRUE(g.add_task(make_task(id)).ok());
  ASSERT_TRUE(g.add_edge(0, 1).ok());
  ASSERT_TRUE(g.add_edge(1, 2).ok());
  ASSERT_TRUE(g.add_edge(2, 0).ok());
  EXPECT_EQ(g.topological_order().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TaskGraph, LargeGraphTopoIsLinearish) {
  // Smoke check that big DAGs (LD scale) are handled without quadratic blowup.
  TaskGraph g;
  constexpr TaskId kN = 20000;
  for (TaskId id = 0; id < kN; ++id) {
    ASSERT_TRUE(g.add_task(make_task(id, platform::KernelId::kGeneric)).ok());
    if (id > 0) {
      ASSERT_TRUE(g.add_edge(id - 1, id).ok());
    }
  }
  const auto order = g.topological_order();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->size(), kN);
  EXPECT_EQ(order->front(), 0u);
  EXPECT_EQ(order->back(), kN - 1);
}

TEST(TaskRunnability, FollowsSupportAndImpls) {
  Task t = make_task(0, platform::KernelId::kFft);
  // No impls: runnable anywhere the kernel is supported.
  EXPECT_TRUE(t.runnable_on(platform::PeClass::kCpu));
  EXPECT_TRUE(t.runnable_on(platform::PeClass::kFftAccel));
  EXPECT_FALSE(t.runnable_on(platform::PeClass::kMmultAccel));
  // With a CPU-only impl the accelerator is no longer admissible.
  t.set_impl(platform::PeClass::kCpu,
             [](ExecContext&) { return Status::Ok(); });
  EXPECT_TRUE(t.runnable_on(platform::PeClass::kCpu));
  EXPECT_FALSE(t.runnable_on(platform::PeClass::kFftAccel));
}

// ---- DAG JSON loader -------------------------------------------------------

constexpr const char* kValidDag = R"({
  "app_name": "demo",
  "tasks": [
    {"id": 0, "name": "fft_a", "kernel": "FFT", "size": 256, "bytes": 4096,
     "predecessors": []},
    {"id": 1, "name": "fft_b", "kernel": "FFT", "size": 256, "bytes": 4096},
    {"id": 2, "name": "combine", "kernel": "ZIP", "size": 256,
     "predecessors": [0, 1]},
    {"id": 3, "name": "post", "kernel": "GENERIC", "size": 10000,
     "predecessors": [2]}
  ]
})";

TEST(DagLoader, ParsesValidDocument) {
  auto doc = json::parse(kValidDag);
  ASSERT_TRUE(doc.ok());
  auto app = app_from_json(*doc);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app->name, "demo");
  EXPECT_EQ(app->graph.size(), 4u);
  EXPECT_EQ(app->graph.get(2).kernel, platform::KernelId::kZip);
  EXPECT_EQ(app->graph.predecessors(2).size(), 2u);
  EXPECT_EQ(app->graph.head_nodes(), (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(app->graph.get(0).data_bytes, 4096u);
  EXPECT_EQ(app->graph.get(3).problem_size, 10000u);
}

TEST(DagLoader, RoundTripsThroughJson) {
  auto doc = json::parse(kValidDag);
  auto app = app_from_json(*doc);
  ASSERT_TRUE(app.ok());
  auto app2 = app_from_json(app_to_json(*app));
  ASSERT_TRUE(app2.ok());
  EXPECT_EQ(app2->graph.size(), app->graph.size());
  for (const Task& t : app->graph.tasks()) {
    EXPECT_EQ(app2->graph.get(t.id).kernel, t.kernel);
    EXPECT_EQ(app2->graph.get(t.id).name, t.name);
    EXPECT_EQ(app2->graph.predecessors(t.id), app->graph.predecessors(t.id));
  }
}

struct BadDag {
  const char* name;
  const char* text;
};

// Print a case as its name, so the test names that gtest lists and ctest
// registers do not embed the addresses of the string literals.
void PrintTo(const BadDag& c, std::ostream* os) { *os << c.name; }

class DagLoaderErrors : public ::testing::TestWithParam<BadDag> {};

TEST_P(DagLoaderErrors, Rejected) {
  auto doc = json::parse(GetParam().text);
  ASSERT_TRUE(doc.ok()) << "test input must be valid JSON";
  EXPECT_FALSE(app_from_json(*doc).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DagLoaderErrors,
    ::testing::Values(
        BadDag{"missing_name", R"({"tasks": []})"},
        BadDag{"missing_tasks", R"({"app_name": "x"})"},
        BadDag{"tasks_not_array", R"({"app_name": "x", "tasks": 3})"},
        BadDag{"task_without_id",
               R"({"app_name": "x", "tasks": [{"kernel": "FFT"}]})"},
        BadDag{"negative_id",
               R"({"app_name": "x", "tasks": [{"id": -1}]})"},
        BadDag{"unknown_kernel",
               R"({"app_name": "x", "tasks": [{"id": 0, "kernel": "WAT"}]})"},
        BadDag{"duplicate_id",
               R"({"app_name": "x", "tasks": [{"id": 0}, {"id": 0}]})"},
        BadDag{"dangling_predecessor",
               R"({"app_name": "x",
                   "tasks": [{"id": 0, "predecessors": [7]}]})"},
        BadDag{"cyclic",
               R"({"app_name": "x",
                   "tasks": [{"id": 0, "predecessors": [1]},
                             {"id": 1, "predecessors": [0]}]})"}),
    [](const auto& info) { return info.param.name; });

TEST(DagLoader, LoadsFromDisk) {
  const std::string path = ::testing::TempDir() + "/cedr_dag_test.json";
  {
    auto doc = json::parse(kValidDag);
    ASSERT_TRUE(json::write_file(path, *doc).ok());
  }
  auto app = load_app(path);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app->name, "demo");
  EXPECT_EQ(load_app("/nonexistent.json").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cedr::task
