#pragma once
// Schedulable task model.
//
// A task is CEDR's unit of scheduling: one node of a DAG-based application
// or one libCEDR API call from an API-based application. A Task carries only
// the abstract identity (kernel id + problem size) that schedulers and cost
// models consume. Its concrete per-PE-class implementations (TaskFn) travel
// beside it, one array per submission: rt::DagSubmission::impls for a DAG
// instance, rt::KernelRequest::impls for an API call. The runtime invokes the
// slot of the PE class it placed the task on, mirroring how CEDR "dynamically
// updates that task's function pointer such that its worker thread invokes a
// function that is compatible with that resource" (paper §II-A).

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cedr/common/status.h"
#include "cedr/platform/kernel_id.h"
#include "cedr/platform/mmio_device.h"
#include "cedr/platform/pe.h"

namespace cedr::task {

using TaskId = std::uint64_t;

/// Handed to a task implementation at dispatch time.
struct ExecContext {
  /// The PE this execution was scheduled onto.
  const platform::PeDescriptor* pe = nullptr;
  /// The accelerator device backing that PE; nullptr for CPU PEs.
  platform::MmioDevice* device = nullptr;
};

/// One per-PE-class implementation of a task.
using TaskFn = std::function<Status(ExecContext&)>;

/// A schedulable unit of computation.
struct Task {
  TaskId id = 0;
  std::string name;
  platform::KernelId kernel = platform::KernelId::kGeneric;
  /// Cost-model problem size: element count for FFT/ZIP, m*k*n for MMULT,
  /// reference-core nanoseconds for GENERIC.
  std::size_t problem_size = 0;
  /// Bytes moved to/from an accelerator if one executes this task.
  std::size_t data_bytes = 0;
};

/// Directed acyclic graph of tasks: one application's structure.
class TaskGraph {
 public:
  /// Adds a task; its id must be unique within the graph.
  Status add_task(Task task);
  /// Adds a dependency edge: `to` cannot start until `from` completes.
  Status add_edge(TaskId from, TaskId to);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool contains(TaskId id) const noexcept;
  [[nodiscard]] const Task& get(TaskId id) const;
  [[nodiscard]] Task& get(TaskId id);
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept {
    return tasks_;
  }

  [[nodiscard]] const std::vector<TaskId>& successors(TaskId id) const;
  [[nodiscard]] const std::vector<TaskId>& predecessors(TaskId id) const;
  /// Tasks with no predecessors (the DAG "head nodes" CEDR enqueues when an
  /// application is launched).
  [[nodiscard]] std::vector<TaskId> head_nodes() const;

  /// Checks acyclicity and edge validity; returns a topological order.
  [[nodiscard]] StatusOr<std::vector<TaskId>> topological_order() const;

  /// Storage index of a task id (the position in tasks()). Lets callers
  /// precompute index-based per-instance state (predecessor counts, ranks)
  /// once per descriptor instead of re-hashing TaskIds per instance.
  [[nodiscard]] std::size_t index_of(TaskId id) const;

 private:
  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> successors_;
  std::vector<std::vector<TaskId>> predecessors_;
  std::unordered_map<TaskId, std::size_t> index_;
};

/// A named application: its DAG plus bookkeeping metadata.
struct AppDescriptor {
  std::string name;
  TaskGraph graph;
};

}  // namespace cedr::task
