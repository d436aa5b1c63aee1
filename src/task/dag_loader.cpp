#include "cedr/task/dag_loader.h"

namespace cedr::task {

StatusOr<AppDescriptor> app_from_json(const json::Value& doc) {
  if (!doc.is_object()) return InvalidArgument("DAG document must be object");
  AppDescriptor app;
  app.name = doc.get_string("app_name", "");
  if (app.name.empty()) {
    return InvalidArgument("DAG document missing 'app_name'");
  }
  const json::Value* tasks = doc.find("tasks");
  if (tasks == nullptr || !tasks->is_array()) {
    return InvalidArgument("DAG document 'tasks' must be an array");
  }
  // First pass: nodes.
  for (const json::Value& row : tasks->as_array()) {
    if (!row.is_object()) return InvalidArgument("task entry must be object");
    const json::Value* id = row.find("id");
    if (id == nullptr || !id->is_int() || id->as_int() < 0) {
      return InvalidArgument("task entry needs a nonnegative integer 'id'");
    }
    Task task;
    task.id = static_cast<TaskId>(id->as_int());
    task.name = row.get_string("name", "task" + std::to_string(task.id));
    const std::string kernel = row.get_string("kernel", "GENERIC");
    const auto kernel_id = platform::kernel_from_name(kernel);
    if (!kernel_id) return InvalidArgument("unknown kernel: " + kernel);
    task.kernel = *kernel_id;
    task.problem_size = static_cast<std::size_t>(row.get_int("size", 0));
    task.data_bytes = static_cast<std::size_t>(row.get_int("bytes", 0));
    CEDR_RETURN_IF_ERROR(app.graph.add_task(std::move(task)));
  }
  // Second pass: edges (all ids now exist).
  for (const json::Value& row : tasks->as_array()) {
    const TaskId to = static_cast<TaskId>(row.find("id")->as_int());
    const json::Value* preds = row.find("predecessors");
    if (preds == nullptr) continue;
    if (!preds->is_array()) {
      return InvalidArgument("'predecessors' must be an array");
    }
    for (const json::Value& pred : preds->as_array()) {
      if (!pred.is_int()) {
        return InvalidArgument("predecessor ids must be integers");
      }
      CEDR_RETURN_IF_ERROR(
          app.graph.add_edge(static_cast<TaskId>(pred.as_int()), to));
    }
  }
  const auto order = app.graph.topological_order();
  if (!order.ok()) return order.status();
  return app;
}

}  // namespace cedr::task
