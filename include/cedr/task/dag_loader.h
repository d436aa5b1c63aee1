#pragma once
// JSON DAG application format (the DAG-based programming model).
//
// In DAG-based CEDR, a compiled application is a shared object plus a JSON
// file that "captures temporal dependencies between nodes and high level
// control flow of the user's application" (paper §II-A). This module defines
// that JSON schema and parses documents into task::AppDescriptor.
//
// Schema:
// {
//   "app_name": "pulse_doppler",
//   "tasks": [
//     { "id": 0, "name": "range_fft_0", "kernel": "FFT",
//       "size": 256, "bytes": 2048, "predecessors": [] },
//     { "id": 1, "name": "peak", "kernel": "GENERIC",
//       "size": 20000, "bytes": 0, "predecessors": [0] }
//   ]
// }

#include "cedr/common/status.h"
#include "cedr/json/json.h"
#include "cedr/task/task.h"

namespace cedr::task {

/// Parses an application from its JSON DAG document. Validates kernel names,
/// edge references and acyclicity. The result is a skeleton: in DAG-based
/// CEDR the implementations come from the shared object, and here they come
/// per instance beside the skeleton (apps::DagTemplate binds them from the
/// document's buffer arguments).
StatusOr<AppDescriptor> app_from_json(const json::Value& doc);

}  // namespace cedr::task
