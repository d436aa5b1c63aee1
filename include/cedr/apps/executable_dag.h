#pragma once
// Named buffer storage for executable JSON DAG instances.
//
// An executable DAG document (apps/dag_template.h) declares the buffers its
// tasks read and write; every instance gets a fresh BufferPool holding them.

#include <string>
#include <unordered_map>
#include <vector>

#include "cedr/common/math_util.h"
#include "cedr/common/status.h"

namespace cedr::apps {

/// Named buffer storage backing one application instance. Exposed so tests
/// and callers can seed inputs and inspect outputs.
class BufferPool {
 public:
  Status add_cfloat(const std::string& name, std::size_t elems);
  Status add_float(const std::string& name, std::size_t elems);

  /// nullptr when absent or of the other kind.
  [[nodiscard]] std::vector<cfloat>* cfloat_buffer(const std::string& name);
  [[nodiscard]] std::vector<float>* float_buffer(const std::string& name);

  [[nodiscard]] std::size_t size() const noexcept {
    return cfloats_.size() + floats_.size();
  }

 private:
  std::unordered_map<std::string, std::vector<cfloat>> cfloats_;
  std::unordered_map<std::string, std::vector<float>> floats_;
};

}  // namespace cedr::apps
