#include "cedr/apps/executable_dag.h"

namespace cedr::apps {

Status BufferPool::add_cfloat(const std::string& name, std::size_t elems) {
  if (name.empty() || elems == 0) {
    return InvalidArgument("buffer needs a name and a nonzero size");
  }
  if (cfloats_.count(name) != 0 || floats_.count(name) != 0) {
    return AlreadyExists("duplicate buffer name: " + name);
  }
  cfloats_.emplace(name, std::vector<cfloat>(elems));
  return Status::Ok();
}

Status BufferPool::add_float(const std::string& name, std::size_t elems) {
  if (name.empty() || elems == 0) {
    return InvalidArgument("buffer needs a name and a nonzero size");
  }
  if (cfloats_.count(name) != 0 || floats_.count(name) != 0) {
    return AlreadyExists("duplicate buffer name: " + name);
  }
  floats_.emplace(name, std::vector<float>(elems));
  return Status::Ok();
}

std::vector<cfloat>* BufferPool::cfloat_buffer(const std::string& name) {
  const auto it = cfloats_.find(name);
  return it == cfloats_.end() ? nullptr : &it->second;
}

std::vector<float>* BufferPool::float_buffer(const std::string& name) {
  const auto it = floats_.find(name);
  return it == floats_.end() ? nullptr : &it->second;
}

}  // namespace cedr::apps
