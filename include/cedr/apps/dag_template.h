#pragma once
// Executable JSON DAG applications: compiled templates and the
// content-hash template cache (docs/runtime_lifecycle.md).
//
// task/dag_loader.h parses the *structure* of a DAG application; in real
// CEDR the node implementations come from the shared object that ships
// beside the JSON. An executable document makes that pair self-contained:
// it declares a pool of named buffers, and each task names the buffers its
// standard libCEDR module (api/impls.h) reads and writes.
//
// {
//   "app_name": "fd_filter",
//   "buffers": {
//     "signal":   {"elems": 1024, "kind": "cfloat"},
//     "kernel":   {"elems": 1024, "kind": "cfloat"},
//     "filtered": {"elems": 1024, "kind": "cfloat"}
//   },
//   "tasks": [
//     {"id": 0, "kernel": "FFT",  "args": {"in": "signal", "out": "signal"},
//      "size": 1024, "predecessors": []},
//     {"id": 1, "kernel": "ZIP",  "args": {"a": "signal", "b": "kernel",
//                                           "out": "filtered", "op": 0},
//      "size": 1024, "predecessors": [0]},
//     {"id": 2, "kernel": "IFFT", "args": {"in": "filtered",
//                                           "out": "filtered"},
//      "size": 1024, "predecessors": [1]},
//     {"id": 3, "kernel": "GENERIC", "args": {"work_ns": 20000},
//      "predecessors": [2]}
//   ]
// }
//
// MMULT args: {"a": BUF, "b": BUF, "c": BUF, "m": M, "k": K, "n": N} over
// "float" buffers. FFT/IFFT/ZIP use "cfloat" buffers; `size` defaults to
// the output buffer's element count.
//
// DagTemplate splits the parse -> validate -> bind pipeline at its natural
// seam:
//
//   compile (once per distinct document)
//     JSON -> validated task-graph skeleton (no impls bound), buffer specs,
//     and per-task binding plans with every argument resolved and every
//     size/kind constraint checked;
//   instantiate (once per submission)
//     fresh BufferPool + per-task implementation arrays built straight from
//     the binding plans — no JSON, no hashing by name, no validation.
//
// The skeleton descriptor is immutable and shared by every instance, so the
// runtime can key per-descriptor precomputation (HEFT ranks, predecessor
// counts) off its address. Per-instance state is only the buffer pool and
// the impl arrays, which the runtime moves into its in-flight tasks.
//
// TemplateCache maps document *content* (FNV-1a hash, full-text compare on
// collision) to compiled templates with bounded LRU eviction, so both the
// shm lane and the socket lane skip compile entirely for repeated
// submissions of the same document — and a mutated document, hashing
// differently, always compiles fresh.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cedr/api/impls.h"
#include "cedr/common/status.h"
#include "cedr/json/json.h"
#include "cedr/kernels/zip.h"
#include "cedr/task/task.h"

namespace cedr::apps {

class BufferPool;

/// One named buffer a template's instances allocate.
struct BufferSpec {
  std::string name;
  bool is_float = false;  ///< false = cfloat
  std::size_t elems = 0;
};

/// An immutable, shareable compilation of one executable-DAG document.
class DagTemplate {
 public:
  /// Validates and compiles a document. Rejects structural errors, unknown
  /// kernels/kinds, missing buffers or args, size/kind mismatches,
  /// non-power-of-two FFTs and bad zip ops.
  static StatusOr<std::shared_ptr<const DagTemplate>> compile(
      const json::Value& doc);

  /// One per-submission materialization: the shared skeleton descriptor,
  /// fresh buffers, and per-task implementation arrays indexed by the
  /// graph's storage order (TaskGraph::index_of). The CPU slot of every
  /// buffer-touching array owns the pool, so buffers outlive the instance's
  /// last task even if this struct is discarded after submission.
  struct Instance {
    std::shared_ptr<const task::AppDescriptor> descriptor;
    std::shared_ptr<BufferPool> buffers;
    std::vector<api::ImplArray> impls;
  };
  [[nodiscard]] Instance instantiate() const;

  /// The shared impl-less skeleton (validated structure, cost metadata).
  [[nodiscard]] const std::shared_ptr<const task::AppDescriptor>& skeleton()
      const noexcept {
    return skeleton_;
  }
  [[nodiscard]] const std::vector<BufferSpec>& buffer_specs() const noexcept {
    return specs_;
  }

 private:
  friend struct DagTemplateTestPeer;
  DagTemplate() = default;

  /// Fully resolved binding recipe for one task (by graph storage index).
  struct Binding {
    platform::KernelId kernel = platform::KernelId::kGeneric;
    // Buffer spec indices; which fields are live depends on the kernel
    // (FFT/IFFT: a=in b=out; ZIP: a/b/c=out; MMULT: a/b/c).
    std::size_t a = 0, b = 0, c = 0;
    std::size_t n = 0;  ///< element count (FFT/ZIP) / MMULT n
    std::size_t m = 0, k = 0;
    kernels::ZipOp op = static_cast<kernels::ZipOp>(0);
    bool inverse = false;
    std::size_t work_ns = 0;  ///< GENERIC only
  };

  std::shared_ptr<const task::AppDescriptor> skeleton_;
  std::vector<BufferSpec> specs_;
  std::vector<Binding> bindings_;  ///< by graph storage index
};

/// Bounded, LRU-evicted cache of compiled templates keyed by document
/// content. Thread-safe; compilation happens outside the lock (concurrent
/// misses on the same text may compile twice, the first insert wins).
class TemplateCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  using HashFn = std::uint64_t (*)(std::string_view);

  /// `hash` is injectable for collision tests; nullptr uses FNV-1a 64.
  explicit TemplateCache(std::size_t capacity = kDefaultCapacity,
                         HashFn hash = nullptr);

  /// Returns the cached template for `text`, compiling (json::parse +
  /// DagTemplate::compile) on a miss. Compile failures are returned, never
  /// cached: a bad document costs a parse per attempt, not a cache slot.
  StatusOr<std::shared_ptr<const DagTemplate>> get_or_compile(
      std::string_view text);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The FNV-1a 64-bit content hash the default-constructed cache uses.
  static std::uint64_t fnv1a64(std::string_view text) noexcept;

  /// Process-wide cache shared by the shm and socket submission lanes.
  static TemplateCache& global();

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string text;
    std::shared_ptr<const DagTemplate> tmpl;
  };
  using EntryList = std::list<Entry>;  ///< front = most recently used

  std::size_t capacity_;
  HashFn hash_;
  mutable std::mutex mutex_;
  EntryList entries_;
  /// hash -> entries with that hash (collision chain; full-text compare
  /// picks the right one).
  std::unordered_map<std::uint64_t, std::vector<EntryList::iterator>> index_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace cedr::apps
