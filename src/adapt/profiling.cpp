// Offline profiling-driven cost tables (declared in
// cedr/platform/profiling.h). The implementation lives in cedr::adapt so
// the offline trace fit and the online OnlineCostEstimator share one
// least-squares core (cedr/adapt/fit.h) instead of duplicating it.

#include <map>
#include <utility>
#include <vector>

#include "cedr/adapt/fit.h"
#include "cedr/platform/profiling.h"
#include "cedr/trace/report.h"

namespace cedr::platform {

StatusOr<ProfileResult> profile_costs(const std::vector<obs::SpanEvent>& events,
                                      const PlatformConfig& platform,
                                      std::size_t min_samples) {
  CEDR_RETURN_IF_ERROR(platform.validate());
  if (min_samples == 0) min_samples = 1;

  ProfileResult result;
  result.costs = platform.costs;
  std::map<std::pair<int, int>, std::vector<adapt::FitSample>> samples;
  for (const trace::TaskExecution& task : trace::task_executions(events)) {
    const auto kernel = kernel_from_name(task.kernel);
    if (!kernel || task.pe_index >= platform.pes.size() ||
        task.service_time() <= 0.0) {
      ++result.tasks_skipped;
      continue;
    }
    const PeClass cls = platform.pes[task.pe_index].cls;
    samples[{static_cast<int>(*kernel), static_cast<int>(cls)}].push_back(
        adapt::FitSample{
            .n = static_cast<double>(task.problem_size),
            .service_s = task.service_time(),
        });
    ++result.tasks_used;
  }
  if (result.tasks_used == 0) {
    return FailedPrecondition("trace contains no usable worker spans");
  }

  for (const auto& [key, bucket] : samples) {
    if (bucket.size() < min_samples) continue;
    const auto kernel = static_cast<KernelId>(key.first);
    const auto cls = static_cast<PeClass>(key.second);
    const KernelCost fitted = adapt::fit_affine(bucket);
    result.costs.set(kernel, cls, fitted);
    double mean_service = 0.0;
    for (const adapt::FitSample& s : bucket) mean_service += s.service_s;
    mean_service /= static_cast<double>(bucket.size());
    result.entries.push_back(ProfiledEntry{
        .kernel = kernel,
        .cls = cls,
        .samples = bucket.size(),
        .fitted = fitted,
        .mean_service_s = mean_service,
    });
  }
  return result;
}

}  // namespace cedr::platform
