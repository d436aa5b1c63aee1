#pragma once
// Profiling-driven cost tables.
//
// CEDR's cost-aware heuristics (EFT/ETF/HEFT_RT) consult per-(kernel, PE)
// execution-time tables that the real framework obtains by profiling
// applications on the target SoC. This module closes that loop for the
// reproduction: it fits cost-model coefficients from the measured task
// service times in a span stream, so a runtime can be profiled once
// and then rescheduled (or emulated) with tables that reflect *this*
// machine instead of the calibrated presets.
//
// Fit: for each (kernel, PE class) with enough samples, least squares of
//   service_time ~= fixed + per_point * problem_size
// (the per-n·log n term is left to the analytic presets; an affine fit is
// robust at the few sizes a real workload exercises). The least-squares
// implementation is shared with the *online* estimator — see
// cedr/adapt/fit.h and cedr/adapt/online_estimator.h; this module is the
// offline, whole-trace entry point.

#include "cedr/common/status.h"
#include "cedr/obs/span.h"
#include "cedr/platform/cost_model.h"
#include "cedr/platform/platform.h"

namespace cedr::platform {

/// One fitted pairing, for reporting.
struct ProfiledEntry {
  KernelId kernel = KernelId::kGeneric;
  PeClass cls = PeClass::kCpu;
  std::size_t samples = 0;
  KernelCost fitted;
  double mean_service_s = 0.0;
};

/// Result of profiling a span stream against a platform.
struct ProfileResult {
  /// The platform's cost model with every sufficiently-sampled pairing
  /// replaced by its fitted coefficients.
  CostModel costs;
  std::vector<ProfiledEntry> entries;
  std::size_t tasks_used = 0;
  std::size_t tasks_skipped = 0;  ///< unknown kernel/PE or zero duration
};

/// Fits cost tables from the worker execute spans in `events` (a
/// SpanTracer snapshot or stitched `.cbt` segments of a run on `platform`),
/// starting from `platform`'s existing model. A span's worker track
/// (tid 1 + PE index) resolves to its PE class through the platform's PE
/// list; pairings with fewer than `min_samples` observations keep their
/// preset coefficients.
StatusOr<ProfileResult> profile_costs(const std::vector<obs::SpanEvent>& events,
                                      const PlatformConfig& platform,
                                      std::size_t min_samples = 3);

}  // namespace cedr::platform
