#include "cedr/adapt/online_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cedr::adapt {
namespace {

// Floor for predictions used as outlier/relative-error denominators.
constexpr double kTinySeconds = 1.0e-12;

}  // namespace

json::Value AdaptConfig::to_json() const {
  return json::Object{
      {"enabled", json::Value(enabled)},
      {"half_life", json::Value(half_life)},
      {"min_samples", json::Value(min_samples)},
      {"outlier_threshold", json::Value(outlier_threshold)},
      {"publish_interval", json::Value(publish_interval)},
  };
}

StatusOr<AdaptConfig> AdaptConfig::from_json(const json::Value& value) {
  if (!value.is_object()) {
    return InvalidArgument("adapt config must be object");
  }
  AdaptConfig config;
  config.enabled = value.get_bool("enabled", config.enabled);
  config.half_life = value.get_double("half_life", config.half_life);
  config.min_samples = static_cast<std::size_t>(value.get_int(
      "min_samples", static_cast<std::int64_t>(config.min_samples)));
  config.outlier_threshold =
      value.get_double("outlier_threshold", config.outlier_threshold);
  config.publish_interval = static_cast<std::size_t>(value.get_int(
      "publish_interval", static_cast<std::int64_t>(config.publish_interval)));
  if (config.half_life <= 0.0) {
    return InvalidArgument("adapt 'half_life' must be positive");
  }
  if (config.min_samples == 0) {
    return InvalidArgument("adapt 'min_samples' must be positive");
  }
  if (config.outlier_threshold <= 1.0) {
    return InvalidArgument("adapt 'outlier_threshold' must exceed 1.0");
  }
  if (config.publish_interval == 0) {
    return InvalidArgument("adapt 'publish_interval' must be positive");
  }
  return config;
}

OnlineCostEstimator::OnlineCostEstimator(AdaptConfig config,
                                         platform::CostModel preset)
    : config_(std::move(config)), preset_(std::move(preset)) {
  snapshot_.store(std::make_shared<const platform::CostModel>(preset_),
                  std::memory_order_release);
}

double OnlineCostEstimator::blend_for(std::size_t samples) const noexcept {
  if (samples < config_.min_samples) return 0.0;
  const double progress =
      static_cast<double>(samples - config_.min_samples + 1) /
      static_cast<double>(config_.min_samples);
  return std::min(progress, 1.0);
}

void OnlineCostEstimator::observe(platform::KernelId kernel,
                                  platform::PeClass cls, std::size_t n,
                                  std::size_t bytes, double service_s) {
  if (!pe_class_supports(cls, kernel) || !(service_s > 0.0)) return;

  // The learned polynomial models compute time only; the preset transfer
  // term (DMA / cudaMemcpy) is subtracted from the observation up front so
  // accelerator fits aren't double-charged when estimate() re-adds it.
  double adjusted = service_s;
  if (cls != platform::PeClass::kCpu) {
    const double transfer = preset_.estimate(kernel, cls, n, bytes) -
                            preset_.get(kernel, cls).eval(n);
    adjusted = std::max(service_s - transfer, kTinySeconds);
  }
  const double nd = static_cast<double>(n);

  std::lock_guard<std::mutex> lock(mutex_);
  observations_.fetch_add(1, std::memory_order_relaxed);
  auto [it, inserted] = pairs_.try_emplace(
      std::pair<int, int>{static_cast<int>(kernel), static_cast<int>(cls)},
      config_.half_life);
  PairState& pair = it->second;

  const double predicted = pair.fit.predict(nd);
  if (pair.fit.samples() >= config_.min_samples) {
    const double ratio = adjusted / std::max(predicted, kTinySeconds);
    if (ratio > config_.outlier_threshold ||
        ratio < 1.0 / config_.outlier_threshold) {
      ++pair.rejected;
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  if (pair.fit.samples() >= 1) {
    // Decayed mean relative error of the pre-update prediction; tracks how
    // well the served model explains fresh observations.
    const double rel =
        std::abs(adjusted - predicted) / std::max(predicted, kTinySeconds);
    const double lambda = std::exp2(-1.0 / config_.half_life);
    pair.rel_error_weight = lambda * pair.rel_error_weight + 1.0;
    pair.rel_error += (rel - pair.rel_error) / pair.rel_error_weight;
  }
  pair.fit.update(nd, adjusted);

  if (++accepted_since_publish_ >= config_.publish_interval) {
    accepted_since_publish_ = 0;
    publish_locked();
  }
}

void OnlineCostEstimator::publish_locked() {
  auto model = std::make_shared<platform::CostModel>(preset_);
  for (const auto& [key, pair] : pairs_) {
    const double blend = blend_for(pair.fit.samples());
    if (blend <= 0.0) continue;
    const auto kernel = static_cast<platform::KernelId>(key.first);
    const auto cls = static_cast<platform::PeClass>(key.second);
    const platform::KernelCost learned = pair.fit.coefficients();
    // A non-finite coefficient would make every finish time of this pair
    // NaN, and no heuristic could place the kernel at all: keep the preset.
    if (!std::isfinite(learned.fixed_s) ||
        !std::isfinite(learned.per_point_s) ||
        !std::isfinite(learned.per_nlogn_s)) {
      continue;
    }
    const platform::KernelCost& base = preset_.get(kernel, cls);
    model->set(kernel, cls,
               platform::KernelCost{
                   .fixed_s = (1.0 - blend) * base.fixed_s +
                              blend * learned.fixed_s,
                   .per_point_s = (1.0 - blend) * base.per_point_s +
                                  blend * learned.per_point_s,
                   .per_nlogn_s = (1.0 - blend) * base.per_nlogn_s +
                                  blend * learned.per_nlogn_s,
               });
  }
  snapshot_.store(std::shared_ptr<const platform::CostModel>(std::move(model)),
                  std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const platform::CostModel> OnlineCostEstimator::snapshot()
    const {
  return snapshot_.load(std::memory_order_acquire);
}

std::vector<PairStats> OnlineCostEstimator::pair_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PairStats> stats;
  stats.reserve(pairs_.size());
  for (const auto& [key, pair] : pairs_) {
    const auto kernel = static_cast<platform::KernelId>(key.first);
    const auto cls = static_cast<platform::PeClass>(key.second);
    stats.push_back(PairStats{
        .kernel = kernel,
        .cls = cls,
        .samples = pair.fit.samples(),
        .rejected = pair.rejected,
        .blend = blend_for(pair.fit.samples()),
        .rel_error = pair.rel_error,
        .learned = pair.fit.coefficients(),
        .preset = preset_.get(kernel, cls),
    });
  }
  return stats;
}

std::uint64_t OnlineCostEstimator::observations() const noexcept {
  return observations_.load(std::memory_order_relaxed);
}

std::uint64_t OnlineCostEstimator::rejected() const noexcept {
  return rejected_.load(std::memory_order_relaxed);
}

std::uint64_t OnlineCostEstimator::publishes() const noexcept {
  return publishes_.load(std::memory_order_relaxed);
}

double OnlineCostEstimator::mean_rel_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& [key, pair] : pairs_) {
    if (pair.fit.samples() < 2) continue;
    sum += pair.rel_error;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double OnlineCostEstimator::class_rel_error(platform::PeClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& [key, pair] : pairs_) {
    if (key.second != static_cast<int>(cls) || pair.fit.samples() < 2) {
      continue;
    }
    sum += pair.rel_error;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

json::Value OnlineCostEstimator::to_json() const {
  json::Array pairs;
  for (const PairStats& s : pair_stats()) {
    pairs.emplace_back(json::Object{
        {"kernel", json::Value(platform::kernel_name(s.kernel))},
        {"class", json::Value(platform::pe_class_name(s.cls))},
        {"samples", json::Value(s.samples)},
        {"rejected", json::Value(s.rejected)},
        {"blend", json::Value(s.blend)},
        {"rel_error", json::Value(s.rel_error)},
        {"learned",
         json::Object{
             {"fixed_s", json::Value(s.learned.fixed_s)},
             {"per_point_s", json::Value(s.learned.per_point_s)},
             {"per_nlogn_s", json::Value(s.learned.per_nlogn_s)},
         }},
        {"static",
         json::Object{
             {"fixed_s", json::Value(s.preset.fixed_s)},
             {"per_point_s", json::Value(s.preset.per_point_s)},
             {"per_nlogn_s", json::Value(s.preset.per_nlogn_s)},
         }},
    });
  }
  return json::Object{
      {"enabled", json::Value(config_.enabled)},
      {"config", config_.to_json()},
      {"observations", json::Value(static_cast<std::size_t>(observations()))},
      {"rejected", json::Value(static_cast<std::size_t>(rejected()))},
      {"publishes", json::Value(static_cast<std::size_t>(publishes()))},
      {"mean_rel_error", json::Value(mean_rel_error())},
      {"pairs", json::Value(std::move(pairs))},
  };
}

}  // namespace cedr::adapt
