#include "cedr/adapt/fit.h"

#include <algorithm>
#include <cmath>

namespace cedr::adapt {
namespace {

// Prior covariance magnitude, in *normalized* units (features and target
// are both scaled to O(1) by the first observation). Large enough that the
// ridge bias on fitted coefficients is negligible (~1e-8 relative) after a
// handful of samples, small enough that the rank-1 covariance update does
// not lose the residual to floating-point cancellation (the absolute
// rounding noise of a P-sized subtraction is ~eps * P ~ 1e-8, which the
// forgetting factor would otherwise amplify geometrically).
constexpr double kInitialCovariance = 1.0e8;

double nlogn(double n) noexcept {
  return n > 1.0 ? n * std::log2(n) : 0.0;
}

using Matrix = std::array<std::array<double, 3>, 3>;

/// Bounds the symmetric covariance `p` (leading `dim` block): once its trace
/// passes dim * kInitialCovariance, every eigenvalue is capped at
/// kInitialCovariance. Directions the data stops exciting grow by 1/lambda
/// per update; capping them along their eigenvectors keeps P positive
/// semi-definite, where capping the diagonal alone leaves the off-diagonal
/// terms of a wound-up direction behind, makes P indefinite and lets the
/// gain diverge. The trace trigger lets capped directions regrow for tens of
/// updates before the next decomposition (cyclic Jacobi rotations, a few
/// sweeps at this size), so the cost amortizes.
void cap_covariance(Matrix& p, std::size_t dim) noexcept {
  double trace = 0.0;
  for (std::size_t i = 0; i < dim; ++i) trace += p[i][i];
  if (trace <= static_cast<double>(dim) * kInitialCovariance) return;
  Matrix a = p;
  Matrix v{};
  for (std::size_t i = 0; i < dim; ++i) v[i][i] = 1.0;
  for (int sweep = 0; sweep < 32; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = i + 1; j < dim; ++j) off += a[i][j] * a[i][j];
    }
    // Converged to the rounding noise of a P-sized entry (see above).
    if (off <= 1e-32 * trace * trace) break;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t q = r + 1; q < dim; ++q) {
        if (a[r][q] == 0.0) continue;
        const double theta = (a[q][q] - a[r][r]) / (2.0 * a[r][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < dim; ++k) {  // A J
          const double kr = a[k][r];
          const double kq = a[k][q];
          a[k][r] = c * kr - s * kq;
          a[k][q] = s * kr + c * kq;
        }
        for (std::size_t k = 0; k < dim; ++k) {  // J' (A J)
          const double rk = a[r][k];
          const double qk = a[q][k];
          a[r][k] = c * rk - s * qk;
          a[q][k] = s * rk + c * qk;
        }
        a[r][q] = 0.0;
        a[q][r] = 0.0;
        for (std::size_t k = 0; k < dim; ++k) {  // V J
          const double kr = v[k][r];
          const double kq = v[k][q];
          v[k][r] = c * kr - s * kq;
          v[k][q] = s * kr + c * kq;
        }
      }
    }
  }
  std::array<double, 3> eig{};
  bool capped = false;
  for (std::size_t k = 0; k < dim; ++k) {
    eig[k] = std::min(a[k][k], kInitialCovariance);
    capped |= eig[k] != a[k][k];
  }
  if (!capped) return;
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < dim; ++k) acc += v[i][k] * eig[k] * v[j][k];
      p[i][j] = acc;
    }
  }
}

}  // namespace

RlsFit::RlsFit(FitBasis basis, double half_life_samples) {
  dim_ = basis == FitBasis::kAffine ? 2 : 3;
  lambda_ = half_life_samples > 0.0
                ? std::exp2(-1.0 / half_life_samples)
                : 1.0;
  for (std::size_t i = 0; i < kMaxDim; ++i) {
    for (std::size_t j = 0; j < kMaxDim; ++j) {
      p_[i][j] = i == j ? kInitialCovariance : 0.0;
    }
  }
}

void RlsFit::features(double n, std::array<double, kMaxDim>& phi)
    const noexcept {
  phi[0] = 1.0;
  phi[1] = n / scale_[1];
  phi[2] = dim_ > 2 ? nlogn(n) / scale_[2] : 0.0;
}

void RlsFit::update(double n, double service_s) {
  if (samples_ == 0) {
    // Normalize features *and* target by the first sample's magnitudes so
    // the whole regression runs in O(1) units regardless of problem-size
    // or service-time scale — this keeps the covariance update numerically
    // tame (see kInitialCovariance above).
    first_n_ = n;
    scale_[0] = 1.0;
    scale_[1] = std::max(n, 1.0);
    scale_[2] = std::max(nlogn(n), 1.0);
    scale_y_ = std::max(std::abs(service_s), 1e-12);
  } else if (n != first_n_) {
    multi_size_ = true;
  }
  ++samples_;

  // Exponentially-decayed mean of the observations (same decay as the fit).
  mean_weight_ = lambda_ * mean_weight_ + 1.0;
  mean_ += (service_s - mean_) / mean_weight_;

  const double y = service_s / scale_y_;
  std::array<double, kMaxDim> phi{};
  features(n, phi);

  // Standard EW-RLS update: K = P phi / (lambda + phi' P phi);
  // theta += K (y - theta' phi); P = (P - K phi' P) / lambda.
  std::array<double, kMaxDim> p_phi{};
  for (std::size_t i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) acc += p_[i][j] * phi[j];
    p_phi[i] = acc;
  }
  double denom = lambda_;
  for (std::size_t i = 0; i < dim_; ++i) denom += phi[i] * p_phi[i];

  double predicted = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) predicted += theta_[i] * phi[i];
  const double err = y - predicted;

  std::array<double, kMaxDim> gain{};
  for (std::size_t i = 0; i < dim_; ++i) gain[i] = p_phi[i] / denom;
  for (std::size_t i = 0; i < dim_; ++i) theta_[i] += gain[i] * err;
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      p_[i][j] = (p_[i][j] - gain[i] * p_phi[j]) / lambda_;
    }
  }
  // Symmetrize (the update is symmetric in exact arithmetic; rounding
  // drift compounds under the forgetting factor) and cap covariance
  // growth at the prior — directions the data stops exciting would
  // otherwise wind up by 1/lambda per step without bound.
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i + 1; j < dim_; ++j) {
      const double avg = 0.5 * (p_[i][j] + p_[j][i]);
      p_[i][j] = avg;
      p_[j][i] = avg;
    }
  }
  cap_covariance(p_, dim_);
}

double RlsFit::predict(double n) const noexcept {
  if (samples_ == 0) return 0.0;
  std::array<double, kMaxDim> phi{};
  features(n, phi);
  double out = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) out += theta_[i] * phi[i];
  return out * scale_y_;
}

std::array<double, 3> RlsFit::raw_coefficients() const noexcept {
  return {theta_[0] * scale_y_ / scale_[0], theta_[1] * scale_y_ / scale_[1],
          dim_ > 2 ? theta_[2] * scale_y_ / scale_[2] : 0.0};
}

platform::KernelCost RlsFit::coefficients() const noexcept {
  const auto raw = raw_coefficients();
  return platform::KernelCost{
      .fixed_s = std::max(raw[0], 0.0),
      .per_point_s = std::max(raw[1], 0.0),
      .per_nlogn_s = std::max(raw[2], 0.0),
  };
}

platform::KernelCost fit_affine(const std::vector<FitSample>& samples) {
  RlsFit fit(FitBasis::kAffine, RlsFit::kNoDecay);
  double sum = 0.0;
  for (const FitSample& s : samples) {
    fit.update(s.n, s.service_s);
    sum += s.service_s;
  }
  if (samples.empty()) return {};
  const double mean = sum / static_cast<double>(samples.size());
  // A single distinct size can't separate slope from intercept, and a
  // negative slope is non-physical measurement noise: both fall back to
  // the mean, matching the offline profiler's historic behaviour.
  if (!fit.multi_size() || fit.raw_coefficients()[1] < 0.0) {
    return platform::KernelCost{.fixed_s = std::max(mean, 0.0)};
  }
  return fit.coefficients();
}

}  // namespace cedr::adapt
