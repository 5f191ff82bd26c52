#include "synth/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::synth {

ZipfSampler::ZipfSampler(std::size_t n, double s) : skew_(s) {
  RCR_CHECK_MSG(n >= 1, "ZipfSampler requires at least one item");
  RCR_CHECK_MSG(s >= 0.0 && std::isfinite(s),
                "ZipfSampler skew must be finite and non-negative");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  // Normalize in place; force the last entry to exactly 1 so u < 1 can
  // never fall past the table.
  for (std::size_t k = 0; k < n; ++k) cdf_[k] /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::sample(double u01) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u01);
  const std::size_t k = static_cast<std::size_t>(it - cdf_.begin());
  return k < cdf_.size() ? k : cdf_.size() - 1;
}

double ZipfSampler::probability(std::size_t k) const {
  RCR_CHECK_MSG(k < cdf_.size(), "ZipfSampler::probability rank out of range");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

double ZipfSampler::mean_rank() const {
  double mean = 0.0;
  for (std::size_t k = 1; k < cdf_.size(); ++k)
    mean += static_cast<double>(k) * (cdf_[k] - cdf_[k - 1]);
  return mean;
}

double exponential_interarrival(double lambda, double u01) {
  RCR_CHECK_MSG(lambda > 0.0 && std::isfinite(lambda),
                "exponential_interarrival requires a positive finite rate");
  return -std::log1p(-u01) / lambda;
}

BetaSampler::BetaSampler(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  RCR_CHECK_MSG(alpha > 0.0 && std::isfinite(alpha) && beta > 0.0 &&
                    std::isfinite(beta),
                "BetaSampler requires positive finite shape parameters");
}

double BetaSampler::sample(double u01) const {
  RCR_CHECK_MSG(u01 >= 0.0 && u01 < 1.0,
                "BetaSampler draw must lie in [0, 1)");
  if (u01 == 0.0) return 0.0;
  // Bisection on the strictly increasing CDF: 64 halvings of [0, 1]
  // exhaust the double mantissa, so the result is draw-deterministic and
  // platform-independent (beta_inc itself is pure arithmetic).
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (stats::beta_inc(alpha_, beta_, mid) < u01)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

double BetaSampler::cdf(double x) const {
  return stats::beta_inc(alpha_, beta_, x);
}

}  // namespace rcr::synth
