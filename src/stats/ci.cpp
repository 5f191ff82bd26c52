#include "stats/ci.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::stats {

namespace {
double z_critical(double confidence) {
  RCR_CHECK_MSG(confidence > 0.0 && confidence < 1.0,
                "confidence must lie in (0,1)");
  return normal_quantile(0.5 + 0.5 * confidence);
}

void validate_binomial(double successes, double n) {
  RCR_CHECK_MSG(n > 0.0, "proportion CI needs n > 0");
  RCR_CHECK_MSG(successes >= 0.0 && successes <= n,
                "successes out of [0, n]");
}
}  // namespace

Interval wilson_ci(double successes, double n, double confidence) {
  validate_binomial(successes, n);
  const double z = z_critical(confidence);
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {p, std::max(0.0, center - half), std::min(1.0, center + half)};
}

Interval mean_ci(std::span<const double> x, double confidence) {
  RCR_CHECK_MSG(x.size() >= 2, "mean CI needs n >= 2");
  const double m = mean(x);
  const double se = stddev(x) / std::sqrt(static_cast<double>(x.size()));
  const double z = z_critical(confidence);
  return {m, m - z * se, m + z * se};
}

Interval weighted_proportion_ci(double weighted_successes,
                                double weighted_total, double effective_n,
                                double confidence) {
  RCR_CHECK_MSG(weighted_total > 0.0, "weighted CI needs positive total");
  RCR_CHECK_MSG(effective_n > 0.0, "weighted CI needs positive effective n");
  const double p = weighted_successes / weighted_total;
  RCR_CHECK_MSG(p >= 0.0 && p <= 1.0, "weighted proportion out of [0,1]");
  // Wilson on the effective sample size; standard design-effect treatment.
  return wilson_ci(p * effective_n, effective_n, confidence);
}

}  // namespace rcr::stats
