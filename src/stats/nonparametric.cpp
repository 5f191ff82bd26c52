#include "stats/nonparametric.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::stats {

WilcoxonResult wilcoxon_signed_rank(std::span<const double> x,
                                    std::span<const double> y) {
  RCR_CHECK_MSG(x.size() == y.size(), "wilcoxon needs paired samples");
  RCR_CHECK_MSG(!x.empty(), "wilcoxon of empty data");

  std::vector<double> abs_diff;
  std::vector<int> sign;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    if (d == 0.0) continue;
    abs_diff.push_back(std::fabs(d));
    sign.push_back(d > 0.0 ? 1 : -1);
  }
  WilcoxonResult result;
  result.n_nonzero = abs_diff.size();
  if (abs_diff.empty()) return result;  // all ties: no evidence, p = 1

  const auto r = ranks(abs_diff);
  double w_plus = 0.0, w_minus = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    (sign[i] > 0 ? w_plus : w_minus) += r[i];
  }
  result.w = std::min(w_plus, w_minus);

  const double n = static_cast<double>(abs_diff.size());
  const double mu = n * (n + 1.0) / 4.0;
  // Tie correction on the variance.
  std::vector<double> sorted(abs_diff);
  std::sort(sorted.begin(), sorted.end());
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double sigma2 =
      n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 - tie_term / 48.0;
  if (sigma2 > 0.0) {
    const double num = w_plus - mu;  // use W+ so sign is meaningful
    const double corrected =
        num > 0.5 ? num - 0.5 : (num < -0.5 ? num + 0.5 : 0.0);
    result.z = corrected / std::sqrt(sigma2);
    result.p_value = 2.0 * normal_sf(std::fabs(result.z));
  }
  return result;
}

}  // namespace rcr::stats
