// Paired-sample nonparametric test with proper tie handling, for paired
// comparisons such as two scenario arms replicated on shared streams.
#pragma once

#include <cstddef>
#include <span>

namespace rcr::stats {

struct WilcoxonResult {
  double w = 0.0;         // signed-rank statistic (min of W+ / W-)
  double z = 0.0;         // normal approximation with tie correction
  double p_value = 1.0;   // two-sided
  std::size_t n_nonzero = 0;  // pairs with a nonzero difference
};

// Wilcoxon signed-rank test for paired samples (x[i] vs y[i]).
// Zero differences are dropped (the standard treatment).
WilcoxonResult wilcoxon_signed_rank(std::span<const double> x,
                                    std::span<const double> y);

}  // namespace rcr::stats
