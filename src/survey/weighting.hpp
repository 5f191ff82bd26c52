// Post-stratification weighting by iterative proportional fitting (raking).
//
// Survey samples over-represent some strata (a CS department answering a
// computing survey more eagerly than a chemistry one). Raking adjusts each
// respondent's weight so the weighted marginals of chosen categorical
// variables match known population targets, without needing the full joint
// distribution. The F7 methodology figure quantifies the effect.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "data/table.hpp"

namespace rcr::survey {

// Population marginal for one categorical variable: label -> share.
// Shares must be positive and are normalized internally.
struct MarginTarget {
  std::string column;
  std::map<std::string, double> shares;
};

struct RakingResult {
  std::vector<double> weights;   // one per table row, mean 1.0
  std::size_t iterations = 0;
  bool converged = false;
  double max_residual = 0.0;     // final worst marginal error
  double design_effect = 1.0;    // 1 + CV²(weights) (Kish approximation)
  double effective_n = 0.0;      // n / design_effect
};

// Computes raking weights so that the weighted marginals of every target
// column match the given shares: at most 100 passes, stopping once every
// marginal is within 1e-8 of its target, then weights trimmed to
// [0.05, 20] times the mean. Rows with a missing value in any target
// column receive weight 1 and are excluded from calibration.
RakingResult rake_weights(const data::Table& table,
                          const std::vector<MarginTarget>& targets);

}  // namespace rcr::survey
