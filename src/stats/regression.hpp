// Logistic regression for the trend analysis's adoption curves (GPU uptake
// vs. wave/field).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/matrix.hpp"

namespace rcr::stats {

struct LogisticResult {
  std::vector<double> coefficients;  // [intercept, b1, ...]
  std::vector<double> std_errors;
  double log_likelihood = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  std::size_t n = 0;

  // P(y = 1 | x) under the fitted model.
  double predict(std::span<const double> x) const;
};

// Binary logistic regression via Newton–Raphson with a small ridge term
// (lambda) for stability on separable data. `y` entries must be 0 or 1.
// Optional per-observation weights support the raking pipeline.
LogisticResult logistic_fit(const std::vector<std::vector<double>>& xs,
                            std::span<const double> y,
                            std::span<const double> weights = {},
                            double ridge_lambda = 1e-6,
                            std::size_t max_iter = 100, double tol = 1e-10);

// Logistic sigmoid, exposed because adoption-curve code reuses it.
double sigmoid(double z);

}  // namespace rcr::stats
