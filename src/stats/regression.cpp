#include "stats/regression.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace rcr::stats {

namespace {

// Builds the design matrix with a leading intercept column.
Matrix design_matrix(const std::vector<std::vector<double>>& xs) {
  RCR_CHECK_MSG(!xs.empty(), "regression needs observations");
  const std::size_t p = xs.front().size();
  Matrix x(xs.size(), p + 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    RCR_CHECK_MSG(xs[i].size() == p, "ragged predictor rows");
    x.at(i, 0) = 1.0;
    for (std::size_t j = 0; j < p; ++j) x.at(i, j + 1) = xs[i][j];
  }
  return x;
}

double linear_predictor(std::span<const double> coef,
                        std::span<const double> x) {
  RCR_CHECK_MSG(coef.size() == x.size() + 1,
                "predictor length does not match fitted coefficients");
  double z = coef[0];
  for (std::size_t j = 0; j < x.size(); ++j) z += coef[j + 1] * x[j];
  return z;
}

}  // namespace

double sigmoid(double z) {
  // Branch keeps exp() argument non-positive: no overflow either direction.
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double LogisticResult::predict(std::span<const double> x) const {
  return sigmoid(linear_predictor(coefficients, x));
}

LogisticResult logistic_fit(const std::vector<std::vector<double>>& xs,
                            std::span<const double> y,
                            std::span<const double> weights,
                            double ridge_lambda, std::size_t max_iter,
                            double tol) {
  RCR_CHECK_MSG(xs.size() == y.size(), "logistic x/y size mismatch");
  const bool weighted = !weights.empty();
  if (weighted)
    RCR_CHECK_MSG(weights.size() == y.size(), "logistic weight size mismatch");
  for (double v : y)
    RCR_CHECK_MSG(v == 0.0 || v == 1.0, "logistic labels must be 0/1");

  const Matrix x = design_matrix(xs);
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  RCR_CHECK_MSG(n >= k, "logistic needs at least as many rows as parameters");

  LogisticResult r;
  r.n = n;
  r.coefficients.assign(k, 0.0);

  std::vector<double> eta(n), mu(n);
  Matrix hessian(k, k);
  std::vector<double> gradient(k);

  for (std::size_t iter = 1; iter <= max_iter; ++iter) {
    // eta = X beta; mu = sigmoid(eta).
    for (std::size_t i = 0; i < n; ++i) {
      double z = 0.0;
      for (std::size_t j = 0; j < k; ++j) z += x.at(i, j) * r.coefficients[j];
      eta[i] = z;
      mu[i] = sigmoid(z);
    }
    // Gradient = X^T W (y - mu) - lambda beta; Hessian = X^T W S X + lambda I
    // with S = mu(1-mu).
    for (std::size_t j = 0; j < k; ++j) {
      gradient[j] = -ridge_lambda * r.coefficients[j];
      for (std::size_t jj = 0; jj < k; ++jj)
        hessian.at(j, jj) = (j == jj) ? ridge_lambda : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weighted ? weights[i] : 1.0;
      const double resid = w * (y[i] - mu[i]);
      const double s = w * mu[i] * (1.0 - mu[i]);
      for (std::size_t j = 0; j < k; ++j) {
        gradient[j] += x.at(i, j) * resid;
        for (std::size_t jj = j; jj < k; ++jj)
          hessian.at(j, jj) += s * x.at(i, j) * x.at(i, jj);
      }
    }
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t jj = 0; jj < j; ++jj)
        hessian.at(j, jj) = hessian.at(jj, j);

    const auto step = cholesky_solve(hessian, gradient);
    double max_step = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      r.coefficients[j] += step[j];
      max_step = std::max(max_step, std::fabs(step[j]));
    }
    r.iterations = iter;
    if (max_step < tol) {
      r.converged = true;
      break;
    }
  }

  // Log-likelihood and standard errors at the final estimate.
  r.log_likelihood = 0.0;
  Matrix info(k, k);
  for (std::size_t j = 0; j < k; ++j) info.at(j, j) = ridge_lambda;
  for (std::size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (std::size_t j = 0; j < k; ++j) z += x.at(i, j) * r.coefficients[j];
    const double p = sigmoid(z);
    const double w = weighted ? weights[i] : 1.0;
    // Clamp avoids log(0) on perfectly separated points.
    const double pc = std::min(1.0 - 1e-15, std::max(1e-15, p));
    r.log_likelihood +=
        w * (y[i] * std::log(pc) + (1.0 - y[i]) * std::log1p(-pc));
    const double s = w * p * (1.0 - p);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t jj = j; jj < k; ++jj)
        info.at(j, jj) += s * x.at(i, j) * x.at(i, jj);
  }
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t jj = 0; jj < j; ++jj) info.at(j, jj) = info.at(jj, j);

  r.std_errors.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> e(k, 0.0);
    e[j] = 1.0;
    const auto col = cholesky_solve(info, e);
    r.std_errors[j] = std::sqrt(std::max(0.0, col[j]));
  }
  return r;
}

}  // namespace rcr::stats
