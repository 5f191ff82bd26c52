#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/matrix.hpp"
#include "stats/regression.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

// --- matrix -------------------------------------------------------------------

TEST(CholeskyTest, SolvesSpdSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 4; a.at(0, 1) = 2; a.at(1, 0) = 2; a.at(1, 1) = 3;
  const auto x = cholesky_solve(a, std::vector<double>{10.0, 8.0});
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-10);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-10);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 2; a.at(1, 1) = 1;
  EXPECT_THROW(cholesky_solve(a, std::vector<double>{1.0, 1.0}),
               rcr::ComputeError);
}

// --- logistic -------------------------------------------------------------------

TEST(SigmoidTest, BasicValues) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-14);
  EXPECT_NEAR(sigmoid(-800.0), 0.0, 1e-300);  // no overflow
  EXPECT_NEAR(sigmoid(800.0), 1.0, 1e-300);
}

TEST(LogisticTest, RecoversGeneratingModel) {
  rcr::Rng rng(9);
  std::vector<std::vector<double>> xs;
  std::vector<double> y;
  const double b0 = -1.0, b1 = 2.0;
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(-3, 3);
    xs.push_back({x});
    y.push_back(rng.bernoulli(sigmoid(b0 + b1 * x)) ? 1.0 : 0.0);
  }
  const auto fit = logistic_fit(xs, y);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.coefficients[0], b0, 0.15);
  EXPECT_NEAR(fit.coefficients[1], b1, 0.2);
  EXPECT_LT(fit.log_likelihood, 0.0);
  EXPECT_GT(fit.predict(std::vector<double>{3.0}), 0.95);
  EXPECT_LT(fit.predict(std::vector<double>{-3.0}), 0.1);
}

TEST(LogisticTest, SeparableDataStaysFiniteWithRidge) {
  std::vector<std::vector<double>> xs;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    xs.push_back({static_cast<double>(i)});
    y.push_back(i < 10 ? 0.0 : 1.0);
  }
  const auto fit = logistic_fit(xs, y, {}, /*ridge_lambda=*/1e-2);
  for (double c : fit.coefficients) EXPECT_TRUE(std::isfinite(c));
  EXPECT_GT(fit.coefficients[1], 0.0);
}

TEST(LogisticTest, WeightsShiftTheFit) {
  // Same data, but weighting the positive class more raises the intercept.
  std::vector<std::vector<double>> xs;
  std::vector<double> y, w_up, w_eq;
  rcr::Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    xs.push_back({rng.uniform(-1, 1)});
    y.push_back(rng.bernoulli(0.4) ? 1.0 : 0.0);
    w_eq.push_back(1.0);
    w_up.push_back(y.back() == 1.0 ? 3.0 : 1.0);
  }
  const auto base = logistic_fit(xs, y, w_eq);
  const auto boosted = logistic_fit(xs, y, w_up);
  EXPECT_GT(boosted.coefficients[0], base.coefficients[0]);
}

TEST(LogisticTest, RejectsNonBinaryLabels) {
  std::vector<std::vector<double>> xs = {{1.0}, {2.0}};
  EXPECT_THROW(logistic_fit(xs, std::vector<double>{0.0, 0.5}), rcr::Error);
}

}  // namespace
}  // namespace rcr::stats
