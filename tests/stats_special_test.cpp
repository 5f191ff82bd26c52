#include <gtest/gtest.h>

#include <cmath>

#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::stats {
namespace {

TEST(LogGammaTest, IntegerFactorials) {
  // Γ(n) = (n-1)!
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-9);
}

TEST(LogGammaTest, HalfInteger) {
  // Γ(1/2) = sqrt(pi).
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-10);
  // Γ(3/2) = sqrt(pi)/2.
  EXPECT_NEAR(log_gamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-10);
}

TEST(LogGammaTest, LargeArgumentStirlingAgreement) {
  const double x = 150.5;
  const double stirling = (x - 0.5) * std::log(x) - x +
                          0.5 * std::log(2.0 * M_PI) + 1.0 / (12.0 * x);
  EXPECT_NEAR(log_gamma(x) / stirling, 1.0, 1e-8);
}

TEST(LogGammaTest, RejectsNonPositive) {
  EXPECT_THROW(log_gamma(0.0), rcr::Error);
  EXPECT_THROW(log_gamma(-1.0), rcr::Error);
}

TEST(GammaPTest, KnownValues) {
  // P(1, x) = 1 - e^{-x}.
  EXPECT_NEAR(gamma_p(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(gamma_p(0.5, 1.0), std::erf(1.0), 1e-10);
  EXPECT_NEAR(gamma_p(3.0, 0.0), 0.0, 1e-15);
}

TEST(GammaPTest, ComplementsSumToOne) {
  for (double a : {0.3, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(BetaIncTest, KnownValues) {
  // I_x(1,1) = x.
  EXPECT_NEAR(beta_inc(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(2,2) = x^2 (3 - 2x).
  EXPECT_NEAR(beta_inc(2.0, 2.0, 0.4), 0.16 * (3.0 - 0.8), 1e-10);
  EXPECT_NEAR(beta_inc(2.0, 3.0, 0.0), 0.0, 1e-15);
  EXPECT_NEAR(beta_inc(2.0, 3.0, 1.0), 1.0, 1e-15);
}

TEST(BetaIncTest, SymmetryIdentity) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double x : {0.1, 0.37, 0.62, 0.9}) {
    EXPECT_NEAR(beta_inc(2.5, 4.0, x), 1.0 - beta_inc(4.0, 2.5, 1.0 - x),
                1e-10);
  }
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-8);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-10);
  EXPECT_NEAR(normal_sf(1.0), 0.15865525393145707, 1e-10);
}

TEST(NormalQuantileTest, RoundTripsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantileTest, KnownCriticalValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-7);
  EXPECT_NEAR(normal_quantile(0.95), 1.644853627, 1e-7);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
}

TEST(NormalQuantileTest, RejectsBoundary) {
  EXPECT_THROW(normal_quantile(0.0), rcr::Error);
  EXPECT_THROW(normal_quantile(1.0), rcr::Error);
}

TEST(Chi2SfTest, KnownCriticalValues) {
  // Classic table: chi2(3.841, 1) = 0.05, chi2(5.991, 2) = 0.05.
  EXPECT_NEAR(chi2_sf(3.841458821, 1.0), 0.05, 1e-7);
  EXPECT_NEAR(chi2_sf(5.991464547, 2.0), 0.05, 1e-7);
  EXPECT_NEAR(chi2_sf(6.634896601, 1.0), 0.01, 1e-7);
  EXPECT_NEAR(chi2_sf(0.0, 4.0), 1.0, 1e-15);
}

TEST(Chi2SfTest, KDofEqualsExponentialForTwo) {
  // chi2 with 2 dof is Exp(1/2): SF(x) = e^{-x/2}.
  for (double x : {0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(chi2_sf(x, 2.0), std::exp(-x / 2.0), 1e-10);
}

TEST(LogChooseTest, SmallCases) {
  EXPECT_NEAR(log_choose(5, 2), std::log(10.0), 1e-10);
  EXPECT_NEAR(log_choose(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(log_choose(10, 10), 0.0, 1e-12);
  EXPECT_NEAR(log_choose(52, 5), std::log(2598960.0), 1e-8);
}

TEST(LogChooseTest, RejectsOutOfRange) {
  EXPECT_THROW(log_choose(3, 4), rcr::Error);
  EXPECT_THROW(log_choose(-1, 0), rcr::Error);
}

}  // namespace
}  // namespace rcr::stats
