#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/ci.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

TEST(WilsonTest, KnownValue) {
  // Hand-computed: 10/40 at 95% -> [0.1419, 0.4019] (Wilson).
  const auto ci = wilson_ci(10, 40);
  EXPECT_NEAR(ci.estimate, 0.25, 1e-12);
  EXPECT_NEAR(ci.lo, 0.1419, 5e-4);
  EXPECT_NEAR(ci.hi, 0.4019, 5e-4);
}

TEST(WilsonTest, ZeroAndAllSuccesses) {
  const auto zero = wilson_ci(0, 20);
  EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
  EXPECT_NEAR(zero.lo, 0.0, 1e-12);
  EXPECT_GT(zero.hi, 0.0);  // never degenerate, unlike Wald
  const auto all = wilson_ci(20, 20);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
}

TEST(WilsonTest, HigherConfidenceIsWider) {
  const auto c90 = wilson_ci(15, 50, 0.90);
  const auto c99 = wilson_ci(15, 50, 0.99);
  EXPECT_GT(c99.width(), c90.width());
}

TEST(ProportionCiTest, RejectsInvalidInput) {
  EXPECT_THROW(wilson_ci(5, 0), rcr::Error);
  EXPECT_THROW(wilson_ci(11, 10), rcr::Error);
  EXPECT_THROW(wilson_ci(-1, 10), rcr::Error);
  EXPECT_THROW(wilson_ci(5, 10, 1.0), rcr::Error);
  EXPECT_THROW(wilson_ci(5, 10, 0.0), rcr::Error);
}

TEST(MeanCiTest, ShrinksWithN) {
  rcr::Rng rng(5);
  std::vector<double> small, large;
  for (int i = 0; i < 20; ++i) small.push_back(rng.normal(10, 2));
  for (int i = 0; i < 2000; ++i) large.push_back(rng.normal(10, 2));
  const auto ci_small = mean_ci(small);
  const auto ci_large = mean_ci(large);
  EXPECT_LT(ci_large.width(), ci_small.width());
  EXPECT_TRUE(ci_large.contains(10.0));
}

TEST(MeanCiTest, RequiresTwoPoints) {
  EXPECT_THROW(mean_ci(std::vector<double>{1.0}), rcr::Error);
}

TEST(WeightedCiTest, EqualWeightsMatchWilson) {
  const auto w = weighted_proportion_ci(30.0, 100.0, 100.0);
  const auto plain = wilson_ci(30, 100);
  EXPECT_NEAR(w.lo, plain.lo, 1e-12);
  EXPECT_NEAR(w.hi, plain.hi, 1e-12);
}

TEST(WeightedCiTest, SmallerEffectiveNIsWider) {
  const auto full = weighted_proportion_ci(30.0, 100.0, 100.0);
  const auto shrunk = weighted_proportion_ci(30.0, 100.0, 50.0);
  EXPECT_GT(shrunk.width(), full.width());
}

// Coverage property: the Wilson interval at 95% should cover the true p in
// roughly 95% of simulated binomial samples (within Monte-Carlo noise).
class WilsonCoverageTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(WilsonCoverageTest, NominalCoverage) {
  const auto [p, n] = GetParam();
  rcr::Rng rng(12345);
  const int trials = 4000;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    int successes = 0;
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(p)) ++successes;
    if (wilson_ci(successes, n).contains(p)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  // Wilson's actual coverage oscillates around nominal; allow a band.
  EXPECT_GT(coverage, 0.92) << "p=" << p << " n=" << n;
  EXPECT_LE(coverage, 0.995) << "p=" << p << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WilsonCoverageTest,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5, 0.8),
                       ::testing::Values(25, 100, 400)));

}  // namespace
}  // namespace rcr::stats
