// Tests for BCa bootstrap intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

// --- BCa bootstrap -------------------------------------------------------------------

std::vector<double> skewed_sample(std::size_t n, std::uint64_t seed) {
  rcr::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.lognormal(0.0, 1.0);
  return v;
}

TEST(BcaTest, ComputedOnlyWhenRequested) {
  const auto data = skewed_sample(150, 1);
  const auto stat = [](std::span<const double> x) { return mean(x); };
  BootstrapOptions off;
  const auto without = bootstrap(data, stat, off);
  EXPECT_DOUBLE_EQ(without.bca_ci.lo, 0.0);
  EXPECT_DOUBLE_EQ(without.bca_ci.hi, 0.0);

  BootstrapOptions on;
  on.compute_bca = true;
  const auto with = bootstrap(data, stat, on);
  EXPECT_LT(with.bca_ci.lo, with.estimate);
  EXPECT_GT(with.bca_ci.hi, with.estimate);
}

TEST(BcaTest, NearPercentileForSymmetricStatistic) {
  rcr::Rng rng(2);
  std::vector<double> data(300);
  for (double& x : data) x = rng.normal(5.0, 1.0);
  BootstrapOptions opts;
  opts.compute_bca = true;
  opts.replicates = 4000;
  const auto r = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, opts);
  // Symmetric sampling distribution: BCa ≈ percentile.
  EXPECT_NEAR(r.bca_ci.lo, r.percentile_ci.lo, 0.02);
  EXPECT_NEAR(r.bca_ci.hi, r.percentile_ci.hi, 0.02);
  EXPECT_NEAR(r.bca_bias_z0, 0.0, 0.1);
}

TEST(BcaTest, SkewedStatisticShiftsInterval) {
  const auto data = skewed_sample(120, 3);
  BootstrapOptions opts;
  opts.compute_bca = true;
  opts.replicates = 4000;
  const auto r = bootstrap(
      data,
      [](std::span<const double> x) { return variance(x); },  // right-skewed
      opts);
  // Acceleration should be clearly nonzero for the variance of lognormals,
  // and the BCa interval should differ from the percentile one.
  EXPECT_GT(std::fabs(r.bca_acceleration), 0.01);
  EXPECT_GT(std::fabs(r.bca_ci.lo - r.percentile_ci.lo) +
                std::fabs(r.bca_ci.hi - r.percentile_ci.hi),
            0.01);
}

TEST(BcaTest, DeterministicForSeed) {
  const auto data = skewed_sample(80, 4);
  BootstrapOptions opts;
  opts.compute_bca = true;
  opts.seed = 55;
  const auto stat = [](std::span<const double> x) { return median(x); };
  const auto a = bootstrap(data, stat, opts);
  const auto b = bootstrap(data, stat, opts);
  EXPECT_DOUBLE_EQ(a.bca_ci.lo, b.bca_ci.lo);
  EXPECT_DOUBLE_EQ(a.bca_ci.hi, b.bca_ci.hi);
}

}  // namespace
}  // namespace rcr::stats
