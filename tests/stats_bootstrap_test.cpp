#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/bootstrap.hpp"
#include "stats/ci.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, std::uint64_t seed) {
  rcr::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(5.0, 2.0);
  return v;
}

TEST(BootstrapTest, EstimateMatchesStatistic) {
  const auto data = normal_sample(200, 1);
  const auto r = bootstrap(
      data, [](std::span<const double> x) { return mean(x); });
  EXPECT_DOUBLE_EQ(r.estimate, mean(data));
  EXPECT_EQ(r.replicates.size(), 2000u);
}

TEST(BootstrapTest, DeterministicForSeed) {
  const auto data = normal_sample(100, 2);
  BootstrapOptions opts;
  opts.seed = 99;
  const auto a = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, opts);
  const auto b = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, opts);
  EXPECT_EQ(a.replicates, b.replicates);
}

TEST(BootstrapTest, SerialAndParallelIdentical) {
  const auto data = normal_sample(150, 3);
  rcr::parallel::ThreadPool pool(3);
  BootstrapOptions serial_opts;
  serial_opts.seed = 7;
  BootstrapOptions parallel_opts = serial_opts;
  parallel_opts.pool = &pool;
  const auto s = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, serial_opts);
  const auto p = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, parallel_opts);
  EXPECT_EQ(s.replicates, p.replicates);
  EXPECT_DOUBLE_EQ(s.percentile_ci.lo, p.percentile_ci.lo);
  EXPECT_DOUBLE_EQ(s.percentile_ci.hi, p.percentile_ci.hi);
}

TEST(BootstrapTest, StdErrorTracksTheory) {
  // SE of the mean ≈ sigma / sqrt(n) = 2 / sqrt(400) = 0.1.
  const auto data = normal_sample(400, 4);
  BootstrapOptions opts;
  opts.replicates = 4000;
  const auto r = bootstrap(
      data, [](std::span<const double> x) { return mean(x); }, opts);
  EXPECT_NEAR(r.std_error, 0.1, 0.03);
  EXPECT_NEAR(r.bias, 0.0, 0.02);
}

TEST(BootstrapTest, PercentileCiContainsEstimateForSmoothStat) {
  const auto data = normal_sample(300, 5);
  const auto r = bootstrap(
      data, [](std::span<const double> x) { return mean(x); });
  EXPECT_LT(r.percentile_ci.lo, r.estimate);
  EXPECT_GT(r.percentile_ci.hi, r.estimate);
  EXPECT_LT(r.normal_ci.lo, r.estimate);
  EXPECT_GT(r.normal_ci.hi, r.estimate);
}

TEST(BootstrapTest, ProportionAgreesWithWilson) {
  rcr::Rng rng(6);
  std::uint64_t successes = 0;
  for (int i = 0; i < 500; ++i) successes += rng.bernoulli(0.3) ? 1 : 0;
  BootstrapOptions opts;
  opts.replicates = 4000;
  const std::uint64_t counts[] = {500 - successes, successes};
  const auto boot = bootstrap_proportions(counts, opts).front();
  const auto wilson = wilson_ci(static_cast<double>(successes), 500.0);
  EXPECT_NEAR(boot.percentile_ci.lo, wilson.lo, 0.02);
  EXPECT_NEAR(boot.percentile_ci.hi, wilson.hi, 0.02);
}

TEST(BootstrapTest, ProportionPercentileIntervalCoversAtNominalRate) {
  // 400 independent samples at each (p, n), each bootstrapped with 1000
  // replicates and its own seed: the 95% percentile interval must cover p
  // at 0.95 ± 3 standard errors (sqrt(0.95 · 0.05 / 400) ≈ 0.011). A
  // sampler with half the variance covers p about 83% of the time.
  constexpr std::size_t kSamples = 400;
  std::uint64_t seed = 1;
  for (const double p : {0.3, 0.1}) {
    for (const std::uint64_t n : {std::uint64_t{400}, std::uint64_t{2000}}) {
      rcr::Rng rng(seed);
      std::size_t covered = 0;
      for (std::size_t s = 0; s < kSamples; ++s) {
        std::uint64_t ones = 0;
        for (std::uint64_t i = 0; i < n; ++i) ones += rng.bernoulli(p) ? 1 : 0;
        const std::uint64_t counts[] = {n - ones, ones};
        BootstrapOptions opts;
        opts.replicates = 1000;
        opts.seed = ++seed;
        const auto ci = bootstrap_proportions(counts, opts).front().percentile_ci;
        if (ci.lo <= p && p <= ci.hi) ++covered;
      }
      const double rate =
          static_cast<double>(covered) / static_cast<double>(kSamples);
      EXPECT_GE(rate, 0.917) << "p=" << p << " n=" << n;
      EXPECT_LE(rate, 0.983) << "p=" << p << " n=" << n;
    }
  }
}

TEST(BootstrapTest, ZeroVarianceDataGivesDegenerateInterval) {
  const std::vector<double> constant(50, 3.0);
  const auto r = bootstrap(
      constant, [](std::span<const double> x) { return mean(x); });
  EXPECT_DOUBLE_EQ(r.std_error, 0.0);
  EXPECT_DOUBLE_EQ(r.percentile_ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(r.percentile_ci.hi, 3.0);
}

TEST(BootstrapTest, MedianStatisticWorks) {
  const auto data = normal_sample(201, 8);
  const auto r = bootstrap(
      data, [](std::span<const double> x) { return median(x); });
  EXPECT_NEAR(r.estimate, 5.0, 0.5);
  EXPECT_GT(r.std_error, 0.0);
}

TEST(BootstrapTest, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(
      bootstrap(empty, [](std::span<const double> x) { return mean(x); }),
      rcr::Error);
  BootstrapOptions opts;
  opts.replicates = 1;
  EXPECT_THROW(bootstrap(normal_sample(10, 1),
                         [](std::span<const double> x) { return mean(x); },
                         opts),
               rcr::Error);
}

TEST(BootstrapTest, ProportionsRejectBadCounts) {
  using Counts = std::vector<std::uint64_t>;
  EXPECT_NO_THROW(bootstrap_proportions(Counts{1, 2, 0, 1}));
  EXPECT_NO_THROW(bootstrap_proportions(Counts(256, 1)));
  EXPECT_THROW(bootstrap_proportions(Counts{}), rcr::Error);
  EXPECT_THROW(bootstrap_proportions(Counts{5}), rcr::Error);
  EXPECT_THROW(bootstrap_proportions(Counts{1, 2, 3}), rcr::Error);
  EXPECT_THROW(bootstrap_proportions(Counts(512, 1)), rcr::Error);
  EXPECT_THROW(bootstrap_proportions(Counts{0, 0, 0, 0}), rcr::Error);
}

// Property: percentile CI endpoints are monotone in confidence level.
class BootstrapConfidenceTest : public ::testing::TestWithParam<double> {};

TEST_P(BootstrapConfidenceTest, WidthGrowsWithConfidence) {
  const auto data = normal_sample(120, 10);
  BootstrapOptions narrow, wide;
  narrow.confidence = GetParam();
  wide.confidence = std::min(0.995, GetParam() + 0.09);
  const auto stat = [](std::span<const double> x) { return mean(x); };
  const auto a = bootstrap(data, stat, narrow);
  const auto b = bootstrap(data, stat, wide);
  EXPECT_GE(b.percentile_ci.width(), a.percentile_ci.width() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Levels, BootstrapConfidenceTest,
                         ::testing::Values(0.5, 0.8, 0.9));

}  // namespace
}  // namespace rcr::stats
