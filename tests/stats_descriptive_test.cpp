#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(DescriptiveTest, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(mean(kSample), 5.0);
  // Known population variance of this classic sample is 4.
  EXPECT_NEAR(variance(kSample), 4.0 * 8.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(kSample), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, SumIsAccurateForMixedMagnitudes) {
  // Neumaier summation survives a large term cancelling back out; a naive
  // loop returns 0 here because 1e16 + 1 rounds to 1e16.
  const std::vector<double> v = {1e16, 1.0, -1e16};
  EXPECT_DOUBLE_EQ(sum(v), 1.0);
}

TEST(DescriptiveTest, MinMax) {
  EXPECT_DOUBLE_EQ(min(kSample), 2.0);
  EXPECT_DOUBLE_EQ(max(kSample), 9.0);
}

TEST(DescriptiveTest, EmptyDataThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), rcr::Error);
  EXPECT_THROW(min(empty), rcr::Error);
  EXPECT_THROW(quantile(empty, 0.5), rcr::Error);
  EXPECT_THROW(variance(std::vector<double>{1.0}), rcr::Error);
}

TEST(QuantileTest, Type7Interpolation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);  // numpy default agrees
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
}

TEST(QuantileTest, SingleElement) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 42.0);
}

TEST(QuantileTest, RejectsOutOfRangeQ) {
  EXPECT_THROW(quantile(kSample, -0.1), rcr::Error);
  EXPECT_THROW(quantile(kSample, 1.1), rcr::Error);
}

TEST(RanksTest, TiesGetAverageRank) {
  const auto r = ranks(std::vector<double>{10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(RanksTest, AllEqual) {
  const auto r = ranks(std::vector<double>{7.0, 7.0, 7.0});
  for (double v : r) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(SummaryTest, AllFieldsConsistent) {
  const auto s = summarize(kSample);
  EXPECT_EQ(s.n, kSample.size());
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
}

// Property: quantiles are monotone in q for random data.
class QuantileMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotoneTest, MonotoneInQ) {
  rcr::Rng rng(GetParam());
  std::vector<double> v(57);
  for (double& x : v) x = rng.normal(0.0, 3.0);
  std::sort(v.begin(), v.end());
  double prev = quantile_sorted(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile_sorted(v, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rcr::stats
