#include <gtest/gtest.h>

#include <vector>

#include "stats/histogram.hpp"
#include "util/error.hpp"

namespace rcr::stats {
namespace {

TEST(Log2HistogramTest, BinsPowersOfTwo) {
  Log2Histogram h(0, 4);  // [1,2), [2,4), [4,8), [8,16)
  h.add(1.0);
  h.add(3.0);
  h.add(4.0);
  h.add(15.9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_EQ(h.bin_label(1), "[2^1, 2^2)");
}

TEST(Log2HistogramTest, ClampsAndNegativeExponents) {
  Log2Histogram h(-2, 2);  // [0.25,0.5), [0.5,1), [1,2), [2,4)
  h.add(0.3);
  h.add(0.001);  // clamps to the first bin
  h.add(100.0);  // clamps to the last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_THROW(h.add(0.0), rcr::Error);
  EXPECT_THROW(h.add(-2.0), rcr::Error);
}

TEST(EmpiricalCdfTest, UnweightedSteps) {
  const auto cdf = empirical_cdf(std::vector<double>{3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].cumulative, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].cumulative, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative, 1.0);
}

TEST(EmpiricalCdfTest, WeightedSteps) {
  const std::vector<double> v = {1.0, 2.0};
  const std::vector<double> w = {3.0, 1.0};
  const auto cdf = empirical_cdf(v, w);
  EXPECT_DOUBLE_EQ(cdf[0].cumulative, 0.75);
  EXPECT_DOUBLE_EQ(cdf[1].cumulative, 1.0);
}

TEST(EmpiricalCdfTest, RejectsBadInput) {
  EXPECT_THROW(empirical_cdf(std::vector<double>{}), rcr::Error);
  EXPECT_THROW(
      empirical_cdf(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
      rcr::Error);
  EXPECT_THROW(
      empirical_cdf(std::vector<double>{1.0}, std::vector<double>{0.0}),
      rcr::Error);
}

}  // namespace
}  // namespace rcr::stats
