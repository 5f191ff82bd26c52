// Tests for stratified allocation.
#include <gtest/gtest.h>

#include <numeric>

#include "survey/allocate.hpp"
#include "util/error.hpp"

namespace rcr {
namespace {

TEST(ProportionalAllocationTest, ExactWhenDivisible) {
  const auto n = survey::proportional_allocation(
      std::vector<double>{100, 200, 100}, 40);
  EXPECT_EQ(n, (std::vector<std::size_t>{10, 20, 10}));
}

TEST(ProportionalAllocationTest, SumsExactlyWithRemainders) {
  const std::vector<double> sizes = {3, 3, 3, 1};
  const auto n = survey::proportional_allocation(sizes, 10);
  EXPECT_EQ(std::accumulate(n.begin(), n.end(), std::size_t{0}), 10u);
  // Largest strata get at least their floor share.
  for (std::size_t h = 0; h < 3; ++h) EXPECT_GE(n[h], 3u);
}

TEST(NeymanAllocationTest, OversamplesHighVarianceStrata) {
  // Equal sizes, one noisy stratum: it should get the lion's share.
  const std::vector<double> sizes = {100, 100};
  const std::vector<double> sds = {1.0, 4.0};
  const auto n = survey::neyman_allocation(sizes, sds, 100);
  EXPECT_EQ(n[0] + n[1], 100u);
  EXPECT_EQ(n[0], 20u);  // 1/(1+4) of the sample
  EXPECT_EQ(n[1], 80u);
}

TEST(NeymanAllocationTest, ReducesToProportionalForEqualSds) {
  const std::vector<double> sizes = {50, 150, 100};
  const std::vector<double> sds = {2.0, 2.0, 2.0};
  EXPECT_EQ(survey::neyman_allocation(sizes, sds, 60),
            survey::proportional_allocation(sizes, 60));
}

TEST(AllocationTest, RejectsBadInput) {
  EXPECT_THROW(survey::proportional_allocation(std::vector<double>{}, 10),
               rcr::Error);
  EXPECT_THROW(
      survey::proportional_allocation(std::vector<double>{0.0, 0.0}, 10),
      rcr::Error);
  EXPECT_THROW(survey::neyman_allocation(std::vector<double>{1.0},
                                         std::vector<double>{1.0, 2.0}, 10),
               rcr::Error);
  EXPECT_THROW(survey::neyman_allocation(std::vector<double>{1.0},
                                         std::vector<double>{-1.0}, 10),
               rcr::Error);
}

}  // namespace
}  // namespace rcr
