#include <gtest/gtest.h>

#include <vector>

#include "stats/nonparametric.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

TEST(WilcoxonTest, SymmetricDifferencesNotSignificant) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> y = {2, 1, 4, 3, 6, 5, 8, 7};
  const auto r = wilcoxon_signed_rank(x, y);
  EXPECT_GT(r.p_value, 0.5);
  EXPECT_EQ(r.n_nonzero, 8u);
}

TEST(WilcoxonTest, ConsistentShiftDetected) {
  std::vector<double> x, y;
  rcr::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const double base = rng.normal(10, 2);
    x.push_back(base + 1.0 + rng.normal(0, 0.2));
    y.push_back(base);
  }
  const auto r = wilcoxon_signed_rank(x, y);
  EXPECT_GT(r.z, 3.0);  // W+ dominates
  EXPECT_LT(r.p_value, 0.001);
}

TEST(WilcoxonTest, AllZeroDifferencesGivePOne) {
  const std::vector<double> x = {1, 2, 3};
  const auto r = wilcoxon_signed_rank(x, x);
  EXPECT_EQ(r.n_nonzero, 0u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WilcoxonTest, RejectsMismatch) {
  EXPECT_THROW(wilcoxon_signed_rank(std::vector<double>{1.0},
                                    std::vector<double>{1.0, 2.0}),
               rcr::Error);
}

}  // namespace
}  // namespace rcr::stats
