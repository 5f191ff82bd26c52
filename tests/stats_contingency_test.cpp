#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/contingency.hpp"
#include "stats/descriptive.hpp"
#include "stats/special.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

TEST(ContingencyTest, TotalsAndExpected) {
  Contingency t{{10, 20}, {30, 40}};
  EXPECT_DOUBLE_EQ(t.row_total(0), 30.0);
  EXPECT_DOUBLE_EQ(t.row_total(1), 70.0);
  EXPECT_DOUBLE_EQ(t.col_total(0), 40.0);
  EXPECT_DOUBLE_EQ(t.col_total(1), 60.0);
  EXPECT_DOUBLE_EQ(t.grand_total(), 100.0);
  EXPECT_DOUBLE_EQ(t.expected(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(t.expected(1, 1), 42.0);
}

TEST(ContingencyTest, AddAccumulates) {
  Contingency t(2, 2);
  t.add(0, 1);
  t.add(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 3.5);
  EXPECT_THROW(t.add(0, 0, -1.0), rcr::Error);
}

TEST(ContingencyTest, RejectsRaggedOrNegative) {
  EXPECT_THROW((Contingency{{1, 2}, {3}}), rcr::Error);
  EXPECT_THROW((Contingency{{1, -2}}), rcr::Error);
}

TEST(ContingencyTest, WithoutEmptyMargins) {
  Contingency t{{5, 0, 3}, {0, 0, 0}, {2, 0, 1}};
  const auto clean = t.without_empty_margins();
  EXPECT_EQ(clean.rows(), 2u);
  EXPECT_EQ(clean.cols(), 2u);
  EXPECT_DOUBLE_EQ(clean.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(clean.at(1, 1), 1.0);
}

TEST(ChiSquareTest, KnownTwoByTwo) {
  // Standard textbook example: chi2 = 100 * (10*40-20*30)^2 / (30*70*40*60)
  Contingency t{{10, 20}, {30, 40}};
  const auto r = chi_square_independence(t);
  EXPECT_NEAR(r.statistic, 100.0 * 40000.0 / 5040000.0, 1e-10);  // ~0.7937
  EXPECT_DOUBLE_EQ(r.dof, 1.0);
  EXPECT_NEAR(r.p_value, 0.37293, 1e-4);
  EXPECT_NEAR(r.cramers_v, std::sqrt(r.statistic / 100.0), 1e-12);
}

TEST(ChiSquareTest, IndependentTableScoresZero) {
  // Perfectly proportional rows.
  Contingency t{{10, 20, 30}, {20, 40, 60}};
  const auto r = chi_square_independence(t);
  EXPECT_NEAR(r.statistic, 0.0, 1e-10);
  EXPECT_NEAR(r.p_value, 1.0, 1e-10);
}

TEST(ChiSquareTest, StrongAssociation) {
  Contingency t{{50, 0}, {0, 50}};
  const auto r = chi_square_independence(t);
  EXPECT_NEAR(r.statistic, 100.0, 1e-10);
  EXPECT_LT(r.p_value, 1e-20);
  EXPECT_NEAR(r.cramers_v, 1.0, 1e-12);
}

TEST(ChiSquareTest, RejectsDegenerate) {
  Contingency one_row{{1, 2}};
  EXPECT_THROW(chi_square_independence(one_row), rcr::Error);
  Contingency zero_col{{1, 0}, {1, 0}};
  EXPECT_THROW(chi_square_independence(zero_col), rcr::Error);
}

TEST(TwoProportionTest, KnownZ) {
  // p1 = 60/100, p2 = 40/100: z = 0.2 / sqrt(0.5*0.5*(0.02)) ≈ 2.8284.
  const auto r = two_proportion_test(60, 100, 40, 100);
  EXPECT_NEAR(r.z, 2.828427, 1e-5);
  EXPECT_NEAR(r.p_value, 0.004678, 1e-5);
  EXPECT_NEAR(r.diff, 0.2, 1e-12);
  EXPECT_LT(r.diff_ci_lo, 0.2);
  EXPECT_GT(r.diff_ci_hi, 0.2);
}

TEST(TwoProportionTest, IdenticalProportions) {
  const auto r = two_proportion_test(30, 100, 30, 100);
  EXPECT_DOUBLE_EQ(r.z, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(TwoProportionTest, DegenerateAllSuccesses) {
  const auto r = two_proportion_test(10, 10, 10, 10);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);  // pooled SE is zero, no evidence
}

TEST(OddsRatioTest, HaldaneCorrectionOnlyWithZeros) {
  EXPECT_DOUBLE_EQ(odds_ratio(10, 20, 30, 40), (10.0 * 40) / (20.0 * 30));
  // With a zero cell the 0.5 correction applies.
  EXPECT_DOUBLE_EQ(odds_ratio(10, 0, 5, 5),
                   (10.5 * 5.5) / (0.5 * 5.5));
}

TEST(MannWhitneyTest, KnownSmallExample) {
  // x clearly below y.
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, 5, 6};
  const auto r = mann_whitney_u(x, y);
  EXPECT_DOUBLE_EQ(r.u, 0.0);
  EXPECT_DOUBLE_EQ(r.effect_size, 0.0);
  EXPECT_LT(r.z, 0.0);
}

TEST(MannWhitneyTest, SymmetricSamples) {
  const std::vector<double> x = {1, 4, 5, 8};
  const std::vector<double> y = {2, 3, 6, 7};
  const auto r = mann_whitney_u(x, y);
  EXPECT_DOUBLE_EQ(r.u, 8.0);  // exactly nx*ny/2
  EXPECT_DOUBLE_EQ(r.effect_size, 0.5);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
}

TEST(MannWhitneyTest, HandlesTies) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {2, 3, 3, 4};
  const auto r = mann_whitney_u(x, y);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
  EXPECT_LT(r.effect_size, 0.5);
}

// mann_whitney_u as its definition reads: midranks of the pooled sample
// (stats::ranks), the x rank sum, and the tie term over the sorted pooled
// sample's tie groups.
MannWhitneyResult mann_whitney_reference(const std::vector<double>& x,
                                         const std::vector<double>& y) {
  std::vector<double> pooled(x);
  pooled.insert(pooled.end(), y.begin(), y.end());
  const auto r = ranks(pooled);
  double rank_sum_x = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rank_sum_x += r[i];
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const double n = nx + ny;
  MannWhitneyResult out;
  out.u = rank_sum_x - nx * (nx + 1.0) / 2.0;
  out.effect_size = out.u / (nx * ny);
  std::sort(pooled.begin(), pooled.end());
  double tie_term = 0.0;
  for (std::size_t i = 0; i < pooled.size();) {
    std::size_t j = i;
    while (j + 1 < pooled.size() && pooled[j + 1] == pooled[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double sigma2 =
      nx * ny / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (sigma2 > 0.0) {
    const double num = out.u - nx * ny / 2.0;
    const double corrected =
        num > 0.5 ? num - 0.5 : (num < -0.5 ? num + 0.5 : 0.0);
    out.z = corrected / std::sqrt(sigma2);
    out.p_value = 2.0 * normal_sf(std::fabs(out.z));
  }
  return out;
}

void expect_matches_reference(const std::vector<double>& x,
                              const std::vector<double>& y) {
  const auto got = mann_whitney_u(x, y);
  const auto want = mann_whitney_reference(x, y);
  EXPECT_EQ(got.u, want.u);
  EXPECT_EQ(got.z, want.z);
  EXPECT_EQ(got.p_value, want.p_value);
  EXPECT_EQ(got.effect_size, want.effect_size);
}

TEST(MannWhitneyTest, MatchesPooledRanksOnTiedLikertData) {
  Rng rng(41);
  std::vector<double> x(5000), y(25000);
  for (double& v : x) v = static_cast<double>(rng.uniform_int(1, 5));
  for (double& v : y) v = static_cast<double>(rng.uniform_int(2, 5));
  expect_matches_reference(x, y);
  expect_matches_reference(y, x);
  // Already-sorted input takes the same walk.
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  expect_matches_reference(x, y);
}

TEST(MannWhitneyTest, MatchesPooledRanksWithoutTies) {
  Rng rng(43);
  std::vector<double> x(3000), y(4000);
  for (double& v : x) v = rng.next_double();
  for (double& v : y) v = 0.1 + rng.next_double();
  expect_matches_reference(x, y);
  expect_matches_reference(y, x);
}

TEST(MannWhitneyTest, MatchesPooledRanksOnTinySamples) {
  expect_matches_reference({3.0}, {1.0, 3.0, 5.0});
  expect_matches_reference({1.0, 3.0, 5.0}, {3.0});
  expect_matches_reference({2.0}, {7.0});
  expect_matches_reference({2.0}, {2.0});
  // Signed zeros compare equal, so they share one tie group.
  expect_matches_reference({0.0, -0.0, 1.0}, {-0.0, 2.0});
}

TEST(MannWhitneyTest, RejectsNaNAndEmptySamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(mann_whitney_u(std::vector<double>{1.0, nan},
                              std::vector<double>{2.0}),
               rcr::Error);
  EXPECT_THROW(mann_whitney_u(std::vector<double>{1.0},
                              std::vector<double>{nan, 2.0}),
               rcr::Error);
  EXPECT_THROW(mann_whitney_u(std::vector<double>{},
                              std::vector<double>{2.0}),
               rcr::Error);
}

TEST(HolmTest, KnownAdjustment) {
  const std::vector<double> p = {0.01, 0.04, 0.03, 0.005};
  const auto adj = holm_adjust(p);
  // Sorted: 0.005*4=0.02, 0.01*3=0.03, 0.03*2=0.06, 0.04*1=0.06 (monotone).
  EXPECT_NEAR(adj[3], 0.02, 1e-12);
  EXPECT_NEAR(adj[0], 0.03, 1e-12);
  EXPECT_NEAR(adj[2], 0.06, 1e-12);
  EXPECT_NEAR(adj[1], 0.06, 1e-12);
}

TEST(HolmTest, ClampsAtOne) {
  const auto adj = holm_adjust(std::vector<double>{0.9, 0.8});
  for (double a : adj) EXPECT_LE(a, 1.0);
}

TEST(HolmTest, SingleTestUnchanged) {
  const auto adj = holm_adjust(std::vector<double>{0.037});
  EXPECT_DOUBLE_EQ(adj[0], 0.037);
}

TEST(HolmTest, RejectsInvalidP) {
  EXPECT_THROW(holm_adjust(std::vector<double>{1.2}), rcr::Error);
  EXPECT_THROW(holm_adjust(std::vector<double>{-0.1}), rcr::Error);
}

// Property: chi-square statistic is invariant under row/column swaps.
class ChiSquareSymmetryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChiSquareSymmetryTest, TransposeInvariant) {
  const auto [a, b] = GetParam();
  Contingency t{{static_cast<double>(a), 13.0},
                {7.0, static_cast<double>(b)}};
  Contingency tt{{static_cast<double>(a), 7.0},
                 {13.0, static_cast<double>(b)}};
  EXPECT_NEAR(chi_square_independence(t).statistic,
              chi_square_independence(tt).statistic, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Cells, ChiSquareSymmetryTest,
                         ::testing::Combine(::testing::Values(3, 11, 29),
                                            ::testing::Values(5, 17, 42)));

}  // namespace
}  // namespace rcr::stats
