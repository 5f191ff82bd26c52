#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/contingency.hpp"
#include "stats/permutation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean,
                                  std::uint64_t seed) {
  rcr::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(mean, 1.0);
  return v;
}

TEST(PermutationTest, NoEffectGivesHighP) {
  const auto x = normal_sample(60, 5.0, 1);
  const auto y = normal_sample(60, 5.0, 2);
  const auto r = permutation_test_mean_diff(x, y);
  EXPECT_GT(r.p_value, 0.05);
  EXPECT_EQ(r.permutations, 5000u);
}

TEST(PermutationTest, ClearEffectDetected) {
  const auto x = normal_sample(60, 6.0, 3);
  const auto y = normal_sample(60, 5.0, 4);
  const auto r = permutation_test_mean_diff(x, y);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_LT(r.p_greater, 0.001);   // x > y direction
  EXPECT_GT(r.p_less, 0.99);
  EXPECT_NEAR(r.observed, 1.0, 0.4);
}

TEST(PermutationTest, TypeIErrorNearAlpha) {
  // Under the null, p-values are uniform: rejection rate at 0.05 ≈ 5%.
  rcr::Rng rng(5);
  int rejections = 0;
  const int trials = 200;
  PermutationOptions opts;
  opts.permutations = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(20), y(20);
    for (double& v : x) v = rng.normal();
    for (double& v : y) v = rng.normal();
    opts.seed = static_cast<std::uint64_t>(t) + 1000;
    if (permutation_test_mean_diff(x, y, opts).p_value < 0.05) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / trials;
  EXPECT_GT(rate, 0.005);
  EXPECT_LT(rate, 0.12);
}

TEST(PermutationTest, SerialAndParallelIdentical) {
  const auto x = normal_sample(40, 5.2, 6);
  const auto y = normal_sample(50, 5.0, 7);
  rcr::parallel::ThreadPool pool(3);
  PermutationOptions serial;
  serial.seed = 42;
  PermutationOptions parallel = serial;
  parallel.pool = &pool;
  const auto a = permutation_test_mean_diff(x, y, serial);
  const auto b = permutation_test_mean_diff(x, y, parallel);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
  EXPECT_DOUBLE_EQ(a.p_greater, b.p_greater);
}

TEST(PermutationTest, ProportionVariantAgreesWithZTestDirection) {
  rcr::Rng rng(8);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) x.push_back(rng.bernoulli(0.6) ? 1.0 : 0.0);
  for (int i = 0; i < 200; ++i) y.push_back(rng.bernoulli(0.4) ? 1.0 : 0.0);
  const auto perm = permutation_test_proportion_diff(x, y);
  double sx = 0, sy = 0;
  for (double v : x) sx += v;
  for (double v : y) sy += v;
  const auto z = two_proportion_test(sx, x.size(), sy, y.size());
  EXPECT_LT(perm.p_value, 0.05);
  EXPECT_LT(z.p_value, 0.05);
  // Permutation and asymptotic p agree within an order of magnitude floor.
  EXPECT_LT(std::fabs(perm.p_value - z.p_value), 0.02);
}

TEST(PermutationTest, PValueNeverZero) {
  // The +1 correction keeps p > 0 even for extreme observed statistics.
  const std::vector<double> x = {100.0, 101.0, 102.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  PermutationOptions opts;
  opts.permutations = 100;
  const auto r = permutation_test_mean_diff(x, y, opts);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_GE(r.p_value, 1.0 / 101.0);
}

TEST(PermutationTest, CustomStatistic) {
  // Max-minus-max statistic through the generic interface.
  const std::vector<double> x = {1, 2, 9};
  const std::vector<double> y = {1, 2, 3};
  const auto r = permutation_test(
      x, y,
      [](std::span<const double> a, std::span<const double> b) {
        double ma = a[0], mb = b[0];
        for (double v : a) ma = std::max(ma, v);
        for (double v : b) mb = std::max(mb, v);
        return ma - mb;
      });
  EXPECT_DOUBLE_EQ(r.observed, 6.0);
  EXPECT_LE(r.p_value, 1.0);
}

struct PinnedBits {
  std::uint64_t observed, p_value, p_greater, p_less;
};

void expect_bits(const PermutationResult& r, const PinnedBits& want,
                 const char* where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.observed), want.observed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p_value), want.p_value);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p_greater), want.p_greater);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.p_less), want.p_less);
}

TEST(PermutationTest, ResultsArePinnedBitwise) {
  // Every replicate shuffles with next_below(n - i) draws from its own
  // seed; any change to that stream moves these bits. Samples of equal
  // mean put each count near half the replicates, where a changed shuffle
  // moves them.
  const auto x = normal_sample(45, 5.0, 21);
  const auto y = normal_sample(55, 5.0, 22);
  rcr::Rng coin(23);
  std::vector<double> bx(70), by(80);
  for (double& v : bx) v = coin.bernoulli(0.5) ? 1.0 : 0.0;
  for (double& v : by) v = coin.bernoulli(0.5) ? 1.0 : 0.0;
  // The a[0] - b[0] term makes the generic statistic depend on the order
  // the shuffle leaves each group in, not only on the split.
  const auto ordered = [](std::span<const double> a,
                          std::span<const double> b) {
    return *std::max_element(a.begin(), a.end()) -
           *std::max_element(b.begin(), b.end()) + a[0] - b[0];
  };
  const PinnedBits mean_bits{0x3fa8e529cf15ae80ULL, 0x3fea4256c0366e91ULL,
                             0x3fddfae5a271f77fULL, 0x3fe11dc47711dc47ULL};
  const PinnedBits proportion_bits{
      0xbf95f15f15f15f20ULL, 0x3febda93fc9916f7ULL, 0x3fe484ad806cdd21ULL,
      0x3fde31543307a78cULL};
  const PinnedBits generic_bits{0x40022bcb63090b78ULL, 0x3fc028d2ec70440aULL,
                                0x3fbb37484ad806ceULL, 0x3fecb44e3eefd72dULL};

  rcr::parallel::ThreadPool pool(3);
  for (rcr::parallel::ThreadPool* p :
       {static_cast<rcr::parallel::ThreadPool*>(nullptr), &pool}) {
    PermutationOptions opts;
    opts.permutations = 300;
    opts.seed = 99;
    opts.pool = p;
    expect_bits(permutation_test_mean_diff(x, y, opts), mean_bits,
                p ? "mean pooled" : "mean serial");
    expect_bits(permutation_test_proportion_diff(bx, by, opts),
                proportion_bits,
                p ? "proportion pooled" : "proportion serial");
    expect_bits(permutation_test(x, y, ordered, opts), generic_bits,
                p ? "generic pooled" : "generic serial");
  }
}

TEST(PermutationTest, RejectsBadInput) {
  const std::vector<double> x = {1.0};
  const std::vector<double> empty;
  EXPECT_THROW(permutation_test_mean_diff(x, empty), rcr::Error);
  PermutationOptions opts;
  opts.permutations = 5;
  EXPECT_THROW(permutation_test_mean_diff(x, x, opts), rcr::Error);
  EXPECT_THROW(
      permutation_test_proportion_diff(std::vector<double>{0.5},
                                       std::vector<double>{1.0}),
      rcr::Error);
}

}  // namespace
}  // namespace rcr::stats
