// Traffic distribution contract: ZipfSampler and exponential_interarrival
// are inverse-CDF transforms of a caller-supplied uniform draw, so their
// empirical moments under a fixed-seed generator must match the closed
// forms — E[rank] from the normalized pmf for Zipf, mean 1/lambda and
// variance 1/lambda^2 for the exponential — and identical draw sequences
// must produce identical samples (no internal state, no rejection loops).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "simd/philox.hpp"
#include "synth/traffic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::synth {
namespace {

TEST(ZipfSamplerTest, ValidatesParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), Error);
  EXPECT_THROW(ZipfSampler(10, -0.5), Error);
  EXPECT_NO_THROW(ZipfSampler(1, 0.0));
  EXPECT_NO_THROW(ZipfSampler(1000, 2.5));
}

TEST(ZipfSamplerTest, PmfNormalizesAndFollowsPowerLaw) {
  const double s = 1.2;
  const ZipfSampler zipf(50, s);
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(k) is proportional to (k+1)^-s: successive ratios are exact in the
  // closed form up to normalization rounding.
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(1), std::pow(2.0, s),
              1e-9);
  EXPECT_NEAR(zipf.probability(2) / zipf.probability(5), std::pow(2.0, s),
              1e-9);
  EXPECT_GT(zipf.probability(0), zipf.probability(49));
}

TEST(ZipfSamplerTest, SkewZeroDegeneratesToUniform) {
  const ZipfSampler zipf(8, 0.0);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(zipf.probability(k), 1.0 / 8.0, 1e-12);
  }
  // The inverse CDF then splits [0, 1) into equal slices.
  EXPECT_EQ(zipf.sample(0.0), 0u);
  EXPECT_EQ(zipf.sample(0.1249), 0u);
  EXPECT_EQ(zipf.sample(0.1251), 1u);
  EXPECT_EQ(zipf.sample(0.9999), 7u);
}

TEST(ZipfSamplerTest, SampleIsMonotoneWithHeadOwningLowSlice) {
  const ZipfSampler zipf(100, 1.0);
  EXPECT_EQ(zipf.sample(0.0), 0u);
  EXPECT_EQ(zipf.sample(std::nextafter(1.0, 0.0)), 99u);
  std::size_t prev = 0;
  for (double u = 0.0; u < 1.0; u += 0.001) {
    const std::size_t k = zipf.sample(u);
    EXPECT_GE(k, prev);
    EXPECT_LT(k, 100u);
    prev = k;
  }
}

TEST(ZipfSamplerTest, EmpiricalMomentsMatchClosedFormWithFixedSeed) {
  const ZipfSampler zipf(200, 1.1);
  // Closed-form mean and variance from the normalized pmf.
  const double mean = zipf.mean_rank();
  double second = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    second += static_cast<double>(k) * static_cast<double>(k) *
              zipf.probability(k);
  }
  const double var = second - mean * mean;

  constexpr std::size_t kDraws = 200000;
  Rng rng(4242);
  double sum = 0.0;
  std::vector<std::uint64_t> head_hits(1, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::size_t k = zipf.sample(rng.next_double());
    sum += static_cast<double>(k);
    if (k == 0) ++head_hits[0];
  }
  const double empirical_mean = sum / static_cast<double>(kDraws);
  // 4-sigma band on the mean of kDraws iid ranks.
  const double tol = 4.0 * std::sqrt(var / static_cast<double>(kDraws));
  EXPECT_NEAR(empirical_mean, mean, tol);

  // Head frequency against P(0), 4-sigma binomial band.
  const double p0 = zipf.probability(0);
  const double head_tol =
      4.0 * std::sqrt(p0 * (1.0 - p0) / static_cast<double>(kDraws));
  EXPECT_NEAR(static_cast<double>(head_hits[0]) / kDraws, p0, head_tol);
}

TEST(ExponentialInterarrivalTest, ValidatesAndPinsEdges) {
  EXPECT_THROW(exponential_interarrival(0.0, 0.5), Error);
  EXPECT_THROW(exponential_interarrival(-2.0, 0.5), Error);
  EXPECT_DOUBLE_EQ(exponential_interarrival(3.0, 0.0), 0.0);
  // Median of Exp(lambda) is ln(2)/lambda, hit exactly at u = 0.5.
  EXPECT_NEAR(exponential_interarrival(2.0, 0.5), std::log(2.0) / 2.0, 1e-15);
  // Monotone in the draw.
  EXPECT_LT(exponential_interarrival(1.0, 0.3),
            exponential_interarrival(1.0, 0.7));
}

TEST(ExponentialInterarrivalTest, MomentsMatchClosedFormWithFixedSeed) {
  const double lambda = 4.0;
  constexpr std::size_t kDraws = 200000;
  Rng rng(777);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double gap = exponential_interarrival(lambda, rng.next_double());
    EXPECT_GE(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  // Exp(lambda): mean 1/lambda (sd of the sample mean is
  // 1/(lambda sqrt(N))), variance 1/lambda^2.
  EXPECT_NEAR(mean, 1.0 / lambda, 4.0 / (lambda * std::sqrt(kDraws)));
  EXPECT_NEAR(var, 1.0 / (lambda * lambda), 0.05 / (lambda * lambda));
}

TEST(BetaSamplerTest, ValidatesParameters) {
  EXPECT_THROW(BetaSampler(0.0, 1.0), Error);
  EXPECT_THROW(BetaSampler(1.0, -2.0), Error);
  EXPECT_THROW(BetaSampler(2.0, 5.0).sample(1.0), Error);
  EXPECT_THROW(BetaSampler(2.0, 5.0).sample(-0.1), Error);
  EXPECT_NO_THROW(BetaSampler(0.5, 0.5));
  EXPECT_NO_THROW(BetaSampler(80.0, 3.0));
}

TEST(BetaSamplerTest, InvertsItsOwnCdf) {
  const BetaSampler beta(2.5, 4.0);
  EXPECT_DOUBLE_EQ(beta.sample(0.0), 0.0);
  // The sample is the x with cdf(x) == u, up to the bisection's terminal
  // bracket (one ulp of x, amplified through the local density).
  double prev = 0.0;
  for (double u = 0.05; u < 1.0; u += 0.05) {
    const double x = beta.sample(u);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_NEAR(beta.cdf(x), u, 1e-12);
    EXPECT_GE(x, prev);  // monotone in the draw
    prev = x;
  }
  // Median of the symmetric Beta(a, a) is exactly 1/2.
  EXPECT_NEAR(BetaSampler(3.0, 3.0).sample(0.5), 0.5, 1e-12);
}

TEST(BetaSamplerTest, ClosedMomentsMatchTheFormulas) {
  const BetaSampler beta(2.0, 5.0);
  EXPECT_DOUBLE_EQ(beta.mean(), 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(beta.variance(), 10.0 / (49.0 * 8.0));
  // Beta(1, 1) is Uniform(0, 1): the inverse CDF is the identity.
  const BetaSampler uniform(1.0, 1.0);
  EXPECT_DOUBLE_EQ(uniform.mean(), 0.5);
  EXPECT_NEAR(uniform.variance(), 1.0 / 12.0, 1e-15);
  for (double u = 0.1; u < 1.0; u += 0.2)
    EXPECT_NEAR(uniform.sample(u), u, 1e-12);
}

TEST(BetaSamplerTest, EmpiricalMomentsMatchClosedFormWithFixedSeed) {
  for (const auto& [a, b] : {std::pair{2.0, 5.0}, std::pair{5.0, 2.0},
                             std::pair{0.5, 0.5}}) {
    const BetaSampler beta(a, b);
    constexpr std::size_t kDraws = 50000;
    Rng rng(31337);
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      const double x = beta.sample(rng.next_double());
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / kDraws;
    const double var = sum_sq / kDraws - mean * mean;
    // 4-sigma band on the sample mean; variance gets a 5% relative band.
    EXPECT_NEAR(mean, beta.mean(),
                4.0 * std::sqrt(beta.variance() / kDraws))
        << "a=" << a << " b=" << b;
    EXPECT_NEAR(var, beta.variance(), 0.05 * beta.variance())
        << "a=" << a << " b=" << b;
  }
}

TEST(TrafficTest, PureFunctionsAreDeterministicAcrossGenerators) {
  const ZipfSampler zipf(64, 0.9);
  // Same draws, same samples — regardless of which generator made them.
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = a.next_double();
    ASSERT_DOUBLE_EQ(u, b.next_double());
    EXPECT_EQ(zipf.sample(u), zipf.sample(u));
  }
  // Philox substreams drive the identical code path: the sampler only sees
  // a u01 double, so a load generator's client fan-out (one substream per
  // synthetic client) needs no sampler-side support.
  simd::Philox root(2024, 0);
  simd::Philox c0 = root.substream(0);
  simd::Philox c0_again = root.substream(0);
  simd::Philox c1 = root.substream(1);
  bool saw_difference = false;
  for (int i = 0; i < 256; ++i) {
    const double u = c0.next_double();
    ASSERT_DOUBLE_EQ(u, c0_again.next_double());  // replayable stream
    const std::size_t k = zipf.sample(u);
    EXPECT_LT(k, zipf.size());
    if (k != zipf.sample(c1.next_double())) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);  // substreams are actually independent
}

}  // namespace
}  // namespace rcr::synth
