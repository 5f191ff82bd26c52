// The batched resampling paths, pinned bitwise or checked against their
// distribution:
//
//   * Bootstrap replicate b resamples exactly the indices of one n-sized
//     fill of Philox substream b, Lemire-reduced.
//   * bernoulli_mask reproduces its sequential coins byte for byte.
//   * bootstrap_proportions draws each replicate's pattern counts as one
//     multinomial: one column's replicate is Binomial(n, p) / n (a
//     chi-square test against the exact pmf), two columns covary as
//     resampled rows do, the bits are the same on any pool, and one small
//     case is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "simd/philox.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rcr {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

TEST(RngBatchTest, BernoulliMaskMatchesSequentialCoins) {
  Rng scalar(5), batched(5);
  // Interior, degenerate-zero, degenerate-one, clamped-out-of-range.
  const std::vector<double> p = {0.3, 0.0, 1.0,  0.99, -0.5, 1.5,
                                 0.5, 0.0, 0.01, 0.62, 1.0,  0.4};
  for (int round = 0; round < 8; ++round) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (scalar.bernoulli(p[i])) expected |= std::uint64_t{1} << i;
    EXPECT_EQ(batched.bernoulli_mask(p), expected) << "round=" << round;
  }
  // Both consumed the same number of draws.
  EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngBatchTest, BootstrapResamplesFollowPhiloxSubstreams) {
  // Data 0..n-1 turns each resample into its own index list, and the
  // statistic fingerprints that list, so every replicate value names the
  // exact resample drawn. n spans several draw blocks, the last partial.
  const std::size_t n = 5003;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i);
  const auto fingerprint = [](std::span<const double> x) {
    return static_cast<double>(xxhash64(x.data(), x.size_bytes()) >> 11);
  };
  stats::BootstrapOptions opts;
  opts.replicates = 40;
  opts.seed = 123;
  const auto boot = stats::bootstrap(data, fingerprint, opts);

  // Reference: one n-sized fill of substream b, each lane reduced by
  // Lemire; a rejected lane redraws from the stream's position n onwards.
  std::vector<double> want;
  for (std::size_t b = 0; b < opts.replicates; ++b) {
    simd::Philox stream(opts.seed, b);
    std::vector<std::uint64_t> raw(n);
    stream.fill_u64(raw);
    const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
    std::vector<double> resample(n);
    for (std::size_t i = 0; i < n; ++i) {
      __uint128_t m = static_cast<__uint128_t>(raw[i]) * n;
      while (static_cast<std::uint64_t>(m) < threshold)
        m = static_cast<__uint128_t>(stream.next_u64()) * n;
      resample[i] = data[static_cast<std::size_t>(m >> 64)];
    }
    want.push_back(fingerprint(resample));
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(boot.replicates.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(bits_of(boot.replicates[i]), bits_of(want[i])) << i;
}

// Every field two bootstraps of one column must share, compared bitwise.
void expect_same_bootstrap(const stats::BootstrapResult& got,
                           const stats::BootstrapResult& want,
                           const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.replicates.size(), want.replicates.size());
  for (std::size_t i = 0; i < want.replicates.size(); ++i)
    ASSERT_EQ(bits_of(got.replicates[i]), bits_of(want.replicates[i])) << i;
  EXPECT_EQ(bits_of(got.estimate), bits_of(want.estimate));
  EXPECT_EQ(bits_of(got.bias), bits_of(want.bias));
  EXPECT_EQ(bits_of(got.std_error), bits_of(want.std_error));
  EXPECT_EQ(bits_of(got.percentile_ci.lo), bits_of(want.percentile_ci.lo));
  EXPECT_EQ(bits_of(got.percentile_ci.hi), bits_of(want.percentile_ci.hi));
  EXPECT_EQ(bits_of(got.basic_ci.lo), bits_of(want.basic_ci.lo));
  EXPECT_EQ(bits_of(got.basic_ci.hi), bits_of(want.basic_ci.hi));
  EXPECT_EQ(bits_of(got.normal_ci.lo), bits_of(want.normal_ci.lo));
  EXPECT_EQ(bits_of(got.normal_ci.hi), bits_of(want.normal_ci.hi));
  EXPECT_EQ(bits_of(got.bca_ci.lo), bits_of(want.bca_ci.lo));
  EXPECT_EQ(bits_of(got.bca_ci.hi), bits_of(want.bca_ci.hi));
  EXPECT_EQ(bits_of(got.bca_acceleration), bits_of(want.bca_acceleration));
  EXPECT_EQ(bits_of(got.bca_bias_z0), bits_of(want.bca_bias_z0));
}

// Each replicate's count of ones: replicate value × n, rounded.
std::vector<std::uint64_t> replicate_counts(
    const stats::BootstrapResult& result, std::uint64_t n) {
  std::vector<std::uint64_t> counts;
  for (double v : result.replicates)
    counts.push_back(
        static_cast<std::uint64_t>(std::llround(v * static_cast<double>(n))));
  return counts;
}

// Pearson's chi-square of `draws` against Binomial(n, p), as the z-score
// (X² − df) / sqrt(2·df). The pmf comes from std::lgamma. Bins are merged
// from k = 0 upwards until each expects at least 5 draws; a short last bin
// joins the one before it.
double binomial_gof_z(const std::vector<std::uint64_t>& draws,
                      std::uint64_t n, double p) {
  std::vector<std::uint64_t> observed(n + 1, 0);
  for (std::uint64_t k : draws) ++observed[k];
  const double nd = static_cast<double>(n);
  const double total = static_cast<double>(draws.size());
  std::vector<double> bin_expected{0.0}, bin_observed{0.0};
  for (std::uint64_t k = 0; k <= n; ++k) {
    if (bin_expected.back() >= 5.0) {
      bin_expected.push_back(0.0);
      bin_observed.push_back(0.0);
    }
    const double kd = static_cast<double>(k);
    bin_expected.back() +=
        total * std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                         std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                         (nd - kd) * std::log1p(-p));
    bin_observed.back() += static_cast<double>(observed[k]);
  }
  if (bin_expected.back() < 5.0) {
    const double e = bin_expected.back(), o = bin_observed.back();
    bin_expected.pop_back();
    bin_observed.pop_back();
    bin_expected.back() += e;
    bin_observed.back() += o;
  }
  double chi2 = 0.0;
  for (std::size_t b = 0; b < bin_expected.size(); ++b) {
    const double d = bin_observed[b] - bin_expected[b];
    chi2 += d * d / bin_expected[b];
  }
  const double df = static_cast<double>(bin_expected.size() - 1);
  return (chi2 - df) / std::sqrt(2.0 * df);
}

TEST(RngBatchTest, BootstrapProportionOneColumnIsBinomial) {
  // Counts {n - k, k}: each replicate's ones are one Binomial(n, k/n)
  // draw. The cases cover inversion from 0 (n·q < 30), the search from the
  // mode, and the reflection for p > 1/2 (the zeros' pattern is drawn
  // first, at p = (n - k)/n). At (60, 30) the search from the mode takes
  // few steps of large pmf ratios, so an off-by-one in either recurrence
  // shows; at the larger n it hides in the ratios' last digits.
  struct Case {
    std::uint64_t n, k;
  };
  parallel::ThreadPool pool(4);
  for (const Case c : {Case{40, 12}, Case{60, 30}, Case{200, 190},
                       Case{5000, 40}, Case{250000, 75000}}) {
    const std::uint64_t counts[] = {c.n - c.k, c.k};
    stats::BootstrapOptions opts;
    opts.replicates = 100000;
    opts.seed = 1000 + c.n;
    opts.pool = &pool;
    const auto boot = stats::bootstrap_proportions(counts, opts).front();
    const double z =
        binomial_gof_z(replicate_counts(boot, c.n), c.n,
                       static_cast<double>(c.k) / static_cast<double>(c.n));
    EXPECT_LT(std::abs(z), 4.0) << "n=" << c.n << " k=" << c.k << " z=" << z;
  }
}

TEST(RngBatchTest, BootstrapProportionTwoColumnsCovaryLikeRows) {
  // Columns a (bit 0) and b (bit 1) over n = 1000 rows: p_a = 0.4,
  // p_b = 0.5, p_ab = 0.35, so a replicate pair has covariance
  // (p_ab - p_a·p_b) / n. Replicates come back sorted per column, which
  // hides the pairs, but a call's replicate means do not: with 2
  // replicates per call, Cov(mean_a, mean_b) = Cov(a, b) / 2 over calls,
  // each with its own seed. Drawing the columns as independent binomials
  // keeps both marginals and loses the covariance.
  const std::uint64_t n = 1000;
  const std::uint64_t counts[] = {450, 50, 150, 350};
  const double p_a = 0.4, p_b = 0.5, p_ab = 0.35;
  const std::size_t calls = 10000;
  std::vector<double> mean_a, mean_b;
  for (std::size_t k = 0; k < calls; ++k) {
    stats::BootstrapOptions opts;
    opts.replicates = 2;
    opts.seed = 7000 + k;
    const auto boots = stats::bootstrap_proportions(counts, opts);
    ASSERT_EQ(boots.size(), 2u);
    mean_a.push_back(stats::mean(boots[0].replicates));
    mean_b.push_back(stats::mean(boots[1].replicates));
  }
  const double var_a = p_a * (1.0 - p_a) / static_cast<double>(n);
  const double var_b = p_b * (1.0 - p_b) / static_cast<double>(n);
  const double cov = (p_ab - p_a * p_b) / static_cast<double>(n);
  const double m_a = stats::mean(mean_a), m_b = stats::mean(mean_b);
  double s_aa = 0.0, s_bb = 0.0, s_ab = 0.0;
  for (std::size_t k = 0; k < calls; ++k) {
    s_aa += (mean_a[k] - m_a) * (mean_a[k] - m_a);
    s_bb += (mean_b[k] - m_b) * (mean_b[k] - m_b);
    s_ab += (mean_a[k] - m_a) * (mean_b[k] - m_b);
  }
  const double k1 = static_cast<double>(calls - 1);
  const double rt = std::sqrt(static_cast<double>(calls));
  // Each bound is 4 Monte Carlo standard errors.
  EXPECT_NEAR(m_a, p_a, 4.0 * std::sqrt(var_a / 2.0) / rt);
  EXPECT_NEAR(m_b, p_b, 4.0 * std::sqrt(var_b / 2.0) / rt);
  EXPECT_NEAR(2.0 * s_aa / k1, var_a, 4.0 * var_a * std::sqrt(2.0) / rt);
  EXPECT_NEAR(2.0 * s_bb / k1, var_b, 4.0 * var_b * std::sqrt(2.0) / rt);
  EXPECT_NEAR(2.0 * s_ab / k1, cov,
              4.0 * std::sqrt(var_a * var_b + cov * cov) / rt);
}

TEST(RngBatchTest, BootstrapProportionSameOnAnyPool) {
  // Four columns of different rates; n = 200 and n = 5003 rows. Each
  // estimate equals the generic bootstrap's mean of the 0/1 column bit for
  // bit, and BCa's closed-form jackknife matches its row-by-row one.
  const double rates[] = {0.37, 0.9, 0.05, 0.5};
  for (const std::size_t n : {std::size_t{200}, std::size_t{5003}}) {
    std::vector<std::vector<double>> cols(4);
    std::vector<std::uint64_t> counts(16, 0);
    Rng rng(3 + n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t pattern = 0;
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const bool hit = rng.bernoulli(rates[c]);
        cols[c].push_back(hit ? 1.0 : 0.0);
        pattern |= static_cast<std::size_t>(hit) << c;
      }
      ++counts[pattern];
    }

    stats::BootstrapOptions opts;
    opts.replicates = 250;
    opts.seed = 29;
    opts.compute_bca = true;
    const auto serial = stats::bootstrap_proportions(counts, opts);
    ASSERT_EQ(serial.size(), cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const auto generic = stats::bootstrap(
          cols[c], [](std::span<const double> x) { return stats::mean(x); },
          opts);
      EXPECT_EQ(bits_of(serial[c].estimate), bits_of(generic.estimate));
      EXPECT_NEAR(serial[c].bca_acceleration, generic.bca_acceleration,
                  1e-12);
    }

    for (const std::size_t threads : {1, 2, 8}) {
      parallel::ThreadPool pool(threads);
      stats::BootstrapOptions run = opts;
      run.pool = &pool;
      const auto pooled = stats::bootstrap_proportions(counts, run);
      ASSERT_EQ(pooled.size(), serial.size());
      for (std::size_t c = 0; c < cols.size(); ++c)
        expect_same_bootstrap(pooled[c], serial[c],
                              "n=" + std::to_string(n) + " threads=" +
                                  std::to_string(threads) + " column " +
                                  std::to_string(c));
    }
  }
}

TEST(RngBatchTest, BootstrapProportionReplicatesPinned) {
  // Three columns over n = 200 rows, two patterns empty: the walk searches
  // from the mode for the large patterns and inverts from 0 for the small
  // ones. Each column's sorted replicate counts are pinned.
  const std::uint64_t n = 200;
  const std::uint64_t counts[] = {120, 45, 0, 20, 0, 0, 3, 12};
  stats::BootstrapOptions opts;
  opts.replicates = 6;
  opts.seed = 2026;
  const auto boots = stats::bootstrap_proportions(counts, opts);
  ASSERT_EQ(boots.size(), 3u);
  const std::vector<std::vector<std::uint64_t>> want = {
      {71, 72, 74, 77, 79, 81}, {25, 31, 32, 32, 41, 44}, {9, 12, 14, 16, 18, 19}};
  for (std::size_t c = 0; c < boots.size(); ++c)
    EXPECT_EQ(replicate_counts(boots[c], n), want[c]) << "column " << c;
}

}  // namespace
}  // namespace rcr
