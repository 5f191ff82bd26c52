// The batched resampling paths' determinism contract, pinned bitwise:
//
//   * Bootstrap replicate b resamples exactly the indices of one n-sized
//     fill of Philox substream b, Lemire-reduced.
//   * The resampling fast paths (bootstrap_proportions, bernoulli_mask)
//     reproduce their generic counterparts byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
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

TEST(RngBatchTest, BootstrapProportionUsesFastPathBitwise) {
  // n = 200 fits in one draw block; n = 5003 spans several and ends in a
  // partial one. Four columns of different rates share each n's rows.
  const double rates[] = {0.37, 0.9, 0.05, 0.5};
  for (const std::size_t n : {std::size_t{200}, std::size_t{5003}}) {
    std::vector<std::vector<double>> cols;
    for (std::size_t c = 0; c < 4; ++c) {
      Rng rng(3 + c);
      std::vector<double>& col = cols.emplace_back(n);
      for (auto& v : col) v = rng.bernoulli(rates[c]) ? 1.0 : 0.0;
    }
    const std::vector<std::span<const double>> spans(cols.begin(),
                                                     cols.end());

    stats::BootstrapOptions opts;
    opts.replicates = 250;
    opts.seed = 29;
    opts.compute_bca = true;
    std::vector<stats::BootstrapResult> generic;
    for (const auto& col : cols)
      generic.push_back(stats::bootstrap(
          col, [](std::span<const double> x) { return stats::mean(x); },
          opts));

    // Serial, then pools of 1, 2 and 8 threads.
    for (const std::size_t threads : {0, 1, 2, 8}) {
      std::optional<parallel::ThreadPool> pool;
      stats::BootstrapOptions run = opts;
      if (threads > 0) run.pool = &pool.emplace(threads);
      const std::string where =
          "n=" + std::to_string(n) + " threads=" + std::to_string(threads);
      expect_same_bootstrap(
          stats::bootstrap_proportions(
              std::span<const std::span<const double>>(spans).first(1), run)
              .front(),
          generic[0], where + " one column");
      const auto all = stats::bootstrap_proportions(spans, run);
      ASSERT_EQ(all.size(), cols.size());
      for (std::size_t c = 0; c < cols.size(); ++c)
        expect_same_bootstrap(all[c], generic[c],
                              where + " column " + std::to_string(c));
    }
  }
}

}  // namespace
}  // namespace rcr
