#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rcr {
namespace {

// --- error machinery --------------------------------------------------------

TEST(ErrorTest, CheckThrowsWithLocation) {
  try {
    RCR_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(RCR_CHECK(2 + 2 == 4));
}

// --- RNG ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(RngTest, GammaMeanAndVariance) {
  Rng rng(23);
  const int n = 100000;
  const double shape = 3.0, scale = 2.0;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gamma(shape, scale);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, shape * scale, 0.1);            // 6
  EXPECT_NEAR(sum2 / n - mean * mean, shape * scale * scale, 0.5);  // 12
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(29);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gamma(0.5, 1.0);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BetaMean) {
  Rng rng(31);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.beta(2.0, 3.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.4, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(43);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), Error);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}), Error);
  EXPECT_THROW(rng.categorical(std::vector<double>{1.0, -1.0}), Error);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(47);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(59);
  const auto idx = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 30u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(61);
  const auto idx = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

// The dense partial Fisher–Yates over a materialized index vector: the
// reference the sparse sampler must reproduce draw for draw.
std::vector<std::size_t> dense_sample(Rng& rng, std::size_t n,
                                      std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

// Same vector, and the same Rng state afterwards (the next draw agrees).
void expect_matches_dense(std::uint64_t seed, std::size_t n, std::size_t k) {
  Rng sparse(seed), dense(seed);
  EXPECT_EQ(sparse.sample_without_replacement(n, k), dense_sample(dense, n, k))
      << "n=" << n << " k=" << k;
  EXPECT_EQ(sparse.next_u64(), dense.next_u64()) << "n=" << n << " k=" << k;
}

TEST(RngTest, SampleWithoutReplacementMatchesDenseFisherYates) {
  expect_matches_dense(1, 0, 0);
  expect_matches_dense(2, 10, 0);         // k = 0
  expect_matches_dense(3, 1, 1);          // n = 1
  expect_matches_dense(4, 257, 257);      // k = n
  expect_matches_dense(5, 100000, 12);    // k << n
  expect_matches_dense(6, 60000, 6000);
  // Random shapes: mostly small n with any k (the displaced-slot map runs
  // full), every third trial a large n with a short sample.
  Rng shape(71);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n =
        1 + static_cast<std::size_t>(
                shape.next_below(trial % 3 == 0 ? 100000 : 300));
    const std::size_t k = static_cast<std::size_t>(
        shape.next_below(std::min<std::size_t>(n, 300) + 1));
    expect_matches_dense(shape.next_u64(), n, k);
  }
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StringsTest, ParseDouble) {
  EXPECT_EQ(parse_double("3.5"), 3.5);
  EXPECT_EQ(parse_double(" -2 "), -2.0);
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(""));
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("4.2"));
  EXPECT_FALSE(parse_int(""));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(0.5, 0), "0");  // banker's-free printf rounding
  EXPECT_EQ(format_double(-1.005, 1), "-1.0");
  EXPECT_EQ(format_double(std::nan(""), 2), "nan");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.1234), "12.3%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

// --- CLI ----------------------------------------------------------------------

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "pos", "--alpha=3", "--beta", "x", "--flag"};
  CliParser cli(6, argv);
  EXPECT_EQ(cli.get_int_or("alpha", 0), 3);
  EXPECT_EQ(cli.get_or("beta", ""), "x");
  EXPECT_TRUE(cli.has_switch("flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
  EXPECT_NO_THROW(cli.finish());
}

TEST(CliTest, DefaultsApply) {
  const char* argv[] = {"prog"};
  CliParser cli(1, argv);
  EXPECT_EQ(cli.get_int_or("n", 42), 42);
  EXPECT_EQ(cli.get_double_or("x", 2.5), 2.5);
  EXPECT_FALSE(cli.has_switch("verbose"));
}

TEST(CliTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--mystery=1"};
  CliParser cli(2, argv);
  EXPECT_THROW(cli.finish(), InvalidInputError);
}

TEST(CliTest, RejectsBadNumeric) {
  const char* argv[] = {"prog", "--n=abc"};
  CliParser cli(2, argv);
  EXPECT_THROW(cli.get_int_or("n", 0), InvalidInputError);
}

}  // namespace
}  // namespace rcr
