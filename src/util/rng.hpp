// Deterministic random number generation for the RCR toolkit.
//
// Every stochastic component (synthetic population, bootstrap, simulator
// arrivals) draws from rcr::Rng so that a single 64-bit seed reproduces an
// entire study byte-for-byte, independent of the host platform or the
// standard library's distribution implementations (which are not portable).
//
// The core generator is xoshiro256** (Blackman & Vigna, 2018): fast, 256-bit
// state, passes BigCrush. Seeding goes through SplitMix64 as the authors
// recommend. Distributions are implemented here from first principles so
// results are identical across compilers.
//
// Rng is one scalar stream: next_u64() and friends return one value per
// call, and the hot primitives are inline so consumers pay no call overhead
// per draw. Wide batched draws come from the counter-based simd::Philox
// (simd/philox.hpp), whose fills vectorize across counter blocks.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace rcr {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  // Re-initializes the state from a single seed via SplitMix64.
  void reseed(std::uint64_t seed);

  // Raw 64 uniform bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next_u64(); }

  // Uniform double in [0, 1) with 53 bits of precision.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) {
    RCR_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      std::uint64_t t = -bound % bound;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    RCR_CHECK_MSG(lo <= hi, "uniform_int requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    RCR_DCHECK(lo <= hi);
    return lo + (hi - lo) * next_double();
  }

  // True with probability p (clamped to [0,1]). Consumes one draw only for
  // p strictly inside (0, 1); degenerate probabilities are answered without
  // touching the stream (bernoulli_mask relies on this contract).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  // Coin mask: bit i of the result is bernoulli(p[i]), drawn in index
  // order with the same skip-degenerate-p contract as bernoulli().
  // Requires p.size() <= 64. One call answers a whole multi-select
  // question.
  std::uint64_t bernoulli_mask(std::span<const double> p) {
    RCR_DCHECK(p.size() <= 64);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (bernoulli(p[i])) mask |= std::uint64_t{1} << i;
    return mask;
  }

  // Standard normal via Box–Muller (cached spare value).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  // Exponential with rate lambda (> 0).
  double exponential(double lambda);

  // Gamma(shape k > 0, scale theta) via Marsaglia–Tsang.
  double gamma(double shape, double scale);

  // Beta(a, b) via two gamma draws.
  double beta(double a, double b);

  // Index drawn from unnormalized non-negative weights (linear scan).
  std::size_t categorical(std::span<const double> weights);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Samples k distinct indices from [0, n) (k <= n), in random order: a
  // partial Fisher–Yates that stores only the slots it displaces, so a call
  // costs O(k) time and space however large n is.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace rcr
