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
// Two draw pipelines share that generator:
//
//   * Scalar — next_u64() and friends, one value per call. The hot scalar
//     primitives are inline so consumers pay no call overhead per draw.
//   * Batched — fill_u64 / fill_double / fill_below write a whole span per
//     call. On Rng the batch calls are defined to produce *exactly* the
//     sequence the equivalent scalar loop would (so call sites can convert
//     freely without changing any study output), and BatchRng interleaves
//     kStreams independent xoshiro256** streams in a structure-of-arrays
//     layout so the state-update loop vectorizes (see rng.cpp).
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

  // --- Batched draws ---------------------------------------------------------
  // Each fill_* call produces exactly the values the equivalent loop of
  // scalar calls would produce, consuming the underlying stream identically
  // (including Lemire rejection redraws). Converting a call site from a
  // scalar loop to one fill is therefore always output-preserving.

  void fill_u64(std::span<std::uint64_t> out);
  void fill_double(std::span<double> out);
  void fill_below(std::uint64_t bound, std::span<std::uint64_t> out);

  // Batched bernoulli: bit i of the result is bernoulli(p[i]), drawn in
  // index order with the same skip-degenerate-p contract as bernoulli().
  // Requires p.size() <= 64. One call answers a whole multi-select
  // question; kept inline and single-pass because the per-question coin
  // counts are small (an out-of-line fill would cost more than it saves).
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

  // Poisson(lambda >= 0); inversion for small lambda, PTRS-lite otherwise.
  std::uint64_t poisson(double lambda);

  // Index drawn from unnormalized non-negative weights (linear scan).
  // For repeated draws from the same weights prefer AliasTable.
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

  // Derives an independent child generator; used to give each thread or
  // each respondent its own stream while keeping the study reproducible.
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

// Buffered u64 draws over an Rng: prefetches raw words in blocks via
// fill_u64 so variable-bound loops (Fisher–Yates, rejection sampling) can
// batch their randomness. take() and take_below() consume the *same*
// underlying stream, in the same order, as the equivalent scalar calls on
// the wrapped Rng — only the fetch granularity changes. Leftover prefetched
// words are simply discarded when the buffer is dropped, which is harmless
// for the per-replicate / per-respondent throwaway streams this is made for
// (do not interleave buffered and direct draws on the same Rng).
class BufferedDraws {
 public:
  // `expected` sizes the prefetch so a loop that knows its draw count up
  // front fetches (almost) exactly that many words in one fill.
  explicit BufferedDraws(Rng& rng, std::size_t expected = kBlock)
      : rng_(&rng), expected_(expected) {}

  std::uint64_t take() {
    if (pos_ == end_) refill();
    return buf_[pos_++];
  }

  // Equivalent to rng.next_below(bound), drawing through the buffer.
  std::uint64_t take_below(std::uint64_t bound) {
    RCR_DCHECK(bound > 0);
    std::uint64_t x = take();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      std::uint64_t t = -bound % bound;
      while (l < t) {
        x = take();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::size_t kBlock = 256;

  void refill() {
    std::size_t want = kBlock;
    if (expected_ > taken_) {
      want = expected_ - taken_;
      if (want < 8) want = 8;
      if (want > kBlock) want = kBlock;
    } else {
      want = 8;  // rejection redraws / hint exhausted: fetch small
    }
    rng_->fill_u64(std::span<std::uint64_t>(buf_.data(), want));
    taken_ += want;
    pos_ = 0;
    end_ = want;
  }

  Rng* rng_;
  std::size_t expected_;
  std::size_t taken_ = 0;
  std::array<std::uint64_t, kBlock> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

// BatchRng — wide deterministic draw pipeline.
//
// Advances kStreams independent xoshiro256** generators kept in a
// structure-of-arrays layout, so one "row" update (one draw from every
// stream) is a branch-free loop the compiler vectorizes. Stream k is
// exactly Rng(stream_seed(seed, k)); both pieces are part of the public
// determinism contract:
//
//   * output position i (counted across ALL fill/next calls since
//     construction) is served by stream i % kStreams;
//   * each output consumes one or more successive draws of its stream
//     (more than one only when fill_below hits a Lemire rejection, which
//     redraws from the same stream until acceptance — handled in a scalar
//     fixup tail off the vector path);
//   * batch-call boundaries are invisible: any way of slicing the same
//     total request sequence into fill_* calls yields the same values.
//
// The whole output is therefore a pure function of the seed, reproducible
// on any platform, and testable against kStreams plain Rng references.
class BatchRng {
 public:
  static constexpr std::size_t kStreams = 16;

  explicit BatchRng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    reseed(seed);
  }

  void reseed(std::uint64_t seed);

  // The per-stream seed derivation (SplitMix64-style hash of seed and k);
  // exposed so tests and documentation can reconstruct reference streams.
  static std::uint64_t stream_seed(std::uint64_t seed, std::size_t k);

  void fill_u64(std::span<std::uint64_t> out);
  void fill_double(std::span<double> out);
  void fill_below(std::uint64_t bound, std::span<std::uint64_t> out);

  // Single draw through the same round-robin pipeline.
  std::uint64_t next_u64();

 private:
  // One scalar xoshiro256** step of stream k (rejection fixups, row refill).
  std::uint64_t step_stream(std::size_t k);
  void refill_row();

  alignas(64) std::array<std::uint64_t, kStreams> s0_{};
  std::array<std::uint64_t, kStreams> s1_{};
  std::array<std::uint64_t, kStreams> s2_{};
  std::array<std::uint64_t, kStreams> s3_{};
  // One pre-drawn value per stream for requests that stop mid-row; buf_[k]
  // is stream k's next undelivered draw. buf_pos_ == kStreams means empty.
  std::array<std::uint64_t, kStreams> buf_{};
  std::size_t buf_pos_ = kStreams;
};

// Walker alias table: O(1) sampling from a fixed discrete distribution.
// Construction is O(n). Weights must be non-negative with a positive sum.
class AliasTable {
 public:
  explicit AliasTable(std::span<const double> weights);

  std::size_t sample(Rng& rng) const;

  // Batched sampling: identical to repeated sample() calls on the same
  // stream (same draws in the same order), with the per-call overhead and
  // the Lemire threshold hoisted out of the loop.
  void sample_batch(Rng& rng, std::span<std::size_t> out) const;

  std::size_t size() const { return prob_.size(); }

  // Normalized probability of outcome i (for testing / introspection).
  double probability(std::size_t i) const { return norm_[i]; }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<double> norm_;
};

}  // namespace rcr
