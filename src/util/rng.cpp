#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

// The batched fill kernels below are plain loops over structure-of-arrays
// state, written so the compiler can vectorize them. On x86-64 GCC/glibc we
// compile ISA-specific clones (AVX-512 / AVX2 / baseline) with runtime
// dispatch, so one binary runs everywhere and still uses the widest unit the
// host has. target_clones relies on ifunc resolvers, which run before the
// sanitizer runtimes initialize (TSan crashes outright), so any sanitized
// build falls back to the portable single-version kernel.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__gnu_linux__) && !defined(__SANITIZE_ADDRESS__) &&        \
    !defined(__SANITIZE_THREAD__)
#define RCR_RNG_KERNEL                                                 \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",     \
                               "default"),                             \
                 optimize("O3")))
#elif defined(__GNUC__) && !defined(__clang__)
#define RCR_RNG_KERNEL __attribute__((optimize("O3")))
#else
#define RCR_RNG_KERNEL
#endif

namespace rcr {

namespace {

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// SplitMix64 expansion of a seed into xoshiro256** state, shared by Rng and
// BatchRng so "stream k is exactly Rng(stream_seed(seed, k))" holds.
void expand_seed(std::uint64_t seed, std::uint64_t out[4]) {
  std::uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) out[i] = splitmix64(sm);
  // All-zero state would be absorbing; splitmix64 cannot produce four zero
  // outputs from any seed, but guard anyway.
  if (out[0] == 0 && out[1] == 0 && out[2] == 0 && out[3] == 0) out[0] = 1;
}

inline double u64_to_unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

constexpr std::size_t kStreams = BatchRng::kStreams;

// One draw from each of the kStreams interleaved generators per row. State
// lives in locals for the whole call so the only memory traffic in the loop
// is the output stores; the k-loop has no cross-iteration dependencies and
// vectorizes (xoshiro's xor/shift/rotate update maps directly onto SIMD;
// the *5/*9 multiplies strength-reduce to shifts and adds).
RCR_RNG_KERNEL
void fill_rows_u64(std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
                   std::uint64_t* __restrict s2, std::uint64_t* __restrict s3,
                   std::uint64_t* __restrict dst, std::size_t rows) {
  std::uint64_t a[kStreams], b[kStreams], c[kStreams], d[kStreams];
  for (std::size_t k = 0; k < kStreams; ++k) {
    a[k] = s0[k];
    b[k] = s1[k];
    c[k] = s2[k];
    d[k] = s3[k];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < kStreams; ++k) {
      dst[k] = rotl64(b[k] * 5, 7) * 9;
      const std::uint64_t t = b[k] << 17;
      c[k] ^= a[k];
      d[k] ^= b[k];
      b[k] ^= c[k];
      a[k] ^= d[k];
      c[k] ^= t;
      d[k] = rotl64(d[k], 45);
    }
    dst += kStreams;
  }
  for (std::size_t k = 0; k < kStreams; ++k) {
    s0[k] = a[k];
    s1[k] = b[k];
    s2[k] = c[k];
    s3[k] = d[k];
  }
}

RCR_RNG_KERNEL
void fill_rows_f64(std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
                   std::uint64_t* __restrict s2, std::uint64_t* __restrict s3,
                   double* __restrict dst, std::size_t rows) {
  std::uint64_t a[kStreams], b[kStreams], c[kStreams], d[kStreams];
  for (std::size_t k = 0; k < kStreams; ++k) {
    a[k] = s0[k];
    b[k] = s1[k];
    c[k] = s2[k];
    d[k] = s3[k];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < kStreams; ++k) {
      const std::uint64_t x = rotl64(b[k] * 5, 7) * 9;
      dst[k] = u64_to_unit_double(x);
      const std::uint64_t t = b[k] << 17;
      c[k] ^= a[k];
      d[k] ^= b[k];
      b[k] ^= c[k];
      a[k] ^= d[k];
      c[k] ^= t;
      d[k] = rotl64(d[k], 45);
    }
    dst += kStreams;
  }
  for (std::size_t k = 0; k < kStreams; ++k) {
    s0[k] = a[k];
    s1[k] = b[k];
    s2[k] = c[k];
    s3[k] = d[k];
  }
}

// Bulk fill_below: one row is generated (vector loop), then reduced to
// [0, bound) lane by lane. The Lemire rejection fixup must redraw from the
// owning stream *before* that stream's next row value is generated — the
// per-stream draw order is the determinism contract — so the fixup steps
// the lane's state right here inside the row loop. Rejections occur with
// probability (2^64 mod bound)/2^64 per draw, so for realistic bounds the
// fixup path is never taken and the generate loop stays vector-clean.
RCR_RNG_KERNEL
void fill_rows_below(std::uint64_t* __restrict s0,
                     std::uint64_t* __restrict s1,
                     std::uint64_t* __restrict s2,
                     std::uint64_t* __restrict s3, std::uint64_t bound,
                     std::uint64_t threshold, std::uint64_t* __restrict dst,
                     std::size_t rows) {
  std::uint64_t a[kStreams], b[kStreams], c[kStreams], d[kStreams];
  for (std::size_t k = 0; k < kStreams; ++k) {
    a[k] = s0[k];
    b[k] = s1[k];
    c[k] = s2[k];
    d[k] = s3[k];
  }
  const auto step_lane = [&](std::size_t k) {
    const std::uint64_t x = rotl64(b[k] * 5, 7) * 9;
    const std::uint64_t t = b[k] << 17;
    c[k] ^= a[k];
    d[k] ^= b[k];
    b[k] ^= c[k];
    a[k] ^= d[k];
    c[k] ^= t;
    d[k] = rotl64(d[k], 45);
    return x;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < kStreams; ++k) dst[k] = step_lane(k);
    for (std::size_t k = 0; k < kStreams; ++k) {
      __uint128_t m = static_cast<__uint128_t>(dst[k]) * bound;
      while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]]
        m = static_cast<__uint128_t>(step_lane(k)) * bound;
      dst[k] = static_cast<std::uint64_t>(m >> 64);
    }
    dst += kStreams;
  }
  for (std::size_t k = 0; k < kStreams; ++k) {
    s0[k] = a[k];
    s1[k] = b[k];
    s2[k] = c[k];
    s3[k] = d[k];
  }
}

// --- obs wiring --------------------------------------------------------------
// Handles are resolved once (registration takes a mutex) and kept for the
// process lifetime. Batch sizes feed a histogram; the meter reports
// draws/sec over the time actually spent filling. Under RCR_OBS_DISABLED
// all of this compiles to no-ops.

obs::Histogram& fill_size_histogram() {
  static obs::Histogram& h = obs::registry().histogram("rng.fill.batch_size");
  return h;
}

obs::Meter& fill_draws_meter() {
  static obs::Meter& m = obs::registry().meter("rng.fill.draws");
  return m;
}

obs::Meter& alias_samples_meter() {
  static obs::Meter& m = obs::registry().meter("rng.alias.samples");
  return m;
}

#ifndef RCR_OBS_DISABLED

// Sampled 1 in 16 per calling thread (the repo's obs cost discipline):
// fills can be as small as a handful of draws, and two clock reads plus a
// histogram record on every one would cost more than the fill. Rates stay
// unbiased — sampled calls contribute both their events and their wall
// time, so events/busy-second is the true throughput of the sampled
// subset; absolute counts read ~1/16 of the real draw volume.
class FillScope {
 public:
  explicit FillScope(std::size_t n, obs::Meter& meter = fill_draws_meter())
      : active_(tick()), n_(n), meter_(meter) {
    if (active_) fill_size_histogram().record(static_cast<double>(n));
  }
  FillScope(const FillScope&) = delete;
  FillScope& operator=(const FillScope&) = delete;
  ~FillScope() {
    if (active_) meter_.add(n_, watch_.elapsed_seconds());
  }

 private:
  static bool tick() {
    thread_local std::uint32_t count = 0;
    return (count++ & 0xF) == 0;
  }

  bool active_;
  std::size_t n_;
  obs::Meter& meter_;
  Stopwatch watch_;
};

#else  // RCR_OBS_DISABLED

class FillScope {
 public:
  explicit FillScope(std::size_t) {}
  FillScope(std::size_t, obs::Meter&) {}
  FillScope(const FillScope&) = delete;
  FillScope& operator=(const FillScope&) = delete;
};

#endif  // RCR_OBS_DISABLED

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  expand_seed(seed, s_.data());
  has_spare_ = false;
}

// --- Rng batched draws -------------------------------------------------------
// A single xoshiro stream is a serial dependency chain, so these loops do
// not vectorize; the win over call sites' own loops is the state hoisted
// into registers for the whole batch (the span's pointer may alias the
// member array, so the member-state form reloads state every iteration)
// plus one instrumented call per batch. BatchRng below is the wide path.

void Rng::fill_u64(std::span<std::uint64_t> out) {
  FillScope scope(out.size());
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  std::uint64_t* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = rotl64(b * 5, 7) * 9;
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}

void Rng::fill_double(std::span<double> out) {
  FillScope scope(out.size());
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  double* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = u64_to_unit_double(rotl64(b * 5, 7) * 9);
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}

void Rng::fill_below(std::uint64_t bound, std::span<std::uint64_t> out) {
  RCR_CHECK_MSG(bound > 0, "fill_below needs a positive bound");
  FillScope scope(out.size());
  // Hoisted Lemire threshold: one division per batch instead of the scalar
  // path's lazy per-draw check. threshold < bound, so "l < threshold" makes
  // exactly the accept/reject decisions of next_below's lazy form and the
  // output sequence is unchanged.
  const std::uint64_t threshold = (0 - bound) % bound;
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  const auto step = [&] {
    const std::uint64_t x = rotl64(b * 5, 7) * 9;
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
    return x;
  };
  std::uint64_t* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    __uint128_t m = static_cast<__uint128_t>(step()) * bound;
    while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]]
      m = static_cast<__uint128_t>(step()) * bound;
    dst[i] = static_cast<std::uint64_t>(m >> 64);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}


double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  // Box–Muller, polar rejection form (no trig, numerically friendly).
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double lambda) {
  RCR_CHECK_MSG(lambda > 0.0, "exponential rate must be positive");
  // -log(1-U) avoids log(0) since next_double() < 1.
  return -std::log1p(-next_double()) / lambda;
}

double Rng::gamma(double shape, double scale) {
  RCR_CHECK_MSG(shape > 0.0 && scale > 0.0, "gamma parameters must be > 0");
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia–Tsang boosting trick).
    const double u = next_double();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = next_double();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

double Rng::beta(double a, double b) {
  const double x = gamma(a, 1.0);
  const double y = gamma(b, 1.0);
  return x / (x + y);
}

std::uint64_t Rng::poisson(double lambda) {
  RCR_CHECK_MSG(lambda >= 0.0, "poisson rate must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion, numerically stabilized in log space.
    const double limit = -lambda;
    double sum = 0.0;
    std::uint64_t k = 0;
    for (;;) {
      sum += std::log1p(-next_double());  // log of uniform product term
      if (sum < limit) return k;
      ++k;
    }
  }
  // Normal approximation with continuity correction; adequate for the
  // simulator's arrival batching at large lambda.
  for (;;) {
    const double draw = normal(lambda, std::sqrt(lambda));
    if (draw > -0.5) return static_cast<std::uint64_t>(draw + 0.5);
  }
}

std::size_t Rng::categorical(std::span<const double> weights) {
  RCR_CHECK_MSG(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    RCR_CHECK_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  RCR_CHECK_MSG(total > 0.0, "categorical weights must not all be zero");
  double r = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  RCR_CHECK_MSG(k <= n, "cannot sample more items than the population");
  // Partial Fisher–Yates over a virtual identity permutation of [0, n): the
  // same next_below(n - i) draws and the same swaps as the dense version
  // over an index vector, but only displaced slots are stored, in an
  // open-addressing map slot -> value (a slot absent from the map still
  // holds itself). No step after i reads slot i, so step i records only
  // what moves into slot j: at most one new entry per step, O(k) time and
  // space for any n.
  std::vector<std::size_t> out(k);
  if (k == 0) return out;
  constexpr std::size_t kEmpty = ~std::size_t{0};  // no slot reaches n
  const int bits = std::bit_width(2 * k - 1);      // load factor <= 1/2
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::pair<std::size_t, std::size_t>> displaced(
      mask + 1, {kEmpty, 0});
  const auto entry = [&](std::size_t slot) -> auto& {
    std::size_t h = (slot * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
    while (displaced[h].first != kEmpty && displaced[h].first != slot)
      h = (h + 1) & mask;
    return displaced[h];
  };
  const auto value = [](const std::pair<std::size_t, std::size_t>& e,
                        std::size_t slot) {
    return e.first == kEmpty ? slot : e.second;
  };
  // No BufferedDraws here: the caller keeps using this Rng afterwards, and
  // prefetching would advance the state past what was actually consumed.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    const std::size_t at_i = value(entry(i), i);
    auto& at_j = entry(j);
    out[i] = value(at_j, j);
    at_j = {j, at_i};
  }
  return out;
}

Rng Rng::split() {
  // A fresh seed derived from two outputs keeps child streams decorrelated.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ rotl64(b, 31));
}

// --- BatchRng ----------------------------------------------------------------

std::uint64_t BatchRng::stream_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed ^ (0x9E3779B97F4A7C15ULL * (k + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void BatchRng::reseed(std::uint64_t seed) {
  for (std::size_t k = 0; k < kStreams; ++k) {
    std::uint64_t state[4];
    expand_seed(stream_seed(seed, k), state);
    s0_[k] = state[0];
    s1_[k] = state[1];
    s2_[k] = state[2];
    s3_[k] = state[3];
  }
  buf_pos_ = kStreams;
}

std::uint64_t BatchRng::step_stream(std::size_t k) {
  const std::uint64_t result = rotl64(s1_[k] * 5, 7) * 9;
  const std::uint64_t t = s1_[k] << 17;
  s2_[k] ^= s0_[k];
  s3_[k] ^= s1_[k];
  s1_[k] ^= s2_[k];
  s0_[k] ^= s3_[k];
  s2_[k] ^= t;
  s3_[k] = rotl64(s3_[k], 45);
  return result;
}

void BatchRng::refill_row() {
  fill_rows_u64(s0_.data(), s1_.data(), s2_.data(), s3_.data(), buf_.data(),
                1);
  buf_pos_ = 0;
}

std::uint64_t BatchRng::next_u64() {
  if (buf_pos_ == kStreams) refill_row();
  return buf_[buf_pos_++];
}

void BatchRng::fill_u64(std::span<std::uint64_t> out) {
  FillScope scope(out.size());
  std::size_t i = 0;
  while (buf_pos_ < kStreams && i < out.size()) out[i++] = buf_[buf_pos_++];
  const std::size_t rows = (out.size() - i) / kStreams;
  if (rows > 0) {
    fill_rows_u64(s0_.data(), s1_.data(), s2_.data(), s3_.data(),
                  out.data() + i, rows);
    i += rows * kStreams;
  }
  if (i < out.size()) {
    refill_row();
    while (i < out.size()) out[i++] = buf_[buf_pos_++];
  }
}

void BatchRng::fill_double(std::span<double> out) {
  FillScope scope(out.size());
  std::size_t i = 0;
  while (buf_pos_ < kStreams && i < out.size())
    out[i++] = u64_to_unit_double(buf_[buf_pos_++]);
  const std::size_t rows = (out.size() - i) / kStreams;
  if (rows > 0) {
    fill_rows_f64(s0_.data(), s1_.data(), s2_.data(), s3_.data(),
                  out.data() + i, rows);
    i += rows * kStreams;
  }
  if (i < out.size()) {
    refill_row();
    while (i < out.size()) out[i++] = u64_to_unit_double(buf_[buf_pos_++]);
  }
}

void BatchRng::fill_below(std::uint64_t bound, std::span<std::uint64_t> out) {
  RCR_CHECK_MSG(bound > 0, "fill_below needs a positive bound");
  FillScope scope(out.size());
  // Same accept/reject rule as Rng::next_below: a candidate is rejected iff
  // the low product half is below 2^64 mod bound; the threshold is hoisted
  // (one division per call instead of one per rare rejection).
  const std::uint64_t threshold = (0 - bound) % bound;
  const auto lemire = [&](std::uint64_t x, std::size_t stream) {
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]] {
      // Scalar fixup: redraw from the owning stream until acceptance.
      m = static_cast<__uint128_t>(step_stream(stream)) * bound;
    }
    return static_cast<std::uint64_t>(m >> 64);
  };
  std::size_t i = 0;
  while (buf_pos_ < kStreams && i < out.size()) {
    out[i++] = lemire(buf_[buf_pos_], buf_pos_);
    ++buf_pos_;
  }
  const std::size_t rows = (out.size() - i) / kStreams;
  if (rows > 0) {
    fill_rows_below(s0_.data(), s1_.data(), s2_.data(), s3_.data(), bound,
                    threshold, out.data() + i, rows);
    i += rows * kStreams;
  }
  if (i < out.size()) {
    refill_row();
    while (i < out.size()) {
      out[i++] = lemire(buf_[buf_pos_], buf_pos_);
      ++buf_pos_;
    }
  }
}

// --- AliasTable --------------------------------------------------------------

AliasTable::AliasTable(std::span<const double> weights) {
  RCR_CHECK_MSG(!weights.empty(), "AliasTable needs at least one weight");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    RCR_CHECK_MSG(w >= 0.0, "AliasTable weights must be non-negative");
    total += w;
  }
  RCR_CHECK_MSG(total > 0.0, "AliasTable weights must not all be zero");

  norm_.resize(n);
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    norm_[i] = weights[i] / total;
    scaled[i] = norm_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t l : large) prob_[l] = 1.0;
  for (std::uint32_t s : small) prob_[s] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(rng.next_below(prob_.size()));
  return rng.next_double() < prob_[i] ? i : alias_[i];
}

void AliasTable::sample_batch(Rng& rng, std::span<std::size_t> out) const {
  FillScope scope(out.size(), alias_samples_meter());
  const std::uint64_t n = prob_.size();
  const std::uint64_t threshold = (0 - n) % n;
  const double* const prob = prob_.data();
  const std::uint32_t* const alias = alias_.data();
  for (auto& slot : out) {
    // Inline sample(): next_below(n) with the threshold hoisted (identical
    // accept/reject decisions, so the stream matches scalar sample calls),
    // then the acceptance uniform.
    __uint128_t m = static_cast<__uint128_t>(rng.next_u64()) * n;
    while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]]
      m = static_cast<__uint128_t>(rng.next_u64()) * n;
    const auto i = static_cast<std::size_t>(m >> 64);
    slot = rng.next_double() < prob[i] ? i : alias[i];
  }
}

}  // namespace rcr
