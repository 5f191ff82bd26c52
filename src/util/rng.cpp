#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

namespace rcr {

namespace {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state would be absorbing; splitmix64 cannot produce four zero
  // outputs from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
  has_spare_ = false;
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
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    const std::size_t at_i = value(entry(i), i);
    auto& at_j = entry(j);
    out[i] = value(at_j, j);
    at_j = {j, at_i};
  }
  return out;
}

}  // namespace rcr
