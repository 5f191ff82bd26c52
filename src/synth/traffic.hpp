// Traffic-shaped distributions for synthetic workloads.
//
// The serving benchmarks' load generators (perfbench) and the simulator's
// arrival processes need two classic heavy-traffic primitives that the
// respondent generator never did:
//
//   * Zipf(s) over a finite catalog — request popularity in real serving
//     workloads is heavy-tailed, so a result cache's hit curve is only
//     realistic under Zipfian query popularity;
//   * exponential inter-arrival gaps — a Poisson arrival process is the
//     standard open-loop traffic model (and the memoryless assumption the
//     queueing figures in rcr::sim already lean on).
//
// Both are written as pure functions of a caller-supplied uniform draw in
// [0, 1) rather than over a concrete generator type, so the same code is
// driven by rcr::Rng (sequential studies) and simd::Philox substreams
// (one O(1) stream per synthetic client in the load generator) without a
// dependency on either. Inversion keeps them deterministic: one draw in,
// one value out, no rejection loops, identical across platforms for a
// given draw sequence.
#pragma once

#include <cstddef>
#include <vector>

namespace rcr::synth {

// Zipf-distributed ranks over a finite catalog of n items:
//   P(rank = k) = (k+1)^-s / H_{n,s},   k in [0, n),
// sampled by inverse CDF over the precomputed cumulative table (binary
// search, O(log n) per draw). s = 0 degenerates to uniform; larger s
// concentrates mass on the head (s around 1 is the classic web-request
// popularity curve).
class ZipfSampler {
 public:
  // n >= 1 items, skew s >= 0.
  ZipfSampler(std::size_t n, double s);

  // Maps one uniform draw u in [0, 1) to a rank in [0, n); monotone in u
  // (rank 0, the most popular item, owns the lowest slice of [0, 1)).
  std::size_t sample(double u01) const;

  std::size_t size() const { return cdf_.size(); }
  double skew() const { return skew_; }

  // Normalized P(rank = k); closed-form check target for the tests.
  double probability(std::size_t k) const;

  // E[rank] under the normalized pmf — the moment the unit tests pin the
  // empirical mean against.
  double mean_rank() const;

 private:
  double skew_;
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k); back() == 1.0
};

// One exponential inter-arrival gap with rate `lambda` (> 0 arrivals per
// unit time) from one uniform draw: -log1p(-u) / lambda. Mean 1/lambda,
// variance 1/lambda^2. log1p keeps precision for small u and u -> 1 is
// safe because next_double() style draws never reach 1.0 exactly.
double exponential_interarrival(double lambda, double u01);

// Beta(alpha, beta) values in [0, 1] by inverse CDF: the draw u is mapped
// to the x with I_x(alpha, beta) = u, where I is the regularized
// incomplete beta function (stats::beta_inc), found by bisection — the
// CDF is continuous and strictly increasing on (0, 1), so ~64 halvings
// pin x to one double ulp. One draw in, one value out, monotone in u, no
// rejection loops. This is the population-heterogeneity workhorse the
// roadmap's distribution checklist closes on: per-respondent adoption
// propensities, latent trait mixes, and sweep-cell prevalence variants
// all want a bounded two-parameter shape.
class BetaSampler {
 public:
  // alpha > 0, beta > 0, finite.
  BetaSampler(double alpha, double beta);

  // Maps one uniform draw u in [0, 1) to a value in [0, 1]; monotone in u.
  double sample(double u01) const;

  // CDF at x — I_x(alpha, beta); closed-form check target for the tests
  // (sample() inverts exactly this).
  double cdf(double x) const;

  // Closed moments the unit tests pin the empirical ones against.
  double mean() const { return alpha_ / (alpha_ + beta_); }
  double variance() const {
    const double s = alpha_ + beta_;
    return alpha_ * beta_ / (s * s * (s + 1.0));
  }

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  double alpha_;
  double beta_;
};

}  // namespace rcr::synth
