#include "stats/permutation.hpp"

#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::stats {

namespace {

std::uint64_t permutation_seed(std::uint64_t master, std::size_t index) {
  std::uint64_t z = master ^ (0xD1B54A32D192ED03ULL * (index + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// k-of-n split via partial Fisher–Yates: only the first nx slots need to be
// a uniform sample of the pool, the remainder is the complement, so the
// shuffle stops after nx swaps instead of walking the whole array.
void partial_split_shuffle(std::vector<double>& values, std::size_t nx,
                           Rng& rng) {
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < nx; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(values[i], values[j]);
  }
}

// One shuffled replicate: pooled data partitioned into |x| and |y|.
double one_replicate(std::span<const double> pooled, std::size_t nx,
                     const TwoSampleStatistic& statistic, std::uint64_t seed,
                     std::vector<double>& scratch) {
  Rng rng(seed);
  scratch.assign(pooled.begin(), pooled.end());
  partial_split_shuffle(scratch, nx, rng);
  return statistic(std::span<const double>(scratch.data(), nx),
                   std::span<const double>(scratch.data() + nx,
                                           scratch.size() - nx));
}

// Neumaier sum over a contiguous run — stats::mean's exact arithmetic,
// inlined so the fast path below reproduces mean(a) - mean(b) bitwise.
double neumaier_mean(const double* v, std::size_t n) {
  double s = 0.0, c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = s + v[i];
    if (std::fabs(s) >= std::fabs(v[i])) {
      c += (s - t) + v[i];
    } else {
      c += (v[i] - t) + s;
    }
    s = t;
  }
  return (s + c) / static_cast<double>(n);
}

// Fast path for the mean/proportion difference: same shuffle, but the
// group means accumulate straight off the scratch buffer with no
// std::function dispatch and no span plumbing per replicate.
double mean_diff_replicate(std::span<const double> pooled, std::size_t nx,
                           std::uint64_t seed, std::vector<double>& scratch) {
  Rng rng(seed);
  scratch.assign(pooled.begin(), pooled.end());
  partial_split_shuffle(scratch, nx, rng);
  return neumaier_mean(scratch.data(), nx) -
         neumaier_mean(scratch.data() + nx, scratch.size() - nx);
}

template <typename ReplicateFn>
PermutationResult permutation_core(std::span<const double> x,
                                   std::span<const double> y,
                                   double observed,
                                   const PermutationOptions& options,
                                   ReplicateFn&& replicate) {
  RCR_CHECK_MSG(!x.empty() && !y.empty(),
                "permutation test needs both samples");
  RCR_CHECK_MSG(options.permutations >= 10,
                "permutation test needs >= 10 permutations");

  PermutationResult result;
  result.observed = observed;
  result.permutations = options.permutations;

  std::vector<double> pooled;
  pooled.reserve(x.size() + y.size());
  pooled.insert(pooled.end(), x.begin(), x.end());
  pooled.insert(pooled.end(), y.begin(), y.end());

  std::vector<double> replicates(options.permutations);
  {
    // Throughput meter: shuffles/sec over the resampling phase only.
    obs::MeterScope meter(
        obs::registry().meter("stats.permutation.replicates"),
        options.permutations);
    if (options.pool != nullptr) {
      rcr::parallel::parallel_for_range(
          *options.pool, 0, options.permutations,
          [&](std::size_t lo, std::size_t hi) {
            std::vector<double> scratch;
            for (std::size_t b = lo; b < hi; ++b) {
              replicates[b] = replicate(
                  pooled, permutation_seed(options.seed, b), scratch);
            }
          });
    } else {
      std::vector<double> scratch;
      for (std::size_t b = 0; b < options.permutations; ++b) {
        replicates[b] =
            replicate(pooled, permutation_seed(options.seed, b), scratch);
      }
    }
  }

  // "+1" correction keeps p-values in (0, 1] and unbiased.
  std::size_t ge = 0, le = 0, extreme = 0;
  const double abs_obs = std::fabs(result.observed);
  for (double r : replicates) {
    if (r >= result.observed) ++ge;
    if (r <= result.observed) ++le;
    if (std::fabs(r) >= abs_obs) ++extreme;
  }
  const double denom = static_cast<double>(options.permutations + 1);
  result.p_greater = static_cast<double>(ge + 1) / denom;
  result.p_less = static_cast<double>(le + 1) / denom;
  result.p_value = std::min(1.0, static_cast<double>(extreme + 1) / denom);
  return result;
}

}  // namespace

PermutationResult permutation_test(std::span<const double> x,
                                   std::span<const double> y,
                                   const TwoSampleStatistic& statistic,
                                   const PermutationOptions& options) {
  RCR_CHECK_MSG(!x.empty() && !y.empty(),
                "permutation test needs both samples");
  const std::size_t nx = x.size();
  return permutation_core(
      x, y, statistic(x, y), options,
      [&](std::span<const double> pooled, std::uint64_t seed,
          std::vector<double>& scratch) {
        return one_replicate(pooled, nx, statistic, seed, scratch);
      });
}

PermutationResult permutation_test_mean_diff(
    std::span<const double> x, std::span<const double> y,
    const PermutationOptions& options) {
  RCR_CHECK_MSG(!x.empty() && !y.empty(),
                "permutation test needs both samples");
  const std::size_t nx = x.size();
  return permutation_core(
      x, y, mean(x) - mean(y), options,
      [nx](std::span<const double> pooled, std::uint64_t seed,
           std::vector<double>& scratch) {
        return mean_diff_replicate(pooled, nx, seed, scratch);
      });
}

PermutationResult permutation_test_proportion_diff(
    std::span<const double> x, std::span<const double> y,
    const PermutationOptions& options) {
  for (std::span<const double> s : {x, y})
    for (double v : s)
      RCR_CHECK_MSG(v == 0.0 || v == 1.0,
                    "proportion permutation test expects 0/1 data");
  return permutation_test_mean_diff(x, y, options);
}

}  // namespace rcr::stats
