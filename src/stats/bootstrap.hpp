// Nonparametric bootstrap engine.
//
// Resampling is embarrassingly parallel, so the engine optionally fans the
// replicates out over a ThreadPool; replicate b draws from simd::Philox
// substream b of the master seed (counter-based splitting — no hash
// reseeding), making results identical whether run serially or on any
// thread count. The generic engine resamples rows; the proportions engine
// draws each replicate's pattern counts directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stats/ci.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::stats {

// A statistic computed from one (re)sample of the data.
using Statistic = std::function<double(std::span<const double>)>;

struct BootstrapOptions {
  std::size_t replicates = 2000;
  double confidence = 0.95;
  std::uint64_t seed = 42;
  // When non-null the replicates run on this pool.
  rcr::parallel::ThreadPool* pool = nullptr;
  // Also compute the BCa interval (adds an O(n) jackknife pass over the
  // statistic; worthwhile for skewed statistics like medians or ratios).
  bool compute_bca = false;
};

struct BootstrapResult {
  double estimate = 0.0;       // statistic on the original sample
  double bias = 0.0;           // mean(replicates) - estimate
  double std_error = 0.0;      // stddev of replicates
  Interval percentile_ci;      // percentile method
  Interval basic_ci;           // basic (reflected) method
  Interval normal_ci;          // normal approximation using bootstrap SE
  Interval bca_ci;             // BCa (only when options.compute_bca)
  double bca_acceleration = 0.0;   // jackknife acceleration estimate
  double bca_bias_z0 = 0.0;        // median-bias correction
  std::vector<double> replicates;  // sorted replicate values
};

// Bootstraps `statistic` over `data` by resampling with replacement.
BootstrapResult bootstrap(std::span<const double> data,
                          const Statistic& statistic,
                          const BootstrapOptions& options = {});

inline constexpr std::size_t kMaxProportionColumns = 8;

// Bootstrap CIs for c proportions over the same n rows, from their
// sufficient statistic: pattern_counts[k] counts the rows whose 0/1 values
// form pattern k (bit j = column j), so the span holds 2^c entries,
// 1 <= c <= kMaxProportionColumns, totalling n > 0; anything else throws.
// Replicate b draws the resampled rows' pattern counts as one multinomial,
// by one binomial per nonzero pattern from Philox substream b. result[j]'s
// estimate is count_j / n, the bits of mean(column j); its replicates equal
// those of bootstrap(column j, mean-lambda) in distribution, not in bits.
std::vector<BootstrapResult> bootstrap_proportions(
    std::span<const std::uint64_t> pattern_counts,
    const BootstrapOptions& options = {});

}  // namespace rcr::stats
