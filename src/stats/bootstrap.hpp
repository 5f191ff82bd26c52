// Nonparametric bootstrap engine.
//
// Resampling is embarrassingly parallel, so the engine optionally fans the
// replicates out over a ThreadPool; replicate b draws from simd::Philox
// substream b of the master seed (counter-based splitting — no hash
// reseeding), making results identical whether run serially or on any
// thread count.
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

// Bootstrap CIs for up to kMaxProportionColumns proportions over the same
// rows: equal-length, non-empty columns of 0/1 values. All columns share
// one resample stream per replicate and are counted in one pass over it,
// so result[c] is bit-identical (replicates, every interval, BCa) to
// bootstrap(columns[c], mean-lambda, options) at the cost of one column.
std::vector<BootstrapResult> bootstrap_proportions(
    std::span<const std::span<const double>> columns,
    const BootstrapOptions& options = {});

}  // namespace rcr::stats
