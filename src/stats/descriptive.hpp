// Descriptive statistics over contiguous numeric data.
//
// All functions take std::span<const double> so they work on raw vectors,
// table columns, and bootstrap resamples alike without copies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rcr::stats {

double sum(std::span<const double> x);
double mean(std::span<const double> x);

// Sample variance / stddev (n-1 denominator); requires n >= 2.
double variance(std::span<const double> x);
double stddev(std::span<const double> x);

double min(std::span<const double> x);
double max(std::span<const double> x);

// Quantile with linear interpolation (type-7, the R/numpy default).
// q in [0,1]. Sorts a copy; for repeated use sort once and call _sorted.
double quantile(std::span<const double> x, double q);
double quantile_sorted(std::span<const double> sorted_x, double q);
double median(std::span<const double> x);

// Midranks (1-based, ties averaged), as the Wilcoxon signed-rank test uses.
std::vector<double> ranks(std::span<const double> x);

// One-pass summary used by report tables.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev; 0 when n < 2
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

Summary summarize(std::span<const double> x);

}  // namespace rcr::stats
