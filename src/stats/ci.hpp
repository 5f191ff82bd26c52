// Confidence intervals for proportions and means.
//
// The survey reports nearly everything as a proportion with an interval, so
// these are the workhorses of every table. Wilson is the default (good
// coverage at the small per-stratum n this kind of study has).
#pragma once

#include <span>

namespace rcr::stats {

struct Interval {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;

  double width() const { return hi - lo; }
  bool contains(double v) const { return v >= lo && v <= hi; }
};

// Wilson score interval for a binomial proportion.
Interval wilson_ci(double successes, double n, double confidence = 0.95);

// Normal-theory interval for a mean (z critical value; survey n is large
// enough that the t correction is negligible, see tests for the bound).
Interval mean_ci(std::span<const double> x, double confidence = 0.95);

// Interval for a weighted proportion using Kish effective sample size.
Interval weighted_proportion_ci(double weighted_successes,
                                double weighted_total,
                                double effective_n,
                                double confidence = 0.95);

}  // namespace rcr::stats
