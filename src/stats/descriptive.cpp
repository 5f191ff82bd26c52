#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace rcr::stats {

double sum(std::span<const double> x) {
  // Neumaier compensated summation: survey weights and bootstrap sums can
  // mix magnitudes, and unlike plain Kahan this stays accurate when a new
  // term is larger than the running sum.
  double s = 0.0, c = 0.0;
  for (double v : x) {
    const double t = s + v;
    if (std::fabs(s) >= std::fabs(v)) {
      c += (s - t) + v;
    } else {
      c += (v - t) + s;
    }
    s = t;
  }
  return s + c;
}

double mean(std::span<const double> x) {
  RCR_CHECK_MSG(!x.empty(), "mean of empty data");
  return sum(x) / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  RCR_CHECK_MSG(x.size() >= 2, "sample variance needs n >= 2");
  const double m = mean(x);
  double ss = 0.0;
  for (double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double min(std::span<const double> x) {
  RCR_CHECK_MSG(!x.empty(), "min of empty data");
  return *std::min_element(x.begin(), x.end());
}

double max(std::span<const double> x) {
  RCR_CHECK_MSG(!x.empty(), "max of empty data");
  return *std::max_element(x.begin(), x.end());
}

double quantile_sorted(std::span<const double> sorted_x, double q) {
  RCR_CHECK_MSG(!sorted_x.empty(), "quantile of empty data");
  RCR_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  const double idx = q * static_cast<double>(sorted_x.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  if (lo + 1 >= sorted_x.size()) return sorted_x.back();
  return sorted_x[lo] * (1.0 - frac) + sorted_x[lo + 1] * frac;
}

double quantile(std::span<const double> x, double q) {
  std::vector<double> copy(x.begin(), x.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> x) { return quantile(x, 0.5); }

std::vector<double> ranks(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  std::vector<double> r(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && x[order[j + 1]] == x[order[i]]) ++j;
    // Average rank for the tie group [i, j]; ranks are 1-based.
    const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg;
    i = j + 1;
  }
  return r;
}

Summary summarize(std::span<const double> x) {
  RCR_CHECK_MSG(!x.empty(), "summarize of empty data");
  Summary s;
  s.n = x.size();
  s.mean = mean(x);
  s.stddev = x.size() >= 2 ? stddev(x) : 0.0;
  std::vector<double> copy(x.begin(), x.end());
  std::sort(copy.begin(), copy.end());
  s.min = copy.front();
  s.max = copy.back();
  s.median = quantile_sorted(copy, 0.5);
  s.p25 = quantile_sorted(copy, 0.25);
  s.p75 = quantile_sorted(copy, 0.75);
  return s;
}

}  // namespace rcr::stats
