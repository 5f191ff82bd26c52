#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rcr::stats {

Log2Histogram::Log2Histogram(int min_exp, int max_exp)
    : min_exp_(min_exp), max_exp_(max_exp),
      counts_(static_cast<std::size_t>(max_exp - min_exp), 0.0) {
  RCR_CHECK_MSG(max_exp > min_exp, "log2 histogram range must be non-empty");
}

void Log2Histogram::add(double value, double weight) {
  RCR_CHECK_MSG(value > 0.0, "log2 histogram needs positive values");
  RCR_CHECK_MSG(weight >= 0.0, "histogram weight must be non-negative");
  const double e = std::log2(value);
  int bin = static_cast<int>(std::floor(e)) - min_exp_;
  bin = std::clamp(bin, 0, static_cast<int>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

double Log2Histogram::fraction(std::size_t i) const {
  RCR_DCHECK(i < counts_.size());
  return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

std::string Log2Histogram::bin_label(std::size_t i) const {
  return "[2^" + std::to_string(bin_exp(i)) + ", 2^" +
         std::to_string(bin_exp(i) + 1) + ")";
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> values,
                                    std::span<const double> weights) {
  RCR_CHECK_MSG(!values.empty(), "empirical_cdf of empty data");
  const bool weighted = !weights.empty();
  if (weighted)
    RCR_CHECK_MSG(weights.size() == values.size(), "cdf weight size mismatch");

  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });

  double total = 0.0;
  if (weighted) {
    for (double w : weights) {
      RCR_CHECK_MSG(w >= 0.0, "cdf weights must be non-negative");
      total += w;
    }
    RCR_CHECK_MSG(total > 0.0, "cdf weights must not all be zero");
  } else {
    total = static_cast<double>(values.size());
  }

  std::vector<CdfPoint> out;
  double cum = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    const double v = values[order[i]];
    double mass = 0.0;
    while (i < order.size() && values[order[i]] == v) {
      mass += weighted ? weights[order[i]] : 1.0;
      ++i;
    }
    cum += mass;
    out.push_back({v, cum / total});
  }
  return out;
}

}  // namespace rcr::stats
