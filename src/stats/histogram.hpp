// Histograms and empirical CDFs used by the distribution figures
// (core-count CDF F3, dataset-size log histogram F8).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace rcr::stats {

// Log2-binned histogram for heavy-tailed positive data (dataset sizes,
// core counts). Bin i covers [2^(min_exp+i), 2^(min_exp+i+1)).
class Log2Histogram {
 public:
  Log2Histogram(int min_exp, int max_exp);

  void add(double value, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  int bin_exp(std::size_t i) const { return min_exp_ + static_cast<int>(i); }
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }
  double fraction(std::size_t i) const;
  std::string bin_label(std::size_t i) const;  // e.g. "[2^10, 2^11)"

 private:
  int min_exp_, max_exp_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double cumulative = 0.0;  // P(X <= value)
};

// Weighted empirical CDF evaluated at each distinct data value.
std::vector<CdfPoint> empirical_cdf(std::span<const double> values,
                                    std::span<const double> weights = {});

}  // namespace rcr::stats
