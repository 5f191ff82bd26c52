// The labeled result types of crosstab and share queries. The fused
// engine (query/engine.hpp) computes them; study tables, the streaming
// study and the serving protocol read them.
#pragma once

#include <string>
#include <vector>

#include "stats/ci.hpp"
#include "stats/contingency.hpp"

namespace rcr::data {

// A contingency table that remembers its category labels.
struct LabeledCrosstab {
  std::vector<std::string> row_labels;
  std::vector<std::string> col_labels;
  stats::Contingency counts{1, 1};

  // Share of column c within row r (row-conditional proportion).
  double row_share(std::size_t r, std::size_t c) const {
    const double total = counts.row_total(r);
    return total > 0.0 ? counts.at(r, c) / total : 0.0;
  }
};

// One option's adoption share with a Wilson interval.
struct OptionShare {
  std::string label;
  double count = 0.0;      // possibly weighted
  double total = 0.0;      // respondents answering the question
  stats::Interval share;   // Wilson CI on count/total
};

}  // namespace rcr::data
