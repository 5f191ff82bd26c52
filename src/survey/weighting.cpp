#include "survey/weighting.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace rcr::survey {

namespace {

constexpr std::size_t kMaxIterations = 100;
constexpr double kTolerance = 1e-8;  // max |weighted share - target| to stop
// Trimming bounds, as multiples of the mean weight.
constexpr double kMinWeight = 0.05;
constexpr double kMaxWeight = 20.0;

struct PreparedTarget {
  const data::CategoricalColumn* column = nullptr;
  std::vector<double> target_share;  // by category code, normalized
};

std::vector<PreparedTarget> prepare_targets(
    const data::Table& table, const std::vector<MarginTarget>& targets) {
  RCR_CHECK_MSG(!targets.empty(), "raking needs at least one margin target");
  std::vector<PreparedTarget> prepared;
  prepared.reserve(targets.size());
  for (const auto& t : targets) {
    PreparedTarget p;
    p.column = &table.categorical(t.column);
    p.target_share.assign(p.column->category_count(), 0.0);
    double total = 0.0;
    for (const auto& [label, share] : t.shares) {
      RCR_CHECK_MSG(share > 0.0, "margin target shares must be positive");
      const std::int32_t code = p.column->find_code(label);
      RCR_CHECK_MSG(code >= 0, "margin target label '" + label +
                                   "' not a category of '" + t.column + "'");
      p.target_share[static_cast<std::size_t>(code)] = share;
      total += share;
    }
    RCR_CHECK_MSG(total > 0.0, "margin target must have positive total");
    for (double& s : p.target_share) s /= total;
    // Every category present in the data must have a target, or its rows
    // could never be calibrated.
    const auto counts = p.column->counts();
    for (std::size_t c = 0; c < counts.size(); ++c) {
      RCR_CHECK_MSG(counts[c] == 0.0 || p.target_share[c] > 0.0,
                    "category '" + p.column->category(c) +
                        "' present in data but absent from targets");
    }
    prepared.push_back(std::move(p));
  }
  return prepared;
}

}  // namespace

RakingResult rake_weights(const data::Table& table,
                          const std::vector<MarginTarget>& targets) {
  table.validate_rectangular();
  const std::size_t n = table.row_count();
  RCR_CHECK_MSG(n > 0, "raking needs data");
  const auto prepared = prepare_targets(table, targets);

  // Rows eligible for calibration: a value in every target column.
  std::vector<std::size_t> calibrated;
  calibrated.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool ok = true;
    for (const auto& p : prepared)
      if (p.column->is_missing(i)) ok = false;
    if (ok) calibrated.push_back(i);
  }
  RCR_CHECK_MSG(!calibrated.empty(), "no rows usable for raking");

  RakingResult result;
  result.weights.assign(n, 1.0);

  const double calibrated_total = static_cast<double>(calibrated.size());
  for (std::size_t iter = 1; iter <= kMaxIterations; ++iter) {
    double max_residual = 0.0;
    for (const auto& p : prepared) {
      // Current weighted distribution over this margin.
      std::vector<double> weighted(p.target_share.size(), 0.0);
      double wsum = 0.0;
      for (std::size_t row : calibrated) {
        const auto code = static_cast<std::size_t>(p.column->code_at(row));
        weighted[code] += result.weights[row];
        wsum += result.weights[row];
      }
      // Multiply weights by target/current per category.
      for (std::size_t row : calibrated) {
        const auto code = static_cast<std::size_t>(p.column->code_at(row));
        const double current = weighted[code] / wsum;
        if (current > 0.0)
          result.weights[row] *= p.target_share[code] / current;
      }
    }
    // Residual after a full pass, measured across every margin.
    for (const auto& p : prepared) {
      std::vector<double> weighted(p.target_share.size(), 0.0);
      double wsum = 0.0;
      for (std::size_t row : calibrated) {
        const auto code = static_cast<std::size_t>(p.column->code_at(row));
        weighted[code] += result.weights[row];
        wsum += result.weights[row];
      }
      for (std::size_t c = 0; c < weighted.size(); ++c) {
        if (p.target_share[c] == 0.0 && weighted[c] == 0.0) continue;
        max_residual = std::max(
            max_residual, std::fabs(weighted[c] / wsum - p.target_share[c]));
      }
    }
    result.iterations = iter;
    result.max_residual = max_residual;
    if (max_residual < kTolerance) {
      result.converged = true;
      break;
    }
  }

  // Normalize calibrated weights to mean 1, then trim.
  double wsum = 0.0;
  for (std::size_t row : calibrated) wsum += result.weights[row];
  const double mean_w = wsum / calibrated_total;
  for (std::size_t row : calibrated) {
    double w = result.weights[row] / mean_w;
    w = std::clamp(w, kMinWeight, kMaxWeight);
    result.weights[row] = w;
  }

  // Design effect over the calibrated rows (Kish): 1 + CV².
  double s = 0.0, s2 = 0.0;
  for (std::size_t row : calibrated) {
    s += result.weights[row];
    s2 += result.weights[row] * result.weights[row];
  }
  const double mean = s / calibrated_total;
  const double var = s2 / calibrated_total - mean * mean;
  result.design_effect = 1.0 + (mean > 0.0 ? var / (mean * mean) : 0.0);
  result.effective_n = calibrated_total / result.design_effect;
  return result;
}

}  // namespace rcr::survey
