#include "stats/contingency.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/special.hpp"
#include "util/error.hpp"

namespace rcr::stats {

Contingency::Contingency(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, 0.0) {
  RCR_CHECK_MSG(rows > 0 && cols > 0, "Contingency must be non-empty");
}

Contingency::Contingency(
    std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.begin()->size()) {
  RCR_CHECK_MSG(rows_ > 0 && cols_ > 0, "Contingency must be non-empty");
  cells_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    RCR_CHECK_MSG(row.size() == cols_, "ragged contingency initializer");
    for (double v : row) {
      RCR_CHECK_MSG(v >= 0.0, "contingency counts must be non-negative");
      cells_.push_back(v);
    }
  }
}

double& Contingency::at(std::size_t r, std::size_t c) {
  RCR_DCHECK(r < rows_ && c < cols_);
  return cells_[r * cols_ + c];
}

double Contingency::at(std::size_t r, std::size_t c) const {
  RCR_DCHECK(r < rows_ && c < cols_);
  return cells_[r * cols_ + c];
}

void Contingency::add(std::size_t r, std::size_t c, double count) {
  RCR_CHECK_MSG(count >= 0.0, "cannot add negative counts");
  at(r, c) += count;
}

double Contingency::row_total(std::size_t r) const {
  double t = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) t += at(r, c);
  return t;
}

double Contingency::col_total(std::size_t c) const {
  double t = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) t += at(r, c);
  return t;
}

double Contingency::grand_total() const {
  double t = 0.0;
  for (double v : cells_) t += v;
  return t;
}

double Contingency::expected(std::size_t r, std::size_t c) const {
  const double grand = grand_total();
  RCR_CHECK_MSG(grand > 0.0, "expected counts need a non-empty table");
  return row_total(r) * col_total(c) / grand;
}

Contingency Contingency::without_empty_margins() const {
  std::vector<std::size_t> keep_rows, keep_cols;
  for (std::size_t r = 0; r < rows_; ++r)
    if (row_total(r) > 0.0) keep_rows.push_back(r);
  for (std::size_t c = 0; c < cols_; ++c)
    if (col_total(c) > 0.0) keep_cols.push_back(c);
  RCR_CHECK_MSG(!keep_rows.empty() && !keep_cols.empty(),
                "contingency table is entirely zero");
  Contingency out(keep_rows.size(), keep_cols.size());
  for (std::size_t i = 0; i < keep_rows.size(); ++i)
    for (std::size_t j = 0; j < keep_cols.size(); ++j)
      out.at(i, j) = at(keep_rows[i], keep_cols[j]);
  return out;
}

namespace {

ChiSquareResult finish_chi2(const Contingency& t, double statistic) {
  ChiSquareResult r;
  r.statistic = statistic;
  r.dof = static_cast<double>((t.rows() - 1) * (t.cols() - 1));
  r.p_value = r.dof > 0.0 ? chi2_sf(statistic, r.dof) : 1.0;
  const double n = t.grand_total();
  const double k = static_cast<double>(std::min(t.rows(), t.cols()));
  r.cramers_v = (n > 0.0 && k > 1.0)
                    ? std::sqrt(statistic / (n * (k - 1.0)))
                    : 0.0;
  r.min_expected = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      r.min_expected = std::min(r.min_expected, t.expected(i, j));
  return r;
}

void validate_for_independence(const Contingency& t) {
  RCR_CHECK_MSG(t.rows() >= 2 && t.cols() >= 2,
                "independence test needs at least a 2x2 table");
  for (std::size_t r = 0; r < t.rows(); ++r)
    RCR_CHECK_MSG(t.row_total(r) > 0.0,
                  "zero row margin; call without_empty_margins() first");
  for (std::size_t c = 0; c < t.cols(); ++c)
    RCR_CHECK_MSG(t.col_total(c) > 0.0,
                  "zero column margin; call without_empty_margins() first");
}

}  // namespace

ChiSquareResult chi_square_independence(const Contingency& table) {
  validate_for_independence(table);
  double stat = 0.0;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    for (std::size_t c = 0; c < table.cols(); ++c) {
      const double e = table.expected(r, c);
      const double d = table.at(r, c) - e;
      stat += d * d / e;
    }
  }
  return finish_chi2(table, stat);
}

TwoProportionResult two_proportion_test(double success1, double n1,
                                        double success2, double n2,
                                        double confidence) {
  RCR_CHECK_MSG(n1 > 0.0 && n2 > 0.0, "two_proportion_test needs trials");
  RCR_CHECK_MSG(success1 >= 0.0 && success1 <= n1, "successes1 out of range");
  RCR_CHECK_MSG(success2 >= 0.0 && success2 <= n2, "successes2 out of range");
  RCR_CHECK_MSG(confidence > 0.0 && confidence < 1.0, "bad confidence");
  TwoProportionResult r;
  r.p1 = success1 / n1;
  r.p2 = success2 / n2;
  r.diff = r.p1 - r.p2;
  const double pooled = (success1 + success2) / (n1 + n2);
  const double se_pooled =
      std::sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2));
  if (se_pooled > 0.0) {
    r.z = r.diff / se_pooled;
    r.p_value = 2.0 * normal_sf(std::fabs(r.z));
  } else {
    r.z = 0.0;
    r.p_value = 1.0;
  }
  const double se_unpooled = std::sqrt(r.p1 * (1.0 - r.p1) / n1 +
                                       r.p2 * (1.0 - r.p2) / n2);
  const double zcrit = normal_quantile(0.5 + 0.5 * confidence);
  r.diff_ci_lo = r.diff - zcrit * se_unpooled;
  r.diff_ci_hi = r.diff + zcrit * se_unpooled;
  return r;
}

double odds_ratio(double a, double b, double c, double d) {
  if (a == 0.0 || b == 0.0 || c == 0.0 || d == 0.0) {
    a += 0.5;
    b += 0.5;
    c += 0.5;
    d += 0.5;
  }
  return (a * d) / (b * c);
}

MannWhitneyResult mann_whitney_u(std::span<const double> x,
                                 std::span<const double> y) {
  RCR_CHECK_MSG(!x.empty() && !y.empty(), "mann_whitney_u needs both samples");
  const auto sorted_copy = [](std::span<const double> v) {
    std::vector<double> s(v.begin(), v.end());
    for (double d : s)
      RCR_CHECK_MSG(!std::isnan(d), "mann_whitney_u: NaN in a sample");
    if (!std::is_sorted(s.begin(), s.end())) std::sort(s.begin(), s.end());
    return s;
  };
  const std::vector<double> xs = sorted_copy(x);
  const std::vector<double> ys = sorted_copy(y);
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());

  // One merge walk over the pooled sample's tie groups, ascending. A group
  // at pooled positions [first, last] holds the midrank (first+last)/2 + 1
  // (1-based, ties averaged). Ranks are half-integers and their sum stays
  // far below 2^53, so rank_sum_x is exact in any summation order.
  double rank_sum_x = 0.0;
  double tie_term = 0.0;
  std::size_t i = 0, j = 0;
  while (i < xs.size() || j < ys.size()) {
    const double v =
        j == ys.size() || (i < xs.size() && xs[i] < ys[j]) ? xs[i] : ys[j];
    const std::size_t first = i + j;
    const std::size_t x_first = i;
    while (i < xs.size() && xs[i] == v) ++i;
    while (j < ys.size() && ys[j] == v) ++j;
    const std::size_t in_x = i - x_first;
    const std::size_t last = i + j - 1;
    rank_sum_x += static_cast<double>(in_x) *
                  (0.5 * static_cast<double>(first + last) + 1.0);
    const double t = static_cast<double>(last - first + 1);
    tie_term += t * t * t - t;
  }

  MannWhitneyResult out;
  out.u = rank_sum_x - nx * (nx + 1.0) / 2.0;
  out.effect_size = out.u / (nx * ny);

  // Tie-corrected normal approximation.
  const double n = nx + ny;
  const double mu = nx * ny / 2.0;
  const double sigma2 =
      nx * ny / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (sigma2 > 0.0) {
    // Continuity correction of 0.5 toward the mean.
    const double num = out.u - mu;
    const double corrected =
        num > 0.5 ? num - 0.5 : (num < -0.5 ? num + 0.5 : 0.0);
    out.z = corrected / std::sqrt(sigma2);
    out.p_value = 2.0 * normal_sf(std::fabs(out.z));
  }
  return out;
}

std::vector<double> holm_adjust(std::span<const double> p_values) {
  const std::size_t m = p_values.size();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) {
    RCR_CHECK_MSG(p_values[i] >= 0.0 && p_values[i] <= 1.0,
                  "p-values must lie in [0,1]");
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p_values[a] < p_values[b];
  });
  std::vector<double> adjusted(m, 0.0);
  double running_max = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const double scaled =
        std::min(1.0, static_cast<double>(m - k) * p_values[order[k]]);
    running_max = std::max(running_max, scaled);
    adjusted[order[k]] = running_max;
  }
  return adjusted;
}

McNemarResult mcnemar_test(double b, double c) {
  RCR_CHECK_MSG(b >= 0.0 && c >= 0.0 && b == std::floor(b) &&
                    c == std::floor(c),
                "mcnemar needs non-negative integer discordant counts");
  McNemarResult r;
  const double n = b + c;
  if (n == 0.0) return r;  // no discordant pairs: no evidence, p = 1
  if (n < 26.0) {
    // Exact binomial: under H0 each discordant pair is a fair coin.
    r.exact = true;
    const double k = std::min(b, c);
    double tail = 0.0;
    for (double i = 0.0; i <= k; i += 1.0)
      tail += std::exp(log_choose(n, i) - n * std::log(2.0));
    r.p_value = std::min(1.0, 2.0 * tail);
    // Report the uncorrected statistic for reference.
    r.statistic = (b - c) * (b - c) / n;
    return r;
  }
  // Edwards continuity correction.
  const double d = std::fabs(b - c);
  r.statistic = d >= 1.0 ? (d - 1.0) * (d - 1.0) / n : 0.0;
  r.p_value = chi2_sf(r.statistic, 1.0);
  return r;
}

}  // namespace rcr::stats
