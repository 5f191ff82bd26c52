// Contingency tables and the categorical association tests the survey
// analysis runs on them (χ², two-proportion z, Mann–Whitney, McNemar,
// effect sizes, Holm adjustment).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace rcr::stats {

// Dense r×c table of non-negative counts. Counts are doubles so weighted
// (fractional) counts from the raking step flow through unchanged.
class Contingency {
 public:
  Contingency(std::size_t rows, std::size_t cols);
  Contingency(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  void add(std::size_t r, std::size_t c, double count = 1.0);

  double row_total(std::size_t r) const;
  double col_total(std::size_t c) const;
  double grand_total() const;

  // Expected count under independence: row_total * col_total / grand.
  double expected(std::size_t r, std::size_t c) const;

  // Drops all-zero rows and columns (degenerate categories break the tests).
  Contingency without_empty_margins() const;

 private:
  std::size_t rows_, cols_;
  std::vector<double> cells_;
};

struct ChiSquareResult {
  double statistic = 0.0;
  double dof = 0.0;
  double p_value = 1.0;
  double cramers_v = 0.0;   // bias-uncorrected Cramér's V
  double min_expected = 0.0;  // smallest expected cell, for validity warnings
};

// Pearson χ² test of independence. Requires at least a 2×2 table with
// positive margins everywhere (call without_empty_margins() first if needed).
ChiSquareResult chi_square_independence(const Contingency& table);

struct TwoProportionResult {
  double p1 = 0.0, p2 = 0.0;
  double diff = 0.0;       // p1 - p2
  double z = 0.0;          // pooled z statistic
  double p_value = 1.0;    // two-sided
  double diff_ci_lo = 0.0; // unpooled Wald CI for the difference
  double diff_ci_hi = 0.0;
};

// Two-sample proportion z-test: successes/trials per wave.
TwoProportionResult two_proportion_test(double success1, double n1,
                                        double success2, double n2,
                                        double confidence = 0.95);

// Sample odds ratio of a 2×2 table with Haldane–Anscombe 0.5 correction
// applied only when a zero cell is present.
double odds_ratio(double a, double b, double c, double d);

struct MannWhitneyResult {
  double u = 0.0;
  double z = 0.0;       // normal approximation with tie correction
  double p_value = 1.0; // two-sided
  // Common-language effect size: P(X > Y) + 0.5 P(X == Y).
  double effect_size = 0.5;
};

// Sorts a copy of each sample (unless already sorted) and ranks the pooled
// sample in one merge walk (midranks for ties). Throws on an empty sample
// or a NaN.
MannWhitneyResult mann_whitney_u(std::span<const double> x,
                                 std::span<const double> y);

// Holm–Bonferroni step-down adjustment; returns adjusted p-values in the
// original order, each clamped to [0, 1] and enforced monotone.
std::vector<double> holm_adjust(std::span<const double> p_values);

struct McNemarResult {
  double statistic = 0.0;  // continuity-corrected chi-squared (large samples)
  double p_value = 1.0;    // exact binomial when discordant pairs < 26
  bool exact = false;      // which method produced p_value
};

// McNemar's test for paired binary outcomes: `b` pairs changed 0→1 and
// `c` pairs changed 1→0 (concordant pairs are irrelevant). Two-sided.
McNemarResult mcnemar_test(double b, double c);

}  // namespace rcr::stats
