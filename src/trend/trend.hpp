// Two-wave trend analysis: the statistical core of the "Practices and
// Trends" comparison between the 2011 study and the 2024 revisit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "stats/ci.hpp"
#include "stats/contingency.hpp"
#include "stats/regression.hpp"

namespace rcr::trend {

enum class Direction { kIncrease, kDecrease, kStable };

const char* direction_label(Direction d);

// Share of one indicator in each wave plus the cross-wave test.
struct ShareTrend {
  std::string indicator;
  double count1 = 0.0, n1 = 0.0;   // wave 1 (2011)
  double count2 = 0.0, n2 = 0.0;   // wave 2 (2024)
  stats::Interval share1;          // Wilson CI
  stats::Interval share2;
  stats::TwoProportionResult test; // pooled z, two-sided p
  double odds_ratio = 1.0;         // wave2 odds / wave1 odds
  double p_adjusted = 1.0;         // Holm-adjusted within a battery
  Direction direction = Direction::kStable;
};

// Applies the Holm family-wise adjustment across a battery of trends and
// classifies each: significant increase / decrease at `alpha` (on adjusted
// p), else stable.
void adjust_and_classify(std::vector<ShareTrend>& trends, double alpha = 0.05);

// One indicator's trend from counts (count = selected/labelled rows, n =
// answered rows; missing answers excluded from n). Every two-wave trend is
// built here: callers tally each wave once, in a fused query::QueryEngine
// scan or one pass of their own, and never re-scan a table per option.
ShareTrend trend_from_counts(const std::string& indicator, double count1,
                             double n1, double count2, double n2,
                             double confidence = 0.95);

// Pairs two waves' per-option share vectors into ShareTrend rows appended
// to `out`, validating that the option sets align pairwise — waves whose
// option lists differ in order or content fail loudly (naming the first
// mismatched label) instead of silently pairing unrelated indicators by
// raw index. The validated building block for every caller holding fused
// per-wave tallies (T6's cross-family battery, the option battery below).
void append_share_trends(std::vector<ShareTrend>& out,
                         const std::vector<data::OptionShare>& wave1,
                         const std::vector<data::OptionShare>& wave2,
                         double confidence = 0.95);

// Every option of a multi-select column as one Holm-adjusted battery, built
// from per-wave share vectors (one engine scan per wave) with zero table
// scans. Both waves must report the same options in the same order
// (validated pairwise via append_share_trends; mismatches throw).
std::vector<ShareTrend> option_battery_from_shares(
    const std::vector<data::OptionShare>& wave1,
    const std::vector<data::OptionShare>& wave2, double alpha = 0.05,
    double confidence = 0.95);

// One option's trend computed separately within each category of a
// grouping column (e.g. per research field), Holm-adjusted as one family.
// Groups with fewer than `min_group_n` answered rows — rows actually
// answering `option_column`, not merely present in the group — in either
// wave are skipped. Each trend's indicator is the group label.
std::vector<ShareTrend> per_group_trend(const data::Table& wave1,
                                        const data::Table& wave2,
                                        const std::string& group_column,
                                        const std::string& option_column,
                                        const std::string& option,
                                        std::size_t min_group_n = 5,
                                        double alpha = 0.05,
                                        double confidence = 0.95);

// --- N-wave trends ----------------------------------------------------------
//
// The two-wave ShareTrend machinery above stays the canonical 2011→2024
// surface (its z-test outputs are pinned byte-identical to seed); the
// types below generalize the same battery idea to studies with any number
// of time-ordered waves: per-wave Wilson intervals, adjacent-pair
// two-proportion tests (the piecewise trend), and one overall W×2
// chi-square of "did the share change at all across the waves".

// One wave's tally of an indicator: `count` selected out of `n` answered
// rows observed in calendar year `year`.
struct WaveCount {
  double year = 0.0;
  double count = 0.0;
  double n = 0.0;
};

// One indicator across W >= 2 time-ordered waves.
struct MultiWaveTrend {
  std::string indicator;
  std::vector<double> years;                // strictly increasing, size W
  std::vector<double> counts;               // size W
  std::vector<double> ns;                   // size W
  std::vector<stats::Interval> shares;      // Wilson CI per wave, size W
  // Piecewise tests between adjacent waves: segment s compares wave s+1
  // against wave s (diff > 0 means the later wave's share is higher).
  std::vector<stats::TwoProportionResult> segments;   // size W - 1
  std::vector<double> segment_p_adjusted;             // size W - 1
  // Overall W×2 chi-square: does the share differ across the waves at all?
  stats::ChiSquareResult overall;
  double overall_p_adjusted = 1.0;
  // Net classification: first-vs-last movement when the overall test
  // survives adjustment, else stable.
  Direction direction = Direction::kStable;

  double share(std::size_t wave) const { return shares[wave].estimate; }
};

// Builds one indicator's N-wave trend from per-wave counts. Requires
// W >= 2 waves with strictly increasing years and answered rows in every
// wave. With W == 2 the single segment is exactly trend_from_counts's
// z-test. Adjusted p's are raw until a battery adjusts them.
MultiWaveTrend multi_wave_trend_from_counts(
    const std::string& indicator, const std::vector<WaveCount>& waves,
    double confidence = 0.95);

// A battery of N-wave trends from per-wave share vectors (one fused-engine
// scan per wave): waves[w] is wave w's per-option tally, labels validated
// pairwise across every wave like append_share_trends. All tests of the
// whole battery — each indicator's overall chi-square AND its W-1 segment
// tests — are adjusted together as ONE Holm family, so a significant
// segment claim survives the same multiplicity control as the headline
// claim it refines.
std::vector<MultiWaveTrend> multi_wave_option_battery(
    const std::vector<double>& years,
    const std::vector<std::vector<data::OptionShare>>& waves,
    double alpha = 0.05, double confidence = 0.95);

// The battery's multiplicity step, exposed for callers assembling mixed
// batteries by hand: one family spanning every overall + segment p.
void adjust_and_classify_multi(std::vector<MultiWaveTrend>& trends,
                               double alpha = 0.05);

// Logistic adoption curve fitted to the respondents of both waves:
// P(adopt | year) = sigmoid(b0 + b1 * (year - 2011)).
struct AdoptionCurve {
  double intercept = 0.0;       // b0 at year 2011
  double slope_per_year = 0.0;  // b1
  double midpoint_year = 0.0;   // year where P = 0.5
  bool converged = false;
  double share_2011 = 0.0;      // fitted share at each wave
  double share_2024 = 0.0;

  double predict(double year) const;
};

// Fits the curve from each wave's counts: `selected` of the `answered`
// respondents adopted in that wave's year. The year is the only regressor,
// so these four counts carry the whole respondent-level likelihood: the fit
// is a ridge-penalized (1e-4) IRLS on four count-weighted rows. Requires
// year2 > year1, 0 <= selected <= answered and >= 4 answered in total.
AdoptionCurve fit_adoption_curve(double selected1, double answered1,
                                 double year1, double selected2,
                                 double answered2, double year2);

// --- Panel (paired) analysis ------------------------------------------------

// Transition counts of one multi-select option between paired waves (rows
// matched by index). Pairs with a missing answer in either wave are dropped.
struct TransitionCounts {
  double kept = 0.0;       // used then, uses now
  double adopted = 0.0;    // not then, uses now
  double abandoned = 0.0;  // used then, not now
  double never = 0.0;      // neither wave
  stats::McNemarResult mcnemar;  // adopted vs abandoned

  double pairs() const { return kept + adopted + abandoned + never; }
  double share_before() const;
  double share_after() const;
};

TransitionCounts option_transitions(const data::Table& wave1,
                                    const data::Table& wave2,
                                    const std::string& column,
                                    const std::string& option);

// χ² test of the full category distribution shift between waves (e.g. did
// the primary-language mix change?). Returns the test on the 2×k table.
stats::ChiSquareResult distribution_shift_test(const data::Table& wave1,
                                               const data::Table& wave2,
                                               const std::string& column);

}  // namespace rcr::trend
