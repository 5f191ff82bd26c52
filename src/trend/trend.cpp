#include "trend/trend.hpp"

#include <cmath>

#include "util/error.hpp"

namespace rcr::trend {

const char* direction_label(Direction d) {
  switch (d) {
    case Direction::kIncrease: return "increase";
    case Direction::kDecrease: return "decrease";
    case Direction::kStable: return "stable";
  }
  return "?";
}

ShareTrend trend_from_counts(const std::string& indicator, double count1,
                             double n1, double count2, double n2,
                             double confidence) {
  RCR_CHECK_MSG(n1 > 0.0 && n2 > 0.0,
                "trend '" + indicator + "': both waves need answered rows");
  ShareTrend t;
  t.indicator = indicator;
  t.count1 = count1;
  t.n1 = n1;
  t.count2 = count2;
  t.n2 = n2;
  t.share1 = stats::wilson_ci(count1, n1, confidence);
  t.share2 = stats::wilson_ci(count2, n2, confidence);
  // Convention: "wave 2 vs wave 1", so p1 = new wave share.
  t.test = stats::two_proportion_test(count2, n2, count1, n1, confidence);
  t.odds_ratio =
      stats::odds_ratio(count2, n2 - count2, count1, n1 - count1);
  return t;
}

void append_share_trends(std::vector<ShareTrend>& out,
                         const std::vector<data::OptionShare>& wave1,
                         const std::vector<data::OptionShare>& wave2,
                         double confidence) {
  RCR_CHECK_MSG(wave1.size() == wave2.size(),
                "waves disagree on the option set: " +
                    std::to_string(wave1.size()) + " vs " +
                    std::to_string(wave2.size()) + " options");
  out.reserve(out.size() + wave1.size());
  for (std::size_t o = 0; o < wave1.size(); ++o) {
    RCR_CHECK_MSG(wave1[o].label == wave2[o].label,
                  "waves disagree on the option set at index " +
                      std::to_string(o) + ": '" + wave1[o].label + "' vs '" +
                      wave2[o].label + "'");
    out.push_back(trend_from_counts(wave1[o].label, wave1[o].count,
                                    wave1[o].total, wave2[o].count,
                                    wave2[o].total, confidence));
  }
}

std::vector<ShareTrend> option_battery_from_shares(
    const std::vector<data::OptionShare>& wave1,
    const std::vector<data::OptionShare>& wave2, double alpha,
    double confidence) {
  std::vector<ShareTrend> trends;
  append_share_trends(trends, wave1, wave2, confidence);
  adjust_and_classify(trends, alpha);
  return trends;
}

void adjust_and_classify(std::vector<ShareTrend>& trends, double alpha) {
  RCR_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0,1)");
  if (trends.empty()) return;
  std::vector<double> raw;
  raw.reserve(trends.size());
  for (const auto& t : trends) raw.push_back(t.test.p_value);
  const auto adjusted = stats::holm_adjust(raw);
  for (std::size_t i = 0; i < trends.size(); ++i) {
    trends[i].p_adjusted = adjusted[i];
    if (adjusted[i] < alpha) {
      trends[i].direction = trends[i].test.diff > 0.0 ? Direction::kIncrease
                                                      : Direction::kDecrease;
    } else {
      trends[i].direction = Direction::kStable;
    }
  }
}

std::vector<ShareTrend> per_group_trend(const data::Table& wave1,
                                        const data::Table& wave2,
                                        const std::string& group_column,
                                        const std::string& option_column,
                                        const std::string& option,
                                        std::size_t min_group_n, double alpha,
                                        double confidence) {
  const auto& groups1 = wave1.categorical(group_column);
  const auto& groups2 = wave2.categorical(group_column);
  RCR_CHECK_MSG(groups1.categories() == groups2.categories(),
                "waves disagree on the categories of '" + group_column + "'");
  // One pass per wave tallies (selected, answered) per group code. The gate
  // counts rows that ANSWERED the option column (the header's contract, and
  // the n the z-test actually runs on) — a group padded with missing
  // answers must not sneak a tiny-denominator test into the family.
  struct Tally {
    std::size_t selected = 0, answered = 0;
  };
  const auto tally = [&](const data::Table& wave,
                         const data::CategoricalColumn& groups) {
    const auto& col = wave.multiselect(option_column);
    const std::int32_t o = col.find_option(option);
    RCR_CHECK_MSG(o >= 0, "unknown option '" + option + "'");
    std::vector<Tally> tallies(groups.category_count());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups.is_missing(i) || col.is_missing(i)) continue;
      Tally& t = tallies[static_cast<std::size_t>(groups.code_at(i))];
      ++t.answered;
      if (col.has(i, static_cast<std::size_t>(o))) ++t.selected;
    }
    return tallies;
  };
  const auto tallies1 = tally(wave1, groups1);
  const auto tallies2 = tally(wave2, groups2);
  std::vector<ShareTrend> trends;
  for (const auto& label : groups1.categories()) {
    const auto code = static_cast<std::size_t>(groups1.find_code(label));
    const Tally& t1 = tallies1[code];
    const Tally& t2 = tallies2[code];
    if (t1.answered < min_group_n || t2.answered < min_group_n) continue;
    trends.push_back(trend_from_counts(
        label, static_cast<double>(t1.selected),
        static_cast<double>(t1.answered), static_cast<double>(t2.selected),
        static_cast<double>(t2.answered), confidence));
  }
  adjust_and_classify(trends, alpha);
  return trends;
}

MultiWaveTrend multi_wave_trend_from_counts(const std::string& indicator,
                                            const std::vector<WaveCount>& waves,
                                            double confidence) {
  RCR_CHECK_MSG(waves.size() >= 2, "multi-wave trend '" + indicator +
                                       "' needs at least two waves");
  MultiWaveTrend t;
  t.indicator = indicator;
  for (std::size_t w = 0; w < waves.size(); ++w) {
    const WaveCount& wc = waves[w];
    RCR_CHECK_MSG(wc.n > 0.0, "trend '" + indicator + "': wave " +
                                  std::to_string(w) + " has no answered rows");
    RCR_CHECK_MSG(wc.count >= 0.0 && wc.count <= wc.n,
                  "trend '" + indicator + "': wave " + std::to_string(w) +
                      " count exceeds its answered rows");
    if (w > 0)
      RCR_CHECK_MSG(wc.year > waves[w - 1].year,
                    "trend '" + indicator +
                        "': waves must be strictly time-ordered");
    t.years.push_back(wc.year);
    t.counts.push_back(wc.count);
    t.ns.push_back(wc.n);
    t.shares.push_back(stats::wilson_ci(wc.count, wc.n, confidence));
  }
  // Piecewise tests; same convention as ShareTrend (p1 = the later wave,
  // so diff > 0 reads "the share rose over this segment"). With two waves
  // the single segment IS trend_from_counts's z-test.
  for (std::size_t s = 0; s + 1 < waves.size(); ++s) {
    t.segments.push_back(stats::two_proportion_test(
        waves[s + 1].count, waves[s + 1].n, waves[s].count, waves[s].n,
        confidence));
  }
  t.segment_p_adjusted.assign(t.segments.size(), 1.0);
  // Overall W×2 chi-square: selected vs not, one row per wave.
  stats::Contingency table(waves.size(), 2);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    table.at(w, 0) = waves[w].count;
    table.at(w, 1) = waves[w].n - waves[w].count;
  }
  t.overall = stats::chi_square_independence(table.without_empty_margins());
  return t;
}

void adjust_and_classify_multi(std::vector<MultiWaveTrend>& trends,
                               double alpha) {
  RCR_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0,1)");
  if (trends.empty()) return;
  // ONE family across the whole battery: every indicator's overall test
  // plus all of its segment tests, adjusted together.
  std::vector<double> raw;
  for (const auto& t : trends) {
    raw.push_back(t.overall.p_value);
    for (const auto& s : t.segments) raw.push_back(s.p_value);
  }
  const auto adjusted = stats::holm_adjust(raw);
  std::size_t i = 0;
  for (auto& t : trends) {
    t.overall_p_adjusted = adjusted[i++];
    for (std::size_t s = 0; s < t.segments.size(); ++s)
      t.segment_p_adjusted[s] = adjusted[i++];
    if (t.overall_p_adjusted < alpha) {
      const double net = t.shares.back().estimate - t.shares.front().estimate;
      t.direction = net > 0.0 ? Direction::kIncrease : Direction::kDecrease;
    } else {
      t.direction = Direction::kStable;
    }
  }
}

std::vector<MultiWaveTrend> multi_wave_option_battery(
    const std::vector<double>& years,
    const std::vector<std::vector<data::OptionShare>>& waves, double alpha,
    double confidence) {
  RCR_CHECK_MSG(waves.size() >= 2, "battery needs at least two waves");
  RCR_CHECK_MSG(years.size() == waves.size(),
                "battery needs exactly one year per wave");
  const std::size_t options = waves.front().size();
  for (std::size_t w = 1; w < waves.size(); ++w) {
    RCR_CHECK_MSG(waves[w].size() == options,
                  "wave " + std::to_string(w) +
                      " disagrees on the option set: " +
                      std::to_string(waves[w].size()) + " vs " +
                      std::to_string(options) + " options");
    for (std::size_t o = 0; o < options; ++o)
      RCR_CHECK_MSG(waves[w][o].label == waves[0][o].label,
                    "wave " + std::to_string(w) +
                        " disagrees on the option set at index " +
                        std::to_string(o) + ": '" + waves[0][o].label +
                        "' vs '" + waves[w][o].label + "'");
  }
  std::vector<MultiWaveTrend> trends;
  trends.reserve(options);
  for (std::size_t o = 0; o < options; ++o) {
    std::vector<WaveCount> counts;
    counts.reserve(waves.size());
    for (std::size_t w = 0; w < waves.size(); ++w)
      counts.push_back({years[w], waves[w][o].count, waves[w][o].total});
    trends.push_back(
        multi_wave_trend_from_counts(waves[0][o].label, counts, confidence));
  }
  adjust_and_classify_multi(trends, alpha);
  return trends;
}

double AdoptionCurve::predict(double year) const {
  return stats::sigmoid(intercept + slope_per_year * (year - 2011.0));
}

AdoptionCurve fit_adoption_curve(double selected1, double answered1,
                                 double year1, double selected2,
                                 double answered2, double year2) {
  RCR_CHECK_MSG(year2 > year1, "waves must be time-ordered");
  RCR_CHECK_MSG(selected1 >= 0.0 && selected1 <= answered1 &&
                    selected2 >= 0.0 && selected2 <= answered2,
                "adoption fit needs 0 <= selected <= answered in each wave");
  RCR_CHECK_MSG(answered1 + answered2 >= 4.0,
                "adoption fit needs data in both waves");
  // The one regressor takes two values, so the respondent-level likelihood
  // is four (year, adopted) rows weighted by their counts.
  const std::vector<std::vector<double>> xs = {
      {year1 - 2011.0}, {year1 - 2011.0}, {year2 - 2011.0}, {year2 - 2011.0}};
  const std::vector<double> ys = {1.0, 0.0, 1.0, 0.0};
  const std::vector<double> weights = {selected1, answered1 - selected1,
                                       selected2, answered2 - selected2};
  // Mild ridge keeps the fit finite when adoption is 0% or 100% in a wave.
  const auto fit = stats::logistic_fit(xs, ys, weights, /*ridge_lambda=*/1e-4);
  AdoptionCurve c;
  c.intercept = fit.coefficients[0];
  c.slope_per_year = fit.coefficients[1];
  c.converged = fit.converged;
  c.midpoint_year =
      c.slope_per_year != 0.0 ? 2011.0 - c.intercept / c.slope_per_year
                              : std::numeric_limits<double>::quiet_NaN();
  c.share_2011 = c.predict(year1);
  c.share_2024 = c.predict(year2);
  return c;
}

double TransitionCounts::share_before() const {
  const double n = pairs();
  return n > 0.0 ? (kept + abandoned) / n : 0.0;
}

double TransitionCounts::share_after() const {
  const double n = pairs();
  return n > 0.0 ? (kept + adopted) / n : 0.0;
}

TransitionCounts option_transitions(const data::Table& wave1,
                                    const data::Table& wave2,
                                    const std::string& column,
                                    const std::string& option) {
  const auto& c1 = wave1.multiselect(column);
  const auto& c2 = wave2.multiselect(column);
  RCR_CHECK_MSG(c1.size() == c2.size(),
                "panel waves must have the same (paired) rows");
  const std::int32_t o1 = c1.find_option(option);
  const std::int32_t o2 = c2.find_option(option);
  RCR_CHECK_MSG(o1 >= 0 && o1 == o2, "option mismatch across waves");

  TransitionCounts t;
  for (std::size_t i = 0; i < c1.size(); ++i) {
    if (c1.is_missing(i) || c2.is_missing(i)) continue;
    const bool before = c1.has(i, static_cast<std::size_t>(o1));
    const bool after = c2.has(i, static_cast<std::size_t>(o1));
    if (before && after) t.kept += 1.0;
    else if (!before && after) t.adopted += 1.0;
    else if (before && !after) t.abandoned += 1.0;
    else t.never += 1.0;
  }
  t.mcnemar = stats::mcnemar_test(t.adopted, t.abandoned);
  return t;
}

stats::ChiSquareResult distribution_shift_test(const data::Table& wave1,
                                               const data::Table& wave2,
                                               const std::string& column) {
  const auto& c1 = wave1.categorical(column);
  const auto& c2 = wave2.categorical(column);
  RCR_CHECK_MSG(c1.categories() == c2.categories(),
                "waves disagree on the category set of '" + column + "'");
  stats::Contingency table(2, c1.category_count());
  const auto counts1 = c1.counts();
  const auto counts2 = c2.counts();
  for (std::size_t c = 0; c < counts1.size(); ++c) {
    table.at(0, c) = counts1[c];
    table.at(1, c) = counts2[c];
  }
  return stats::chi_square_independence(table.without_empty_margins());
}

}  // namespace rcr::trend
