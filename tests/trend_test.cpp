#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "query/engine.hpp"
#include "stats/regression.hpp"
#include "trend/trend.hpp"
#include "util/error.hpp"

namespace rcr::trend {
namespace {

// Builds a wave with `hits` of `n` rows selecting option "x" of column "m",
// and the matching single-choice column "c" set to "yes"/"no".
data::Table make_wave(std::size_t hits, std::size_t n) {
  data::Table t;
  auto& m = t.add_multiselect("m", {"x", "y"});
  auto& c = t.add_categorical("c", {"yes", "no"});
  for (std::size_t i = 0; i < n; ++i) {
    const bool hit = i < hits;
    m.push_mask(hit ? 0b01 : 0b10);
    c.push(hit ? "yes" : "no");
  }
  return t;
}

TEST(TrendFromCountsTest, CountsAndDirection) {
  // 10 of 100 selected in wave 1 (10%), 300 of 600 in wave 2 (50%).
  auto t = trend_from_counts("x", 10, 100, 300, 600);
  EXPECT_EQ(t.indicator, "x");
  EXPECT_DOUBLE_EQ(t.count1, 10.0);
  EXPECT_DOUBLE_EQ(t.n1, 100.0);
  EXPECT_DOUBLE_EQ(t.count2, 300.0);
  EXPECT_NEAR(t.share1.estimate, 0.1, 1e-12);
  EXPECT_NEAR(t.share2.estimate, 0.5, 1e-12);
  EXPECT_GT(t.test.diff, 0.0);  // wave2 minus wave1
  EXPECT_LT(t.test.p_value, 1e-6);
  EXPECT_GT(t.odds_ratio, 1.0);

  std::vector<ShareTrend> battery = {t};
  adjust_and_classify(battery);
  EXPECT_EQ(battery[0].direction, Direction::kIncrease);
}

TEST(TrendFromCountsTest, RejectsAWaveWithNoAnsweredRows) {
  EXPECT_THROW(trend_from_counts("x", 0, 0, 3, 10), rcr::Error);
  EXPECT_THROW(trend_from_counts("x", 3, 10, 0, 0), rcr::Error);
}

// Every option's (selected, answered) tally from one fused-engine scan.
std::vector<data::OptionShare> engine_shares(const data::Table& wave,
                                             const std::string& column) {
  query::QueryEngine engine(wave);
  const auto id = engine.add_option_shares(column);
  engine.run();
  return engine.shares(id);
}

TEST(OptionBatteryTest, CoversAllOptionsWithHolm) {
  const auto w1 = make_wave(10, 100);
  const auto w2 = make_wave(300, 600);
  const auto battery = option_battery_from_shares(engine_shares(w1, "m"),
                                                  engine_shares(w2, "m"));
  ASSERT_EQ(battery.size(), 2u);
  // Holm-adjusted p >= raw p.
  for (const auto& t : battery) EXPECT_GE(t.p_adjusted, t.test.p_value);
  // "x" rose, "y" fell (complementary in this construction).
  EXPECT_EQ(battery[0].direction, Direction::kIncrease);
  EXPECT_EQ(battery[1].direction, Direction::kDecrease);
}

TEST(AdjustClassifyTest, EmptyBatteryIsFine) {
  std::vector<ShareTrend> empty;
  EXPECT_NO_THROW(adjust_and_classify(empty));
}

TEST(AdoptionCurveTest, RisingAdoptionHasPositiveSlope) {
  // 10 of 200 adopted in 2011 (5%), 240 of 400 in 2024 (60%).
  const auto c = fit_adoption_curve(10, 200, 2011, 240, 400, 2024);
  EXPECT_TRUE(c.converged);
  EXPECT_GT(c.slope_per_year, 0.0);
  // Fitted shares reproduce the observed ones (two points, two params).
  EXPECT_NEAR(c.share_2011, 0.05, 0.01);
  EXPECT_NEAR(c.share_2024, 0.60, 0.01);
  // Midpoint falls between the waves (5% -> 60% crosses 50% before 2024).
  EXPECT_GT(c.midpoint_year, 2011.0);
  EXPECT_LT(c.midpoint_year, 2024.0);
  EXPECT_NEAR(c.predict(c.midpoint_year), 0.5, 1e-6);
}

TEST(AdoptionCurveTest, DecliningAdoptionHasNegativeSlope) {
  const auto c = fit_adoption_curve(150, 200, 2011, 40, 400, 2024);
  EXPECT_LT(c.slope_per_year, 0.0);
}

// The counts form is the respondent-level fit: one (year - 2011, adopted)
// row per respondent, fitted with the same ridge.
TEST(AdoptionCurveTest, CountsMatchTheRowLevelFit) {
  struct Case {
    double s1, n1, y1, s2, n2, y2;
  };
  const Case cases[] = {
      {10, 200, 2011, 240, 400, 2024},  // rising
      {150, 200, 2011, 40, 400, 2024},  // falling
      {0, 37, 2011, 12, 90, 2024},      // none in the first wave
      {55, 55, 2015, 3, 61, 2020},      // all in the first wave
      {7, 9, 2011, 1201, 2500, 2024},   // unequal waves
  };
  for (const Case& k : cases) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    const auto expand = [&](double selected, double answered, double year) {
      for (double i = 0; i < answered; ++i) {
        xs.push_back({year - 2011.0});
        ys.push_back(i < selected ? 1.0 : 0.0);
      }
    };
    expand(k.s1, k.n1, k.y1);
    expand(k.s2, k.n2, k.y2);
    const auto rows = stats::logistic_fit(xs, ys, {}, /*ridge_lambda=*/1e-4);
    const auto c = fit_adoption_curve(k.s1, k.n1, k.y1, k.s2, k.n2, k.y2);
    SCOPED_TRACE("case " + std::to_string(k.s1) + "/" + std::to_string(k.n1));
    EXPECT_EQ(c.converged, rows.converged);
    EXPECT_NEAR(c.intercept, rows.coefficients[0], 1e-9);
    EXPECT_NEAR(c.slope_per_year, rows.coefficients[1], 1e-9);
  }
}

TEST(AdoptionCurveTest, RejectsBadCounts) {
  EXPECT_THROW(fit_adoption_curve(5, 10, 2024, 5, 10, 2011), rcr::Error);
  EXPECT_THROW(fit_adoption_curve(11, 10, 2011, 5, 10, 2024), rcr::Error);
  EXPECT_THROW(fit_adoption_curve(-1, 10, 2011, 5, 10, 2024), rcr::Error);
  EXPECT_THROW(fit_adoption_curve(1, 1, 2011, 1, 2, 2024), rcr::Error);
}

TEST(DistributionShiftTest, DetectsShift) {
  const auto w1 = make_wave(90, 100);  // mostly "yes"
  const auto w2 = make_wave(10, 100);  // mostly "no"
  const auto r = distribution_shift_test(w1, w2, "c");
  EXPECT_LT(r.p_value, 1e-10);
  EXPECT_GT(r.cramers_v, 0.5);
}

TEST(DistributionShiftTest, NoShiftHighP) {
  const auto w1 = make_wave(50, 100);
  const auto w2 = make_wave(250, 500);
  const auto r = distribution_shift_test(w1, w2, "c");
  EXPECT_GT(r.p_value, 0.9);
}

// Two waves with a grouping column: group "A" answers the multi-select
// fully; group "B" is padded with rows whose answer is MISSING, so its
// row count clears any small threshold while its answered count does not.
// Rows with no group label, all answering "x", belong to no group.
data::Table make_grouped_wave(std::size_t b_answered, std::size_t b_missing,
                              std::size_t b_hits) {
  data::Table t;
  auto& g = t.add_categorical("g", {"A", "B"});
  auto& m = t.add_multiselect("m", {"x", "y"});
  for (std::size_t i = 0; i < 12; ++i) {  // group A: 12 answered rows
    g.push("A");
    m.push_mask(i < 6 ? 0b01 : 0b10);
  }
  for (std::size_t i = 0; i < 7; ++i) {  // unlabelled rows
    g.push_missing();
    m.push_mask(0b01);
  }
  for (std::size_t i = 0; i < b_answered; ++i) {
    g.push("B");
    m.push_mask(i < b_hits ? 0b01 : 0b10);
  }
  for (std::size_t i = 0; i < b_missing; ++i) {
    g.push("B");
    m.push_missing();
  }
  return t;
}

// per_group_trend's definition, spelled out: count each group's answered
// and selected rows by hand, gate on answered rows, build each trend from
// its counts, adjust.
std::vector<ShareTrend> per_group_reference(const data::Table& w1,
                                            const data::Table& w2,
                                            const std::string& option,
                                            std::size_t min_group_n) {
  const auto counts = [&](const data::Table& w, const std::string& label) {
    const auto& g = w.categorical("g");
    const auto& m = w.multiselect("m");
    const auto o = static_cast<std::size_t>(m.find_option(option));
    std::size_t selected = 0, answered = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g.is_missing(i) || g.label_at(i) != label || m.is_missing(i))
        continue;
      ++answered;
      if (m.has(i, o)) ++selected;
    }
    return std::pair<std::size_t, std::size_t>{selected, answered};
  };
  std::vector<ShareTrend> trends;
  for (const auto& label : w1.categorical("g").categories()) {
    const auto [s1, n1] = counts(w1, label);
    const auto [s2, n2] = counts(w2, label);
    if (n1 < min_group_n || n2 < min_group_n) continue;
    trends.push_back(trend_from_counts(
        label, static_cast<double>(s1), static_cast<double>(n1),
        static_cast<double>(s2), static_cast<double>(n2)));
  }
  adjust_and_classify(trends);
  return trends;
}

TEST(PerGroupTrendTest, GateCountsAnsweredRowsNotGroupSize) {
  // Group B has 8 rows in each wave — over the min_group_n=5 gate by raw
  // row count — but only 3 of them actually answered the multi-select.
  // The header's contract gates on ANSWERED rows, so B must be skipped;
  // the pre-fix code gated on row_count() and let B through with its
  // 3-row "sample".
  const auto w1 = make_grouped_wave(3, 5, 1);
  const auto w2 = make_grouped_wave(3, 5, 2);
  const auto battery = per_group_trend(w1, w2, "g", "m", "x", 5);
  ASSERT_EQ(battery.size(), 1u);
  EXPECT_EQ(battery[0].indicator, "A");

  // With every B row answering, B clears the same gate.
  const auto full1 = make_grouped_wave(8, 0, 2);
  const auto full2 = make_grouped_wave(8, 0, 6);
  const auto both = per_group_trend(full1, full2, "g", "m", "x", 5);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].indicator, "A");
  EXPECT_EQ(both[1].indicator, "B");
}

TEST(PerGroupTrendTest, SinglePassMatchesHandCountedReference) {
  struct Case {
    data::Table w1, w2;
    std::size_t min_group_n;
  };
  const std::vector<Case> cases = {
      // B answers 3 rows per wave, or 3 rows in either one: the gate skips
      // it.
      {make_grouped_wave(3, 5, 1), make_grouped_wave(3, 5, 2), 5},
      {make_grouped_wave(8, 0, 2), make_grouped_wave(3, 5, 1), 5},
      {make_grouped_wave(3, 5, 1), make_grouped_wave(8, 0, 2), 5},
      {make_grouped_wave(8, 0, 2), make_grouped_wave(8, 0, 6), 5},
      // B falls sharply, then rises sharply; A stays flat.
      {make_grouped_wave(40, 3, 30), make_grouped_wave(60, 2, 10), 5},
      {make_grouped_wave(40, 0, 5), make_grouped_wave(60, 9, 50), 1},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const std::string option : {"x", "y"}) {
      SCOPED_TRACE("case " + std::to_string(c) + " option " + option);
      const Case& k = cases[c];
      const auto got =
          per_group_trend(k.w1, k.w2, "g", "m", option, k.min_group_n);
      const auto want = per_group_reference(k.w1, k.w2, option, k.min_group_n);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].indicator, want[i].indicator);
        EXPECT_EQ(got[i].count1, want[i].count1);
        EXPECT_EQ(got[i].n1, want[i].n1);
        EXPECT_EQ(got[i].count2, want[i].count2);
        EXPECT_EQ(got[i].n2, want[i].n2);
        EXPECT_EQ(got[i].test.p_value, want[i].test.p_value);
        EXPECT_EQ(got[i].p_adjusted, want[i].p_adjusted);
        EXPECT_EQ(got[i].direction, want[i].direction);
      }
    }
  }
  // The cases cover a skipped group and both significant directions.
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_EQ(per_group_trend(cases[c].w1, cases[c].w2, "g", "m", "x").size(),
              1u);
  const auto fell = per_group_trend(cases[4].w1, cases[4].w2, "g", "m", "x");
  ASSERT_EQ(fell.size(), 2u);
  EXPECT_EQ(fell[1].direction, Direction::kDecrease);
  const auto rose = per_group_trend(cases[5].w1, cases[5].w2, "g", "m", "x");
  ASSERT_EQ(rose.size(), 2u);
  EXPECT_EQ(rose[1].direction, Direction::kIncrease);
}

// --- share-vector pairing validation ----------------------------------------

data::OptionShare share_of(const std::string& label, double count,
                           double total) {
  data::OptionShare s;
  s.label = label;
  s.count = count;
  s.total = total;
  return s;
}

TEST(AppendShareTrendsTest, MatchedWavesReproduceTrendFromCounts) {
  const std::vector<data::OptionShare> w1 = {share_of("x", 10, 100),
                                             share_of("y", 40, 100)};
  const std::vector<data::OptionShare> w2 = {share_of("x", 300, 600),
                                             share_of("y", 120, 600)};
  std::vector<ShareTrend> out;
  append_share_trends(out, w1, w2);
  ASSERT_EQ(out.size(), 2u);
  const auto direct = trend_from_counts("x", 10, 100, 300, 600);
  EXPECT_DOUBLE_EQ(out[0].test.p_value, direct.test.p_value);
  EXPECT_DOUBLE_EQ(out[0].test.diff, direct.test.diff);
}

TEST(AppendShareTrendsTest, ShuffledOptionOrderFailsLoudly) {
  // Same option set, different order: silent index pairing would compare
  // "x" against "y". The validated path throws, naming the mismatch.
  const std::vector<data::OptionShare> w1 = {share_of("x", 10, 100),
                                             share_of("y", 40, 100)};
  const std::vector<data::OptionShare> shuffled = {share_of("y", 120, 600),
                                                   share_of("x", 300, 600)};
  std::vector<ShareTrend> out;
  EXPECT_THROW(append_share_trends(out, w1, shuffled), rcr::Error);
  EXPECT_THROW(option_battery_from_shares(w1, shuffled), rcr::Error);
  try {
    option_battery_from_shares(w1, shuffled);
    FAIL() << "expected a label-mismatch error";
  } catch (const rcr::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("y"), std::string::npos) << msg;
  }
}

TEST(AppendShareTrendsTest, MissingOptionFailsLoudly) {
  const std::vector<data::OptionShare> w1 = {share_of("x", 10, 100),
                                             share_of("y", 40, 100)};
  // One wave dropped an option entirely: sizes disagree.
  const std::vector<data::OptionShare> missing = {share_of("x", 300, 600)};
  std::vector<ShareTrend> out;
  EXPECT_THROW(append_share_trends(out, w1, missing), rcr::Error);
  EXPECT_THROW(option_battery_from_shares(w1, missing), rcr::Error);
}

// --- N-wave trends ----------------------------------------------------------

TEST(MultiWaveTrendTest, ValidatesItsCounts) {
  EXPECT_THROW(
      multi_wave_trend_from_counts("i", {{2011.0, 1.0, 10.0}}), rcr::Error);
  EXPECT_THROW(multi_wave_trend_from_counts(
                   "i", {{2024.0, 1.0, 10.0}, {2011.0, 2.0, 10.0}}),
               rcr::Error);
  EXPECT_THROW(multi_wave_trend_from_counts(
                   "i", {{2011.0, 11.0, 10.0}, {2024.0, 2.0, 10.0}}),
               rcr::Error);
  EXPECT_THROW(multi_wave_trend_from_counts(
                   "i", {{2011.0, 0.0, 0.0}, {2024.0, 2.0, 10.0}}),
               rcr::Error);
}

TEST(MultiWaveTrendTest, TwoWaveSegmentIsExactlyTheTwoWaveTest) {
  const auto multi = multi_wave_trend_from_counts(
      "x", {{2011.0, 10.0, 100.0}, {2024.0, 300.0, 600.0}});
  const auto two = trend_from_counts("x", 10, 100, 300, 600);
  ASSERT_EQ(multi.segments.size(), 1u);
  EXPECT_DOUBLE_EQ(multi.segments[0].p_value, two.test.p_value);
  EXPECT_DOUBLE_EQ(multi.segments[0].diff, two.test.diff);
  EXPECT_DOUBLE_EQ(multi.shares[0].estimate, two.share1.estimate);
  EXPECT_DOUBLE_EQ(multi.shares[1].estimate, two.share2.estimate);
  EXPECT_DOUBLE_EQ(multi.shares[0].lo, two.share1.lo);
  EXPECT_DOUBLE_EQ(multi.shares[1].hi, two.share2.hi);
}

TEST(MultiWaveTrendTest, ThreeWaveBatteryOneHolmFamily) {
  // "x" rises monotonically and hugely; "y" is flat.
  const std::vector<double> years = {2011.0, 2017.0, 2024.0};
  const std::vector<std::vector<data::OptionShare>> waves = {
      {share_of("x", 10, 100), share_of("y", 30, 100)},
      {share_of("x", 150, 300), share_of("y", 92, 300)},
      {share_of("x", 540, 600), share_of("y", 180, 600)},
  };
  const auto battery = multi_wave_option_battery(years, waves);
  ASSERT_EQ(battery.size(), 2u);
  const auto& x = battery[0];
  const auto& y = battery[1];
  EXPECT_EQ(x.indicator, "x");
  ASSERT_EQ(x.segments.size(), 2u);
  EXPECT_EQ(x.direction, Direction::kIncrease);
  EXPECT_LT(x.overall_p_adjusted, 0.05);
  // Both of x's piecewise segments rise significantly even after sharing
  // one Holm family with the whole battery.
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_GT(x.segments[s].diff, 0.0);
    EXPECT_LT(x.segment_p_adjusted[s], 0.05);
    // One family: adjusted never below raw.
    EXPECT_GE(x.segment_p_adjusted[s], x.segments[s].p_value);
  }
  EXPECT_EQ(y.direction, Direction::kStable);
  EXPECT_GE(y.overall_p_adjusted, y.overall.p_value);
}

TEST(MultiWaveTrendTest, BatteryValidatesLabelAlignmentAcrossEveryWave) {
  const std::vector<double> years = {2011.0, 2017.0, 2024.0};
  const std::vector<std::vector<data::OptionShare>> mismatched = {
      {share_of("x", 10, 100), share_of("y", 30, 100)},
      {share_of("x", 150, 300), share_of("y", 92, 300)},
      {share_of("y", 180, 600), share_of("x", 540, 600)},  // shuffled
  };
  EXPECT_THROW(multi_wave_option_battery(years, mismatched), rcr::Error);
  EXPECT_THROW(multi_wave_option_battery({2011.0, 2017.0}, mismatched),
               rcr::Error);  // years/waves size mismatch
}

TEST(DirectionLabelTest, Labels) {
  EXPECT_STREQ(direction_label(Direction::kIncrease), "increase");
  EXPECT_STREQ(direction_label(Direction::kDecrease), "decrease");
  EXPECT_STREQ(direction_label(Direction::kStable), "stable");
}

}  // namespace
}  // namespace rcr::trend
