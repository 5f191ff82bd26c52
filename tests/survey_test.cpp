#include <gtest/gtest.h>

#include <cmath>

#include "survey/likert.hpp"
#include "survey/schema.hpp"
#include "survey/weighting.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr::survey {
namespace {

Questionnaire make_questionnaire() {
  return Questionnaire(
      "demo",
      {Question::single_choice("dept", "Department", {"cs", "bio"}, true),
       Question::multi_select("tools", "Tools", {"git", "make"}),
       Question::likert("happy", "Happiness", 5),
       Question::numeric("hours", "Hours per week")});
}

TEST(SchemaTest, MakeTableMirrorsQuestions) {
  const auto q = make_questionnaire();
  const auto t = q.make_table();
  EXPECT_EQ(t.column_count(), 4u);
  EXPECT_EQ(t.kind("dept"), data::ColumnKind::kCategorical);
  EXPECT_TRUE(t.categorical("dept").frozen());
  EXPECT_EQ(t.kind("tools"), data::ColumnKind::kMultiSelect);
  EXPECT_EQ(t.kind("happy"), data::ColumnKind::kNumeric);
  EXPECT_EQ(t.kind("hours"), data::ColumnKind::kNumeric);
}

TEST(SchemaTest, QuestionLookup) {
  const auto q = make_questionnaire();
  EXPECT_TRUE(q.has_question("happy"));
  EXPECT_FALSE(q.has_question("nope"));
  EXPECT_EQ(q.question("happy").scale_points, 5);
  EXPECT_THROW(q.question("nope"), rcr::Error);
}

TEST(SchemaTest, RejectsBadDefinitions) {
  EXPECT_THROW(Question::single_choice("x", "t", {"only"}), rcr::Error);
  EXPECT_THROW(Question::likert("x", "t", 1), rcr::Error);
  EXPECT_THROW(Question::likert("x", "t", 20), rcr::Error);
  EXPECT_THROW(Questionnaire("q", {}), rcr::Error);
  EXPECT_THROW(
      Questionnaire("q", {Question::numeric("a", "t"),
                          Question::numeric("a", "t")}),
      rcr::Error);
}

TEST(ValidationTest, CleanTableHasNoIssues) {
  const auto q = make_questionnaire();
  auto t = q.make_table();
  t.categorical("dept").push("cs");
  t.multiselect("tools").push_labels({"git"});
  t.numeric("happy").push(4.0);
  t.numeric("hours").push(10.5);
  EXPECT_TRUE(validate_responses(q, t).empty());
}

TEST(ValidationTest, CatchesEveryIssueKind) {
  const auto q = make_questionnaire();
  auto t = q.make_table();
  t.categorical("dept").push_missing();       // required missing
  t.multiselect("tools").push_missing();      // optional: fine
  t.numeric("happy").push(9.0);               // out of Likert scale
  t.numeric("hours").push(-1.0);              // negative numeric
  const auto issues = validate_responses(q, t);
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_EQ(issues[0].question_id, "dept");
  EXPECT_EQ(issues[1].question_id, "happy");
  EXPECT_EQ(issues[2].question_id, "hours");
}

TEST(ValidationTest, NonIntegerLikertFlagged) {
  const auto q = make_questionnaire();
  auto t = q.make_table();
  t.categorical("dept").push("cs");
  t.multiselect("tools").push_mask(0);
  t.numeric("happy").push(3.5);
  t.numeric("hours").push(0.0);
  const auto issues = validate_responses(q, t);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].question_id, "happy");
}

// --- raking --------------------------------------------------------------------

// Weighted share of the answered rows of `column` that read `label`.
double weighted_share(const data::Table& table, const std::string& column,
                      const std::string& label,
                      const std::vector<double>& weights) {
  const auto& col = table.categorical(column);
  const std::int32_t code = col.find_code(label);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    if (col.is_missing(i)) continue;
    den += weights[i];
    if (col.code_at(i) == code) num += weights[i];
  }
  return num / den;
}

data::Table skewed_sample(std::size_t n, double cs_share, rcr::Rng& rng) {
  data::Table t;
  auto& dept = t.add_categorical("dept", {"cs", "bio"});
  auto& stage = t.add_categorical("stage", {"grad", "faculty"});
  for (std::size_t i = 0; i < n; ++i) {
    dept.push(rng.bernoulli(cs_share) ? "cs" : "bio");
    stage.push(rng.bernoulli(0.7) ? "grad" : "faculty");
  }
  return t;
}

TEST(RakingTest, ConvergesToTargets) {
  rcr::Rng rng(5);
  auto t = skewed_sample(2000, 0.8, rng);  // sample is 80% cs
  const std::vector<MarginTarget> targets = {
      {"dept", {{"cs", 0.5}, {"bio", 0.5}}},
      {"stage", {{"grad", 0.6}, {"faculty", 0.4}}}};
  const auto r = rake_weights(t, targets);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.max_residual, 1e-6);
  EXPECT_NEAR(weighted_share(t, "dept", "cs", r.weights), 0.5, 1e-3);
  EXPECT_NEAR(weighted_share(t, "stage", "grad", r.weights), 0.6,
              1e-3);
  EXPECT_GT(r.design_effect, 1.0);
  EXPECT_LT(r.effective_n, 2000.0);
}

TEST(RakingTest, UniformSampleNeedsNoAdjustment) {
  rcr::Rng rng(6);
  auto t = skewed_sample(3000, 0.5, rng);
  const std::vector<MarginTarget> targets = {
      {"dept", {{"cs", 0.5}, {"bio", 0.5}}}};
  const auto r = rake_weights(t, targets);
  EXPECT_TRUE(r.converged);
  // Weights should stay near 1 and design effect near 1.
  EXPECT_LT(r.design_effect, 1.01);
}

TEST(RakingTest, MissingRowsGetUnitWeight) {
  data::Table t;
  auto& dept = t.add_categorical("dept", {"cs", "bio"});
  dept.push("cs");
  dept.push_missing();
  dept.push("bio");
  const std::vector<MarginTarget> targets = {
      {"dept", {{"cs", 0.5}, {"bio", 0.5}}}};
  const auto r = rake_weights(t, targets);
  EXPECT_DOUBLE_EQ(r.weights[1], 1.0);
}

TEST(RakingTest, RejectsBadTargets) {
  rcr::Rng rng(7);
  auto t = skewed_sample(100, 0.5, rng);
  EXPECT_THROW(rake_weights(t, {}), rcr::Error);
  EXPECT_THROW(
      rake_weights(t, {{"dept", {{"cs", 0.5}, {"nope", 0.5}}}}), rcr::Error);
  // Category present in data but absent from targets.
  EXPECT_THROW(rake_weights(t, {{"dept", {{"cs", 1.0}}}}), rcr::Error);
  EXPECT_THROW(rake_weights(t, {{"dept", {{"cs", -0.5}, {"bio", 0.5}}}}),
               rcr::Error);
}

// Property: raking converges for random target mixes.
class RakingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RakingPropertyTest, ConvergesForRandomTargets) {
  rcr::Rng rng(GetParam());
  auto t = skewed_sample(800, rng.uniform(0.2, 0.8), rng);
  const double cs = rng.uniform(0.2, 0.8);
  const double grad = rng.uniform(0.2, 0.8);
  const std::vector<MarginTarget> targets = {
      {"dept", {{"cs", cs}, {"bio", 1.0 - cs}}},
      {"stage", {{"grad", grad}, {"faculty", 1.0 - grad}}}};
  const auto r = rake_weights(t, targets);
  EXPECT_TRUE(r.converged) << "seed " << GetParam();
  EXPECT_NEAR(weighted_share(t, "dept", "cs", r.weights), cs, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RakingPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Likert --------------------------------------------------------------------

TEST(LikertTest, SummaryAndTopBox) {
  data::Table t;
  auto& c = t.add_numeric("q");
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 4.0, 3.0}) c.push(v);
  c.push_missing();
  const auto s = summarize_likert(t, "q", 5);
  EXPECT_EQ(s.answered, 8u);
  EXPECT_NEAR(s.mean, 27.0 / 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.distribution[4], 0.25);  // two fives of eight
  EXPECT_EQ(s.top_box_from, 4);
  EXPECT_NEAR(s.top_box.estimate, 0.5, 1e-12);
}

TEST(LikertTest, RejectsUnvalidatedValues) {
  data::Table t;
  t.add_numeric("q").push(7.0);
  EXPECT_THROW(summarize_likert(t, "q", 5), rcr::Error);
}

}  // namespace
}  // namespace rcr::survey
