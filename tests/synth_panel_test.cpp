// Tests for McNemar's test, the longitudinal panel generator, and the
// paired transition analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "data/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/contingency.hpp"
#include "survey/schema.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "trend/trend.hpp"
#include "util/error.hpp"

namespace rcr {
namespace {

// --- McNemar ---------------------------------------------------------------------

TEST(McNemarTest, NoDiscordantPairsGivesPOne) {
  const auto r = stats::mcnemar_test(0, 0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(McNemarTest, ExactSmallSample) {
  // b=8, c=2: exact two-sided binomial p = 2 * P(X <= 2 | n=10, 0.5)
  //         = 2 * (1 + 10 + 45)/1024 = 0.109375.
  const auto r = stats::mcnemar_test(8, 2);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.p_value, 0.109375, 1e-9);
}

TEST(McNemarTest, ExactSymmetricCase) {
  const auto r = stats::mcnemar_test(5, 5);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);  // clamped from 2*P(X<=5) > 1
}

TEST(McNemarTest, LargeSampleChiSquared) {
  // b=40, c=10: corrected chi2 = (|30|-1)^2/50 = 16.82, p ~ 4.1e-5.
  const auto r = stats::mcnemar_test(40, 10);
  EXPECT_FALSE(r.exact);
  EXPECT_NEAR(r.statistic, 16.82, 1e-10);
  EXPECT_LT(r.p_value, 1e-4);
  EXPECT_GT(r.p_value, 1e-6);
}

TEST(McNemarTest, RejectsNonIntegerCounts) {
  EXPECT_THROW(stats::mcnemar_test(1.5, 2), rcr::Error);
  EXPECT_THROW(stats::mcnemar_test(-1, 2), rcr::Error);
}

// --- panel generator ---------------------------------------------------------------

TEST(PanelTest, PairedAndValid) {
  const auto panel = synth::generate_panel(150, 11);
  EXPECT_EQ(panel.wave2011.row_count(), 150u);
  EXPECT_EQ(panel.wave2024.row_count(), 150u);
  EXPECT_TRUE(
      survey::validate_responses(synth::instrument(), panel.wave2011).empty());
  EXPECT_TRUE(
      survey::validate_responses(synth::instrument(), panel.wave2024).empty());
}

TEST(PanelTest, DeterministicForSeed) {
  const auto a = synth::generate_panel(60, 3);
  const auto b = synth::generate_panel(60, 3);
  const auto& la = a.wave2024.multiselect(synth::col::kLanguages);
  const auto& lb = b.wave2024.multiselect(synth::col::kLanguages);
  for (std::size_t i = 0; i < 60; ++i)
    EXPECT_EQ(la.mask_at(i), lb.mask_at(i));
}

TEST(PanelTest, IdentityInvariants) {
  const auto panel = synth::generate_panel(300, 17);
  const auto& f11 = panel.wave2011.categorical(synth::col::kField);
  const auto& f24 = panel.wave2024.categorical(synth::col::kField);
  const auto& c11 = panel.wave2011.categorical(synth::col::kCareerStage);
  const auto& c24 = panel.wave2024.categorical(synth::col::kCareerStage);
  const auto& y11 = panel.wave2011.numeric(synth::col::kYearsProgramming);
  const auto& y24 = panel.wave2024.numeric(synth::col::kYearsProgramming);
  for (std::size_t i = 0; i < 300; ++i) {
    // Field is stable.
    EXPECT_EQ(f11.code_at(i), f24.code_at(i));
    // Nobody is still a grad student 13 years on.
    if (c11.label_at(i) == "Grad student") {
      EXPECT_NE(c24.label_at(i), "Grad student");
    }
    // Experience moved forward when both answers are present.
    if (!data::NumericColumn::is_missing(y11.at(i)) &&
        !data::NumericColumn::is_missing(y24.at(i))) {
      EXPECT_GE(y24.at(i), y11.at(i));
    }
  }
}

TEST(PanelTest, GeneratorConsistencyRulesHoldAfterEvolution) {
  const auto panel = synth::generate_panel(300, 23);
  const auto& t = panel.wave2024;
  const auto& langs = t.multiselect(synth::col::kLanguages);
  const auto& primary = t.categorical(synth::col::kPrimaryLanguage);
  const auto& res = t.multiselect(synth::col::kParallelResources);
  const auto& models = t.multiselect(synth::col::kParallelModels);
  const auto& cores = t.numeric(synth::col::kCoresTypical);
  const auto mpi = static_cast<std::size_t>(models.find_option("MPI"));
  const auto cuda = static_cast<std::size_t>(models.find_option("CUDA/HIP"));
  const auto cluster = static_cast<std::size_t>(res.find_option("Cluster"));
  const auto gpu = static_cast<std::size_t>(res.find_option("GPU"));
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    EXPECT_GE(langs.selection_count(i), 1u);
    EXPECT_TRUE(langs.has(i, static_cast<std::size_t>(primary.code_at(i))));
    if (!models.is_missing(i)) {
      if (models.has(i, mpi)) {
        EXPECT_TRUE(res.has(i, cluster));
      }
      if (models.has(i, cuda)) {
        EXPECT_TRUE(res.has(i, gpu));
      }
      if (res.mask_at(i) == 0) {
        EXPECT_EQ(models.mask_at(i), 0u);
      }
    }
    if (!data::NumericColumn::is_missing(cores.at(i)) &&
        res.mask_at(i) == 0) {
      EXPECT_DOUBLE_EQ(cores.at(i), 1.0);
    }
  }
}

TEST(PanelTest, RatchetsPointTheRightWay) {
  const auto panel = synth::generate_panel(2000, 29);
  const auto python = trend::option_transitions(
      panel.wave2011, panel.wave2024, synth::col::kLanguages, "Python");
  EXPECT_GT(python.adopted, 5.0 * std::max(1.0, python.abandoned));
  EXPECT_LT(python.mcnemar.p_value, 0.001);

  const auto matlab = trend::option_transitions(
      panel.wave2011, panel.wave2024, synth::col::kLanguages, "MATLAB");
  EXPECT_GT(matlab.abandoned, matlab.adopted);  // the attrition channel
  EXPECT_LT(matlab.share_after(), matlab.share_before());

  const auto vcs = trend::option_transitions(
      panel.wave2011, panel.wave2024, synth::col::kSePractices,
      "Version control");
  EXPECT_GT(vcs.share_after(), 0.9);
}

std::string to_csv(const data::Table& t) {
  std::ostringstream out;
  data::write_csv(out, t);
  return out.str();
}

// Each person draws only from (seed, i), so a pooled panel is the serial
// panel byte for byte.
TEST(PanelTest, PooledPanelEqualsSerialBytes) {
  parallel::ThreadPool pool2(2), pool4(4);
  for (std::size_t n : {1u, 150u, 5000u}) {
    const auto serial = synth::generate_panel(n, 31);
    const std::string serial2011 = to_csv(serial.wave2011);
    const std::string serial2024 = to_csv(serial.wave2024);
    for (parallel::ThreadPool* pool : {&pool2, &pool4}) {
      const auto pooled = synth::generate_panel(n, 31, pool);
      EXPECT_EQ(to_csv(pooled.wave2011), serial2011)
          << "n=" << n << " threads=" << pool->thread_count();
      EXPECT_EQ(to_csv(pooled.wave2024), serial2024)
          << "n=" << n << " threads=" << pool->thread_count();
    }
  }
}

TEST(PanelTest, RejectsEmptyPanel) {
  EXPECT_THROW(synth::generate_panel(0), rcr::Error);
}

// --- transitions on constructed data --------------------------------------------

TEST(TransitionsTest, CountsByHand) {
  data::Table w1, w2;
  auto& m1 = w1.add_multiselect("m", {"x"});
  auto& m2 = w2.add_multiselect("m", {"x"});
  // kept, adopted, abandoned, never, missing-pair.
  m1.push_mask(1); m2.push_mask(1);
  m1.push_mask(0); m2.push_mask(1);
  m1.push_mask(1); m2.push_mask(0);
  m1.push_mask(0); m2.push_mask(0);
  m1.push_missing(); m2.push_mask(1);
  const auto t = trend::option_transitions(w1, w2, "m", "x");
  EXPECT_DOUBLE_EQ(t.kept, 1.0);
  EXPECT_DOUBLE_EQ(t.adopted, 1.0);
  EXPECT_DOUBLE_EQ(t.abandoned, 1.0);
  EXPECT_DOUBLE_EQ(t.never, 1.0);
  EXPECT_DOUBLE_EQ(t.pairs(), 4.0);
  EXPECT_DOUBLE_EQ(t.share_before(), 0.5);
  EXPECT_DOUBLE_EQ(t.share_after(), 0.5);
}

TEST(TransitionsTest, RejectsUnpairedWaves) {
  data::Table w1, w2;
  w1.add_multiselect("m", {"x"}).push_mask(1);
  w2.add_multiselect("m", {"x"});
  EXPECT_THROW(trend::option_transitions(w1, w2, "m", "x"), rcr::Error);
}

}  // namespace
}  // namespace rcr
