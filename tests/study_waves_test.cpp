// N-wave Study surface: the legacy two-wave configuration must survive the
// generalization byte-for-byte (same generator streams, same fused
// aggregates, across every pool size), and 3+-wave studies must run end to
// end with the longitudinal L-series registered.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiments.hpp"
#include "core/study.hpp"
#include "data/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "report/experiment.hpp"
#include "synth/calibration.hpp"
#include "synth/domain.hpp"
#include "trend/trend.hpp"

namespace rcr::core {
namespace {

std::string csv_of(const data::Table& t) {
  std::ostringstream out;
  data::write_csv(out, t);
  return out.str();
}

void expect_same_shares(const std::vector<data::OptionShare>& a,
                        const std::vector<data::OptionShare>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_DOUBLE_EQ(a[i].count, b[i].count);
    EXPECT_DOUBLE_EQ(a[i].total, b[i].total);
    EXPECT_DOUBLE_EQ(a[i].share.estimate, b[i].share.estimate);
    EXPECT_DOUBLE_EQ(a[i].share.lo, b[i].share.lo);
    EXPECT_DOUBLE_EQ(a[i].share.hi, b[i].share.hi);
  }
}

TEST(StudyWavesTest, ExplicitTwoWaveSpecsMatchLegacyConfigByteForByte) {
  StudyConfig legacy;
  legacy.n_2011 = 60;
  legacy.n_2024 = 150;
  legacy.seed = 11;

  StudyConfig explicit_cfg;
  explicit_cfg.seed = 11;
  explicit_cfg.waves = {{synth::kYear2011, 60, "", 0},
                        {synth::kYear2024, 150, "", 0}};

  const Study a(legacy), b(explicit_cfg);
  ASSERT_EQ(a.wave_count(), 2u);
  ASSERT_EQ(b.wave_count(), 2u);
  EXPECT_EQ(csv_of(a.wave(0)), csv_of(b.wave(0)));
  EXPECT_EQ(csv_of(a.wave(1)), csv_of(b.wave(1)));
  expect_same_shares(a.aggregates(1).languages, b.aggregates(1).languages);
  expect_same_shares(a.aggregates(0).se_practices,
                     b.aggregates(0).se_practices);
}

TEST(StudyWavesTest, WavesAndAggregatesArePoolSizeInvariant) {
  StudyConfig serial_cfg;
  serial_cfg.n_2011 = 60;
  serial_cfg.n_2024 = 150;
  serial_cfg.seed = 13;
  const Study serial(serial_cfg);
  const std::string w0 = csv_of(serial.wave(0));
  const std::string w1 = csv_of(serial.wave(1));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    StudyConfig cfg = serial_cfg;
    cfg.pool = &pool;
    const Study pooled(cfg);
    EXPECT_EQ(csv_of(pooled.wave(0)), w0) << threads << " threads";
    EXPECT_EQ(csv_of(pooled.wave(1)), w1) << threads << " threads";
    expect_same_shares(pooled.aggregates(0).languages,
                       serial.aggregates(0).languages);
    expect_same_shares(pooled.aggregates(1).parallel_resources,
                       serial.aggregates(1).parallel_resources);
  }
}

Study make_three_wave_study() {
  StudyConfig cfg;
  cfg.seed = 17;
  cfg.waves = {{synth::kYear2011, 50, "", 0},
               {2018.0, 90, "", 0},
               {synth::kYear2024, 140, "", 0}};
  return Study(cfg);
}

TEST(StudyWavesTest, ThreeWaveStudyRunsEndToEnd) {
  const Study study = make_three_wave_study();
  ASSERT_EQ(study.wave_count(), 3u);
  EXPECT_DOUBLE_EQ(study.wave_year(0), synth::kYear2011);
  EXPECT_DOUBLE_EQ(study.wave_year(1), 2018.0);
  EXPECT_DOUBLE_EQ(study.wave_year(2), synth::kYear2024);
  EXPECT_EQ(study.wave(1).row_count(), 90u);
  EXPECT_NO_THROW(study.wave(1).validate_rectangular());
  // Every wave draws an independent stream: salts all differ.
  EXPECT_NE(study.wave_spec(1).seed_salt, study.wave_spec(0).seed_salt);
  EXPECT_NE(study.wave_spec(2).seed_salt, study.wave_spec(1).seed_salt);
  // Raking works against the interpolated mid-wave margins too.
  EXPECT_TRUE(study.weights(1).converged);
  EXPECT_EQ(study.weights(1).weights.size(), 90u);
}

TEST(StudyWavesTest, MidWaveSharesTrackTheSecularDrift) {
  const Study study = make_three_wave_study();
  std::vector<std::vector<data::OptionShare>> lang_waves;
  std::vector<double> years;
  for (std::size_t w = 0; w < study.wave_count(); ++w) {
    years.push_back(study.wave_year(w));
    lang_waves.push_back(study.aggregates(w).languages);
  }
  // One Holm-adjusted battery per indicator family across all three waves.
  const auto battery = trend::multi_wave_option_battery(years, lang_waves);
  ASSERT_EQ(battery.size(), lang_waves[0].size());
  for (const auto& tr : battery) {
    ASSERT_EQ(tr.shares.size(), 3u);
    ASSERT_EQ(tr.segments.size(), 2u);
    ASSERT_EQ(tr.segment_p_adjusted.size(), 2u);
    EXPECT_GE(tr.overall_p_adjusted, tr.overall.p_value);
    if (tr.indicator == "Python") {
      // The anchors pin Python rising; the interpolated 2018 wave sits
      // between them and the overall trend is a significant increase.
      EXPECT_GT(tr.share(2), tr.share(0));
      EXPECT_EQ(tr.direction, trend::Direction::kIncrease);
    }
  }
}

TEST(StudyWavesTest, RegistryAddsLSeriesOnlyForThreePlusWaves) {
  StudyConfig two;
  two.n_2011 = 50;
  two.n_2024 = 120;
  two.seed = 19;
  const Study two_wave(two);
  report::ExperimentRegistry two_reg;
  register_all_experiments(two_reg, two_wave);
  EXPECT_EQ(two_reg.all().size(), 18u);
  EXPECT_FALSE(two_reg.has("L1"));

  const Study three_wave = make_three_wave_study();
  report::ExperimentRegistry three_reg;
  register_all_experiments(three_reg, three_wave);
  EXPECT_EQ(three_reg.all().size(), 19u);
  ASSERT_TRUE(three_reg.has("L1"));
  const std::string out = three_reg.run("L1");
  EXPECT_NE(out.find("Languages"), std::string::npos);
  EXPECT_NE(out.find("SE practices"), std::string::npos);
  EXPECT_NE(out.find("Parallel resources"), std::string::npos);
  // Deterministic artifact, like every other registered experiment.
  EXPECT_EQ(out, three_reg.run("L1"));
}

}  // namespace
}  // namespace rcr::core
