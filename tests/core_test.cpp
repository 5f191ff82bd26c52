// Integration tests: the full pipeline from synthetic waves through every
// registered experiment.
#include <gtest/gtest.h>

#include "core/rcr.hpp"

namespace rcr::core {
namespace {

// One shared small study keeps the suite fast; experiments only read it.
const Study& small_study() {
  static const Study study([] {
    StudyConfig c;
    c.n_2011 = 80;
    c.n_2024 = 200;
    c.seed = 21;
    return c;
  }());
  return study;
}

TEST(StudyTest, WavesHaveConfiguredSizes) {
  const auto& s = small_study();
  EXPECT_EQ(s.wave(0).row_count(), 80u);
  EXPECT_EQ(s.wave(1).row_count(), 200u);
  EXPECT_NO_THROW(s.wave(0).validate_rectangular());
}

TEST(StudyTest, WeightsConvergeAndAreCached) {
  const auto& s = small_study();
  const auto& w1 = s.weights(1);
  EXPECT_TRUE(w1.converged);
  EXPECT_EQ(w1.weights.size(), s.wave(1).row_count());
  const auto& w2 = s.weights(1);
  EXPECT_EQ(&w1, &w2);  // cached
}

TEST(StudyTest, DeterministicAcrossInstances) {
  StudyConfig c;
  c.n_2011 = 30;
  c.n_2024 = 40;
  c.seed = 5;
  const Study a(c), b(c);
  EXPECT_EQ(a.wave(1).multiselect(synth::col::kLanguages).mask_at(7),
            b.wave(1).multiselect(synth::col::kLanguages).mask_at(7));
}

TEST(ParallelRungTest, LadderOrdering) {
  // Each answered row counts once, at its highest rung: GPU over cluster
  // and cloud, those over a multicore node; no resource is serial only.
  data::Table t = synth::instrument().make_table();
  auto& res = t.multiselect(synth::col::kParallelResources);
  res.push_labels({});
  res.push_labels({"Multicore node"});
  res.push_labels({"Multicore node", "Cloud"});
  res.push_labels({"Cluster"});
  res.push_labels({"GPU", "Cluster", "Multicore node"});
  res.push_labels({"GPU"});
  res.push_missing();
  const RungCounts c = rung_counts(t);
  EXPECT_EQ(c.answered, 6.0);
  EXPECT_EQ(c.at_rung, (std::array<double, 4>{1.0, 1.0, 2.0, 2.0}));
}

TEST(ParallelRungTest, StudyWavesCountEveryAnsweredRowOnce) {
  for (std::size_t w = 0; w < 2; ++w) {
    const auto& t = small_study().wave(w);
    const auto& res = t.multiselect(synth::col::kParallelResources);
    double serial = 0.0;
    for (std::size_t i = 0; i < t.row_count(); ++i)
      if (!res.is_missing(i) && res.mask_at(i) == 0) serial += 1.0;
    const RungCounts c = rung_counts(t);
    EXPECT_EQ(c.answered,
              small_study().aggregates(w).parallel_resources[0].total);
    EXPECT_EQ(c.at_rung[0] + c.at_rung[1] + c.at_rung[2] + c.at_rung[3],
              c.answered);
    EXPECT_EQ(c.at_rung[static_cast<std::size_t>(ParallelRung::kSerialOnly)],
              serial);
  }
}

class ExperimentTest : public ::testing::TestWithParam<const char*> {
 protected:
  static report::ExperimentRegistry& registry() {
    static report::ExperimentRegistry reg = [] {
      report::ExperimentRegistry r;
      register_all_experiments(r, small_study());
      return r;
    }();
    return reg;
  }
};

TEST_P(ExperimentTest, RunsAndProducesDeterministicArtifact) {
  const std::string id = GetParam();
  ASSERT_TRUE(registry().has(id));
  const std::string first = registry().run(id);
  EXPECT_GT(first.size(), 100u) << "suspiciously small artifact";
  EXPECT_NE(first.find("== " + id), std::string::npos);
  const std::string second = registry().run(id);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, ExperimentTest,
                         ::testing::Values("T1", "T2", "T3", "T4", "T5", "T6",
                                           "T7", "T8", "F1", "F2", "F3", "F4",
                                           "F5", "F6", "F7", "F8", "F9",
                                           "F10"));

TEST(ExperimentTest, F5RunsKernelsAndVerifies) {
  // F5 runs the real kernels; its tables name each one.
  report::ExperimentRegistry reg;
  register_all_experiments(reg, small_study());
  const std::string out = reg.run("F5");
  EXPECT_NE(out.find("heat-stencil"), std::string::npos);
  EXPECT_NE(out.find("spmv"), std::string::npos);
  EXPECT_NE(out.find("Amdahl"), std::string::npos);
}

TEST(ExperimentTest, RegistryHasAllExperiments) {
  report::ExperimentRegistry reg;
  register_all_experiments(reg, small_study());
  EXPECT_EQ(reg.all().size(), 18u);
}

TEST(ExperimentTest, HeadlineTrendsPointTheRightWay) {
  // The substance check: the reconstructed study reproduces the known
  // directional findings even at this small n.
  const auto& s = small_study();
  const auto rose = [](const std::vector<data::OptionShare>& s2011,
                       const std::vector<data::OptionShare>& s2024,
                       const std::string& option) {
    for (const auto& t : trend::option_battery_from_shares(s2011, s2024))
      if (t.indicator == option) return t.share2.estimate > t.share1.estimate;
    ADD_FAILURE() << "no option " << option;
    return false;
  };
  const auto& a = s.aggregates(0);
  const auto& b = s.aggregates(1);
  EXPECT_TRUE(rose(a.languages, b.languages, "Python"));
  EXPECT_TRUE(rose(a.se_practices, b.se_practices, "Version control"));
  EXPECT_TRUE(rose(a.parallel_resources, b.parallel_resources, "GPU"));
}

}  // namespace
}  // namespace rcr::core
