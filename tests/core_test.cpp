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
  const auto& t = small_study().wave(1);
  const auto& res = t.multiselect(synth::col::kParallelResources);
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    if (res.is_missing(i)) continue;
    const ParallelRung rung = parallel_rung(t, i);
    if (res.mask_at(i) == 0) {
      EXPECT_EQ(rung, ParallelRung::kSerialOnly);
      EXPECT_FALSE(is_parallel_user(t, i));
    } else {
      EXPECT_NE(rung, ParallelRung::kSerialOnly);
      EXPECT_TRUE(is_parallel_user(t, i));
    }
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
  const auto py = trend::compare_option(s.wave(0), s.wave(1),
                                        synth::col::kLanguages, "Python");
  EXPECT_GT(py.share2.estimate, py.share1.estimate);
  const auto vcs =
      trend::compare_option(s.wave(0), s.wave(1),
                            synth::col::kSePractices, "Version control");
  EXPECT_GT(vcs.share2.estimate, vcs.share1.estimate);
  const auto gpu =
      trend::compare_option(s.wave(0), s.wave(1),
                            synth::col::kParallelResources, "GPU");
  EXPECT_GT(gpu.share2.estimate, gpu.share1.estimate);
}

}  // namespace
}  // namespace rcr::core
