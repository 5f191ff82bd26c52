#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "data/crosstab.hpp"
#include "data/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "survey/schema.hpp"
#include "synth/calibration.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace rcr::synth {
namespace {

// Share of the rows answering `column` that select `option`; with `field`,
// only that field's rows count.
double option_share(const data::Table& t, const char* column,
                    const char* option, const char* field = nullptr) {
  const auto& col = t.multiselect(column);
  const auto o = static_cast<std::size_t>(col.find_option(option));
  const auto& fields = t.categorical(col::kField);
  const std::int32_t code =
      field != nullptr ? fields.find_code(field) : data::kMissingCode;
  double hit = 0.0, n = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    if (col.is_missing(i)) continue;
    if (field != nullptr && fields.code_at(i) != code) continue;
    n += 1.0;
    if (col.has(i, o)) hit += 1.0;
  }
  return hit / n;
}

TEST(DomainTest, InstrumentIsWellFormed) {
  const auto& q = instrument();
  EXPECT_EQ(q.size(), 15u);
  EXPECT_TRUE(q.has_question(col::kField));
  EXPECT_TRUE(q.has_question(col::kLanguages));
  const auto t = q.make_table();
  EXPECT_EQ(t.column_count(), q.size());
}

TEST(CalibrationTest, ParamsValidatedAndDistinct) {
  const auto& p2011 = params_for(Wave::k2011);
  const auto& p2024 = params_for(Wave::k2024);
  EXPECT_EQ(p2011.wave, Wave::k2011);
  EXPECT_EQ(p2024.wave, Wave::k2024);
  // The defining shifts are encoded.
  const auto lang_idx = [](const char* name) {
    for (std::size_t i = 0; i < languages().size(); ++i)
      if (languages()[i] == name) return i;
    throw rcr::Error("unknown language");
  };
  EXPECT_GT(p2024.language_base[lang_idx("Python")],
            p2011.language_base[lang_idx("Python")]);
  EXPECT_LT(p2024.language_base[lang_idx("MATLAB")],
            p2011.language_base[lang_idx("MATLAB")]);
  EXPECT_DOUBLE_EQ(p2011.language_base[lang_idx("Julia")], 0.0);
  EXPECT_GT(p2024.dataset_log_gb_mu, p2011.dataset_log_gb_mu);
}

TEST(GeneratorTest, DeterministicForSeed) {
  const auto a = generate_wave({Wave::k2024, 200, 42, nullptr});
  const auto b = generate_wave({Wave::k2024, 200, 42, nullptr});
  ASSERT_EQ(a.row_count(), b.row_count());
  const auto& la = a.multiselect(col::kLanguages);
  const auto& lb = b.multiselect(col::kLanguages);
  for (std::size_t i = 0; i < la.size(); ++i)
    EXPECT_EQ(la.mask_at(i), lb.mask_at(i));
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_EQ(a.categorical(col::kField).code_at(i),
              b.categorical(col::kField).code_at(i));
  }
}

TEST(GeneratorTest, ParallelGenerationMatchesSerial) {
  rcr::parallel::ThreadPool pool(4);
  const auto serial = generate_wave({Wave::k2011, 300, 9, nullptr});
  const auto parallel = generate_wave({Wave::k2011, 300, 9, &pool});
  const auto& ls = serial.multiselect(col::kLanguages);
  const auto& lp = parallel.multiselect(col::kLanguages);
  for (std::size_t i = 0; i < ls.size(); ++i)
    EXPECT_EQ(ls.mask_at(i), lp.mask_at(i));
  const auto& cs = serial.numeric(col::kCoresTypical);
  const auto& cp = parallel.numeric(col::kCoresTypical);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const bool ms = data::NumericColumn::is_missing(cs.at(i));
    const bool mp = data::NumericColumn::is_missing(cp.at(i));
    EXPECT_EQ(ms, mp);
    if (!ms) {
      EXPECT_DOUBLE_EQ(cs.at(i), cp.at(i));
    }
  }
}

TEST(GeneratorTest, ValidatesAgainstInstrument) {
  const auto t = generate_wave({Wave::k2024, 500, 3, nullptr});
  const auto issues = survey::validate_responses(instrument(), t);
  EXPECT_TRUE(issues.empty());
}

class GeneratorInvariantTest
    : public ::testing::TestWithParam<std::tuple<Wave, std::uint64_t>> {};

TEST_P(GeneratorInvariantTest, HardConsistencyRules) {
  const auto [wave, seed] = GetParam();
  const auto t = generate_wave({wave, 400, seed, nullptr});
  const auto& langs = t.multiselect(col::kLanguages);
  const auto& primary = t.categorical(col::kPrimaryLanguage);
  const auto& res = t.multiselect(col::kParallelResources);
  const auto& models = t.multiselect(col::kParallelModels);
  const auto& cores = t.numeric(col::kCoresTypical);
  const auto& aware = t.multiselect(col::kToolsAware);
  const auto& used = t.multiselect(col::kToolsUsed);
  const auto mpi = static_cast<std::size_t>(models.find_option("MPI"));
  const auto cuda = static_cast<std::size_t>(models.find_option("CUDA/HIP"));
  const auto cluster = static_cast<std::size_t>(res.find_option("Cluster"));
  const auto gpu = static_cast<std::size_t>(res.find_option("GPU"));

  for (std::size_t i = 0; i < t.row_count(); ++i) {
    // Everyone uses at least one language; primary is among them.
    ASSERT_FALSE(langs.is_missing(i));
    EXPECT_GE(langs.selection_count(i), 1u);
    ASSERT_FALSE(primary.is_missing(i));
    EXPECT_TRUE(langs.has(i, static_cast<std::size_t>(primary.code_at(i))));

    // Models only for parallel users; MPI needs cluster, CUDA needs GPU.
    if (!models.is_missing(i)) {
      if (res.mask_at(i) == 0) {
        EXPECT_EQ(models.mask_at(i), 0u);
      }
      if (models.has(i, mpi)) {
        EXPECT_TRUE(res.has(i, cluster));
      }
      if (models.has(i, cuda)) {
        EXPECT_TRUE(res.has(i, gpu));
      }
    }
    // Serial users run on one core.
    if (!data::NumericColumn::is_missing(cores.at(i)) &&
        res.mask_at(i) == 0) {
      EXPECT_DOUBLE_EQ(cores.at(i), 1.0);
    }
    // tools_used ⊆ tools_aware (when answered).
    if (!aware.is_missing(i) && !used.is_missing(i)) {
      EXPECT_EQ(used.mask_at(i) & ~aware.mask_at(i), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WavesAndSeeds, GeneratorInvariantTest,
    ::testing::Combine(::testing::Values(Wave::k2011, Wave::k2024),
                       ::testing::Values(1, 7, 123)));

TEST(GeneratorCalibrationTest, SharesTrackAnchors) {
  // Large n so sampling noise is small; tolerances are loose because traits
  // modulate the baselines.
  const auto w2011 = generate_wave({Wave::k2011, 6000, 11, nullptr});
  const auto w2024 = generate_wave({Wave::k2024, 6000, 13, nullptr});

  // Directional anchors (the study's headline trends).
  EXPECT_GT(option_share(w2024, col::kLanguages, "Python"),
            option_share(w2011, col::kLanguages, "Python") + 0.2);
  EXPECT_LT(option_share(w2024, col::kLanguages, "MATLAB"),
            option_share(w2011, col::kLanguages, "MATLAB") - 0.05);
  EXPECT_GT(option_share(w2024, col::kSePractices, "Version control"),
            option_share(w2011, col::kSePractices, "Version control") + 0.2);
  EXPECT_GT(option_share(w2024, col::kParallelResources, "GPU"),
            option_share(w2011, col::kParallelResources, "GPU") + 0.1);
  // Julia and Rust absent in 2011.
  EXPECT_DOUBLE_EQ(option_share(w2011, col::kLanguages, "Julia"), 0.0);
  EXPECT_DOUBLE_EQ(option_share(w2011, col::kLanguages, "Rust"), 0.0);
  EXPECT_GT(option_share(w2024, col::kLanguages, "Julia"), 0.0);
}

TEST(GeneratorCalibrationTest, FieldMixMatchesTargets) {
  const auto t = generate_wave({Wave::k2024, 20000, 17, nullptr});
  const auto& p = params_for(Wave::k2024);
  const auto counts = t.categorical(col::kField).counts();
  double total = 0.0;
  for (double c : counts) total += c;
  for (std::size_t f = 0; f < counts.size(); ++f)
    EXPECT_NEAR(counts[f] / total, p.field_mix[f], 0.012)
        << fields()[f];
}

TEST(GeneratorCalibrationTest, FieldLeansAreVisible) {
  const auto t = generate_wave({Wave::k2024, 12000, 19, nullptr});
  const char* cs = "Computer Sci";
  const char* social = "Social Sci";
  // CS leans C++; Social Science leans R.
  EXPECT_GT(option_share(t, col::kLanguages, "C++", cs),
            option_share(t, col::kLanguages, "C++", social) + 0.1);
  EXPECT_GT(option_share(t, col::kLanguages, "R", social),
            option_share(t, col::kLanguages, "R", cs) + 0.1);
}

TEST(GeneratorTest, RejectsEmptyWave) {
  EXPECT_THROW(generate_wave({Wave::k2011, 0, 1, nullptr}), rcr::Error);
}

std::string to_csv(const data::Table& t) {
  std::ostringstream out;
  data::write_csv(out, t);
  return out.str();
}

// Any partition of [0, n) via generate_range concatenates to generate_wave.
TEST(GeneratorBlocksTest, RangeShardsConcatenateToWave) {
  GeneratorConfig config{Wave::k2011, 257, 31, nullptr};
  const auto whole = generate_wave(config);
  const std::size_t cuts[] = {0, 1, 63, 64, 200, 257};
  auto assembled = whole.clone_empty();
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i)
    assembled.append_rows(
        generate_range(config, cuts[i], cuts[i + 1] - cuts[i]));
  EXPECT_EQ(to_csv(assembled), to_csv(whole));
}

TEST(GeneratorBlocksTest, RangeRejectsNonresponse) {
  GeneratorConfig config;
  config.nonresponse_strength = 0.2;
  EXPECT_THROW(generate_range(config, 0, 10), rcr::Error);
}

TEST(GeneratorTest, ConvenienceWrappersUseDistinctStreams) {
  const auto a = generate_2011(50, 7);
  const auto b = generate_2024(50, 7);
  // Same seed argument, different waves: masks must differ somewhere.
  const auto& la = a.multiselect(col::kLanguages);
  const auto& lb = b.multiselect(col::kLanguages);
  bool any_diff = false;
  for (std::size_t i = 0; i < 50; ++i)
    if (la.mask_at(i) != lb.mask_at(i)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace rcr::synth
