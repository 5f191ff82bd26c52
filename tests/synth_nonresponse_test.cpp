// Tests for the nonresponse-bias generator mode and its interaction with
// raking (the F9 methodology experiment's machinery).
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>

#include "data/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "survey/schema.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace rcr::synth {
namespace {

double share(const data::Table& t, const char* column, const char* option) {
  query::QueryEngine engine(t);
  const auto id = engine.add_option_shares(column);
  engine.run();
  for (const auto& s : engine.shares(id))
    if (s.label == option) return s.share.estimate;
  throw rcr::Error("option not found");
}

data::OptionShare weighted_share(const data::Table& t, const char* column,
                                 const char* option,
                                 std::span<const double> weights) {
  query::QueryEngine engine(t);
  const auto id = engine.add_weighted_option_share(column, option, weights);
  engine.run();
  return engine.weighted_share(id);
}

TEST(NonresponseTest, ZeroStrengthMatchesDefaultPath) {
  GeneratorConfig a{Wave::k2024, 100, 42, nullptr, 0.0};
  const auto t1 = generate_wave(a);
  const auto t2 = generate_wave({Wave::k2024, 100, 42, nullptr});
  EXPECT_EQ(t1.multiselect(col::kLanguages).mask_at(31),
            t2.multiselect(col::kLanguages).mask_at(31));
}

TEST(NonresponseTest, DeterministicForSeed) {
  GeneratorConfig cfg{Wave::k2024, 150, 9, nullptr, 0.7};
  const auto a = generate_wave(cfg);
  const auto b = generate_wave(cfg);
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_EQ(a.categorical(col::kField).code_at(i),
              b.categorical(col::kField).code_at(i));
    EXPECT_EQ(a.multiselect(col::kSePractices).is_missing(i),
              b.multiselect(col::kSePractices).is_missing(i));
  }
}

TEST(NonresponseTest, ProducesRequestedSizeAndValidResponses) {
  GeneratorConfig cfg{Wave::k2011, 321, 5, nullptr, 0.5};
  const auto t = generate_wave(cfg);
  EXPECT_EQ(t.row_count(), 321u);
  EXPECT_TRUE(survey::validate_responses(instrument(), t).empty());
}

TEST(NonresponseTest, BiasSkewsTowardIntensiveRespondents) {
  // With strong trait-driven nonresponse the sample over-represents heavy
  // programmers: trait-correlated indicators (CI adoption, high expertise)
  // read higher than in an unbiased sample of the same population.
  const std::size_t n = 5000;
  const auto unbiased =
      generate_wave({Wave::k2024, n, 31, nullptr, 0.0});
  const auto biased = generate_wave({Wave::k2024, n, 31, nullptr, 0.9});

  EXPECT_GT(share(biased, col::kSePractices, "Continuous integration"),
            share(unbiased, col::kSePractices, "Continuous integration"));
  EXPECT_GT(share(biased, col::kLanguages, "C++"),
            share(unbiased, col::kLanguages, "C++"));

  const auto mean_expertise = [](const data::Table& t) {
    const auto v = t.numeric(col::kExpertise).present_values();
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean_expertise(biased), mean_expertise(unbiased) + 0.05);
}

std::string to_csv(const data::Table& t) {
  std::ostringstream out;
  data::write_csv(out, t);
  return out.str();
}

// The pooled draw generates candidates a chunk at a time and keeps the
// first n that answer, in candidate order: the serial walk's sample, byte
// for byte, at any size and pool.
TEST(NonresponseTest, PooledDrawEqualsSerialBytes) {
  parallel::ThreadPool pool1(1), pool2(2), pool4(4);
  for (std::size_t n : {1u, 650u, 20000u}) {
    for (std::uint64_t seed : {3u, 17u, 0xF9F9F9u}) {
      GeneratorConfig config{Wave::k2024, n, seed, nullptr, 0.9};
      const std::string serial = to_csv(generate_wave(config));
      for (parallel::ThreadPool* pool : {&pool1, &pool2, &pool4}) {
        config.pool = pool;
        EXPECT_EQ(to_csv(generate_wave(config)), serial)
            << "n=" << n << " seed=" << seed
            << " threads=" << pool->thread_count();
      }
    }
  }
}

TEST(NonresponseTest, RejectsOutOfRangeStrength) {
  EXPECT_THROW(generate_wave({Wave::k2024, 10, 1, nullptr, 1.0}),
               rcr::Error);
  EXPECT_THROW(generate_wave({Wave::k2024, 10, 1, nullptr, -0.1}),
               rcr::Error);
}

TEST(WeightedOptionShareTest, UniformWeightsMatchUnweighted) {
  const auto t = generate_wave({Wave::k2024, 400, 3, nullptr});
  const std::vector<double> w(t.row_count(), 1.0);
  const auto weighted =
      weighted_share(t, col::kLanguages, "Python", w);
  const double plain = share(t, col::kLanguages, "Python");
  EXPECT_NEAR(weighted.share.estimate, plain, 1e-12);
}

TEST(WeightedOptionShareTest, WeightsShiftTheShare) {
  data::Table t;
  auto& m = t.add_multiselect("m", {"x"});
  m.push_mask(1);  // selects x
  m.push_mask(0);  // does not
  const auto up = weighted_share(
      t, "m", "x", std::vector<double>{3.0, 1.0});
  EXPECT_DOUBLE_EQ(up.share.estimate, 0.75);
  const auto down = weighted_share(
      t, "m", "x", std::vector<double>{1.0, 3.0});
  EXPECT_DOUBLE_EQ(down.share.estimate, 0.25);
}

TEST(WeightedOptionShareTest, RejectsBadInput) {
  data::Table t;
  t.add_multiselect("m", {"x"}).push_mask(1);
  EXPECT_THROW(
      weighted_share(t, "m", "x", std::vector<double>{1.0, 2.0}),
      rcr::Error);
  EXPECT_THROW(
      weighted_share(t, "m", "zzz", std::vector<double>{1.0}),
      rcr::Error);
  EXPECT_THROW(
      weighted_share(t, "m", "x", std::vector<double>{-1.0}),
      rcr::Error);
}

TEST(CodebookTest, RendersEveryQuestion) {
  const std::string codebook = survey::render_codebook(instrument());
  for (const auto& q : instrument().questions()) {
    EXPECT_NE(codebook.find("`" + q.id + "`"), std::string::npos) << q.id;
  }
  EXPECT_NE(codebook.find("single choice"), std::string::npos);
  EXPECT_NE(codebook.find("multi-select"), std::string::npos);
  EXPECT_NE(codebook.find("Likert 1..5"), std::string::npos);
  EXPECT_NE(codebook.find("numeric"), std::string::npos);
  EXPECT_NE(codebook.find("(required)"), std::string::npos);
}

}  // namespace
}  // namespace rcr::synth
