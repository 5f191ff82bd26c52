// Streaming study mode: the exact tables must equal Study's cold
// aggregates, the sketches must agree with the materialized wave within
// their documented bounds, and the whole result must be the same bits for
// any pool (serial == 1 thread == 4 threads).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "stats/descriptive.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace {

using rcr::core::StreamStudyConfig;
using rcr::stream::TableSketch;
namespace col = rcr::synth::col;

StreamStudyConfig small_config() {
  StreamStudyConfig config;
  config.respondents = 3000;
  config.seed = 19;
  config.block_rows = 256;
  return config;
}

struct Bits {
  std::vector<std::uint64_t> out;
  void num(double v) { out.push_back(std::bit_cast<std::uint64_t>(v)); }
  void label(const std::string& s) {
    out.push_back(std::hash<std::string>{}(s));
  }
};

// Every label and number of the eleven tables.
std::vector<std::uint64_t> table_bits(const rcr::core::WaveAggregates& a) {
  Bits b;
  for (const auto* ct :
       {&a.field_by_career, &a.field_by_languages, &a.field_by_se}) {
    for (const auto& l : ct->row_labels) b.label(l);
    for (const auto& l : ct->col_labels) b.label(l);
    for (std::size_t r = 0; r < ct->counts.rows(); ++r)
      for (std::size_t c = 0; c < ct->counts.cols(); ++c)
        b.num(ct->counts.at(r, c));
  }
  for (const auto* shares : {&a.languages, &a.se_practices,
                             &a.parallel_resources, &a.tools_aware,
                             &a.tools_used, &a.gpu_usage}) {
    for (const auto& s : *shares) {
      b.label(s.label);
      b.num(s.count);
      b.num(s.total);
      b.num(s.share.estimate);
      b.num(s.share.lo);
      b.num(s.share.hi);
    }
  }
  for (const auto* counts :
       {&a.field_answered_languages, &a.field_answered_se})
    for (const double v : *counts) b.num(v);
  return b.out;
}

// Everything the sketch exposes: moments, a percentile grid of every GK
// summary, every label's CMS estimate, all tracked heavy hitters, the HLL
// estimate and the reservoir.
std::vector<std::uint64_t> sketch_bits(const TableSketch& s) {
  Bits b;
  b.out = {s.rows(), s.blocks(), s.approx_bytes()};
  const auto& schema = s.schema();
  const auto cms = [&](const std::string& column, const std::string& label) {
    b.num(s.label_cms().estimate(TableSketch::label_key(column, label)));
  };
  for (const auto& name : schema.column_names()) {
    switch (schema.kind(name)) {
      case rcr::data::ColumnKind::kNumeric: {
        const auto& m = s.moments(name);
        b.out.push_back(m.count());
        for (const double v : {m.weight(), m.mean(), m.variance(), m.min(),
                               m.max()})
          b.num(v);
        const auto& q = s.quantile_sketch(name);
        for (int p = 0; p <= 100; ++p) b.num(q.quantile(p / 100.0));
        b.out.push_back(q.tuple_count());
        break;
      }
      case rcr::data::ColumnKind::kCategorical:
        for (const auto& label : schema.categorical(name).categories())
          cms(name, label);
        break;
      case rcr::data::ColumnKind::kMultiSelect:
        for (const auto& option : schema.multiselect(name).options())
          cms(name, option);
        break;
    }
  }
  b.num(s.label_cms().total_weight());
  for (const auto& e : s.heavy_hitters().top(s.heavy_hitters().capacity())) {
    b.label(e.key);
    b.num(e.count);
    b.num(e.error);
  }
  b.num(s.distinct().estimate());
  b.out.push_back(s.reservoir().offered());
  for (const auto& item : s.reservoir().items()) {
    b.out.push_back(item.index);
    b.num(item.value);
  }
  return b.out;
}

// Study's eleven aggregates from one cold engine run over `table`.
rcr::core::WaveAggregates cold_aggregates(const rcr::data::Table& table) {
  rcr::query::QueryEngine engine(table);
  rcr::core::register_wave_aggregates(engine);
  engine.run();
  return rcr::core::wave_aggregates(engine);
}

TEST(StreamStudy, SketchMatchesMaterializedWave) {
  const auto config = small_config();
  const auto result = rcr::core::run_stream_study(config);
  const auto& sketch = result.sketch;
  const auto full = rcr::synth::generate_wave(
      {rcr::synth::Wave::k2024, config.respondents, config.seed, nullptr});

  EXPECT_EQ(sketch.rows(), full.row_count());

  // Exact tables: the materialized column's option counts, and T2's
  // per-field denominators equal the field counts (generated waves never
  // leave languages missing).
  const auto counts = full.multiselect(col::kLanguages).option_counts();
  ASSERT_EQ(result.tables.languages.size(), counts.size());
  for (std::size_t o = 0; o < counts.size(); ++o)
    EXPECT_EQ(result.tables.languages[o].count, counts[o]);
  EXPECT_EQ(result.tables.field_answered_languages,
            full.categorical(col::kField).counts());
  EXPECT_EQ(table_bits(result.tables), table_bits(cold_aggregates(full)));

  // Moments vs descriptive stats over present values.
  const auto years = full.numeric(col::kYearsProgramming).present_values();
  const auto& m = sketch.moments(col::kYearsProgramming);
  EXPECT_EQ(m.count(), years.size());
  EXPECT_NEAR(m.mean(), rcr::stats::mean(years), 1e-9);
  EXPECT_NEAR(m.stddev(), rcr::stats::stddev(years), 1e-7);

  // GK quantiles within the documented merged bound (2 * eps * n rank).
  auto sorted = years;
  std::sort(sorted.begin(), sorted.end());
  const double eps = TableSketch::kQuantileEps;
  for (double p : {0.1, 0.5, 0.9}) {
    const double est = sketch.quantile_sketch(col::kYearsProgramming)
                           .quantile(p);
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), est);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), est);
    const double n = static_cast<double>(sorted.size());
    const double target = std::ceil(p * n);
    const double rank_lo = static_cast<double>(lo - sorted.begin()) + 1.0;
    const double rank_hi = static_cast<double>(hi - sorted.begin());
    const double err = target < rank_lo ? rank_lo - target
                       : target > rank_hi ? target - rank_hi
                                          : 0.0;
    EXPECT_LE(err, 2.0 * eps * n) << "quantile " << p;
  }

  // Every respondent row is distinct; the HLL should land near n.
  EXPECT_NEAR(sketch.distinct().estimate(),
              static_cast<double>(config.respondents),
              0.1 * static_cast<double>(config.respondents));

  // Reservoir filled to capacity.
  EXPECT_EQ(sketch.reservoir().items().size(), TableSketch::kReservoirCapacity);
}

// At any block size and on any pool, the exact tables are Study's cold
// aggregates of the same wave, bit for bit.
TEST(StreamStudy, ExactTablesEqualColdStudyAggregates) {
  rcr::core::StudyConfig cold_config;
  cold_config.n_2024 = 650;
  cold_config.seed = 7;
  const rcr::core::Study study(cold_config);
  const auto cold = table_bits(study.aggregates(1));

  StreamStudyConfig config;
  config.respondents = 650;
  config.seed = 7 ^ 0xA5A5A5A5ULL;  // Study's wave-2024 seed derivation
  rcr::parallel::ThreadPool pool1(1), pool4(4);
  for (const std::size_t block : {97, 650}) {
    for (rcr::parallel::ThreadPool* pool :
         {static_cast<rcr::parallel::ThreadPool*>(nullptr), &pool1, &pool4}) {
      config.block_rows = block;
      config.pool = pool;
      EXPECT_EQ(table_bits(rcr::core::run_stream_study(config).tables), cold)
          << "block " << block << ", pool "
          << (pool ? pool->thread_count() : 0);
    }
  }
}

// The acceptance criterion: identical tables and sketch state for any
// --threads value.
TEST(StreamStudy, ThreadCountInvariant) {
  auto config = small_config();
  const auto serial = rcr::core::run_stream_study(config);
  const auto serial_tables = table_bits(serial.tables);
  const auto serial_sketch = sketch_bits(serial.sketch);

  rcr::parallel::ThreadPool pool1(1), pool4(4);
  for (rcr::parallel::ThreadPool* pool : {&pool1, &pool4}) {
    config.pool = pool;
    const auto pooled = rcr::core::run_stream_study(config);
    EXPECT_EQ(table_bits(pooled.tables), serial_tables);
    EXPECT_EQ(sketch_bits(pooled.sketch), serial_sketch);
  }
}

// Block size moves only the sketches' floating-point detail: the exact
// tables are partition-invariant bit for bit, and so are the order-free
// sketches.
TEST(StreamStudy, BlockSizeChangesOnlyFloatingPointDetail) {
  auto config = small_config();
  const auto a = rcr::core::run_stream_study(config);
  config.block_rows = 997;
  const auto b = rcr::core::run_stream_study(config);
  EXPECT_EQ(a.sketch.rows(), b.sketch.rows());
  EXPECT_EQ(table_bits(a.tables), table_bits(b.tables));
  EXPECT_EQ(a.sketch.distinct().estimate(), b.sketch.distinct().estimate());
  // Reservoir priorities are pure functions of (seed, global index): the
  // sample is partition-invariant, not just thread-invariant.
  const auto& ra = a.sketch.reservoir().items();
  const auto& rb = b.sketch.reservoir().items();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(ra[i].index, rb[i].index);
  EXPECT_NEAR(a.sketch.moments(col::kDatasetGb).mean(),
              b.sketch.moments(col::kDatasetGb).mean(), 1e-9);
}

// A population with no rows is an error, serially and on a pool.
TEST(StreamStudy, EmptySourceThrows) {
  const auto expect_no_rows = [](const StreamStudyConfig& config) {
    try {
      (void)rcr::core::run_stream_study(config);
      ADD_FAILURE() << "an empty source was accepted";
    } catch (const rcr::InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find("no rows"), std::string::npos)
          << e.what();
    }
  };
  rcr::parallel::ThreadPool pool(2);
  auto config = small_config();
  config.respondents = 0;
  expect_no_rows(config);
  config.pool = &pool;
  expect_no_rows(config);
}

TEST(StreamStudy, RenderReportSmoke) {
  auto config = small_config();
  config.respondents = 1200;
  const std::string report =
      rcr::core::render_stream_report(rcr::core::run_stream_study(config));
  EXPECT_NE(report.find("respondents"), std::string::npos);
  EXPECT_NE(report.find("Python"), std::string::npos);
  EXPECT_NE(report.find("Version control"), std::string::npos);
  // The heavy-hitter key separator must be humanized, never raw \x1F.
  EXPECT_EQ(report.find('\x1F'), std::string::npos);
}

}  // namespace
