// M2 scale demo: stream a synthetic population that never fits in memory
// through the streaming study (exact tables by QueryEngine::append, the
// rest by rcr::stream sketches).
//
//   bench_m2_stream --rows 10000000 --threads 8
//
// processes the population in block_rows-sized blocks (peak resident state:
// threads blocks of rows plus the sketch, reported and bounded well under
// 64 MB), prints the T2/T4-style streaming report, and — when an exact
// reference is affordable (--rows <= 1M, or --exact to force it) —
// materializes the same population once and prints a sketch-vs-exact error
// table. --json FILE emits the error metrics for CI to diff against the
// committed tolerances in bench/stream_tolerances.json.
//
// The final line prints a fingerprint hash over the exact tables and all
// sketch state; it is identical for any --threads value (blocks fold in
// block order).
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/rcr.hpp"
#include "core/stream_study.hpp"
#include "query_reference.hpp"
#include "simd/dispatch.hpp"
#include "stream/table_sketch.hpp"

namespace {

using rcr::core::StreamStudyResult;
using rcr::stream::TableSketch;

// Order-sensitive 64-bit fold over the sketch's observable state.
struct Fingerprint {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  void mix(std::uint64_t v) { h = rcr::stream::mix64(h ^ v); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) { mix(rcr::stream::hash_bytes(s, 0)); }
};

std::uint64_t fingerprint(const StreamStudyResult& result) {
  const TableSketch& sketch = result.sketch;
  const rcr::core::WaveAggregates& tables = result.tables;
  Fingerprint fp;
  fp.mix(sketch.rows());
  const auto& schema = sketch.schema();
  for (const auto& name : schema.column_names()) {
    if (schema.kind(name) != rcr::data::ColumnKind::kNumeric) continue;
    const auto& m = sketch.moments(name);
    fp.mix(m.count());
    fp.mix(m.mean());
    fp.mix(m.variance());
    fp.mix(m.min());
    fp.mix(m.max());
    const auto& q = sketch.quantile_sketch(name);
    for (double p : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99}) fp.mix(q.quantile(p));
  }
  for (const auto* ct : {&tables.field_by_career, &tables.field_by_languages,
                         &tables.field_by_se}) {
    for (std::size_t r = 0; r < ct->counts.rows(); ++r)
      for (std::size_t c = 0; c < ct->counts.cols(); ++c)
        fp.mix(ct->counts.at(r, c));
  }
  for (const auto* shares :
       {&tables.languages, &tables.se_practices, &tables.parallel_resources,
        &tables.tools_aware, &tables.tools_used, &tables.gpu_usage}) {
    for (const auto& s : *shares) {
      fp.mix(s.count);
      fp.mix(s.total);
    }
  }
  for (const auto* counts :
       {&tables.field_answered_languages, &tables.field_answered_se})
    for (const double c : *counts) fp.mix(c);
  fp.mix(sketch.distinct().estimate());
  for (const auto& e : sketch.heavy_hitters().top(16)) {
    fp.mix(e.key);
    fp.mix(e.count);
  }
  if (!sketch.reservoir_column().empty()) {
    for (const auto& item : sketch.reservoir().items()) {
      fp.mix(item.index);
      fp.mix(item.value);
    }
  }
  return fp.h;
}

struct ErrorRow {
  std::string metric;
  double value = 0.0;
  double bound = 0.0;
};

// Sketch-vs-exact validation: materializes the identical population once
// (generate_wave emits the same row sequence the blocks concatenated to)
// and measures every sketch's deviation from the exact answer, and the
// exact tables' deviation from the serial reference builders.
std::vector<ErrorRow> validate(const StreamStudyResult& result,
                               const rcr::synth::GeneratorConfig& gen) {
  const TableSketch& sketch = result.sketch;
  std::vector<ErrorRow> rows;
  const rcr::data::Table full = rcr::synth::generate_wave(gen);

  // Moments and quantiles per numeric column.
  double mean_err = 0.0, quantile_err = 0.0;
  for (const char* name :
       {rcr::synth::col::kYearsProgramming, rcr::synth::col::kCoresTypical,
        rcr::synth::col::kDatasetGb, rcr::synth::col::kTimeProgramming,
        rcr::synth::col::kExpertise}) {
    const auto& col = full.numeric(name);
    std::vector<double> values;
    values.reserve(col.size());
    long double sum = 0.0L;
    for (std::size_t i = 0; i < col.size(); ++i) {
      const double v = col.at(i);
      if (rcr::data::NumericColumn::is_missing(v)) continue;
      values.push_back(v);
      sum += v;
    }
    std::sort(values.begin(), values.end());
    const double exact_mean = static_cast<double>(sum / values.size());
    const auto& m = sketch.moments(name);
    if (exact_mean != 0.0) {
      mean_err = std::max(
          mean_err, std::abs(m.mean() - exact_mean) / std::abs(exact_mean));
    }
    const auto& q = sketch.quantile_sketch(name);
    for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      const double est = q.quantile(p);
      const auto target = static_cast<double>(
          std::max<std::size_t>(1, static_cast<std::size_t>(
                                       std::ceil(p * values.size()))));
      // Certain rank interval of `est` in the exact sorted values.
      const auto lo = std::lower_bound(values.begin(), values.end(), est);
      const auto hi = std::upper_bound(values.begin(), values.end(), est);
      const double rank_lo = static_cast<double>(lo - values.begin()) + 1.0;
      const double rank_hi = static_cast<double>(hi - values.begin());
      double err = 0.0;
      if (target < rank_lo) err = rank_lo - target;
      if (target > rank_hi) err = target - rank_hi;
      quantile_err =
          std::max(quantile_err, err / static_cast<double>(values.size()));
    }
  }
  rows.push_back({"moments.mean.rel_err", mean_err, 1e-9});
  rows.push_back(
      {"quantile.rank_err_frac", quantile_err,
       2.0 * TableSketch::kQuantileEps});

  // CountMin overestimate across every (column, label) cell, as a fraction
  // of the sketch's total weight, against the materialized table's counts.
  double cms_over = 0.0;
  const auto& cms = sketch.label_cms();
  const auto check_cell = [&](const std::string& column,
                              const std::string& label, double exact) {
    const double est = cms.estimate(TableSketch::label_key(column, label));
    if (est + 1e-9 < exact) cms_over = 1e9;  // underestimate = broken sketch
    if (cms.total_weight() > 0.0)
      cms_over = std::max(cms_over, (est - exact) / cms.total_weight());
  };
  for (const auto& name : full.column_names()) {
    if (full.kind(name) == rcr::data::ColumnKind::kCategorical) {
      const auto& col = full.categorical(name);
      const auto counts = col.counts();
      for (std::size_t c = 0; c < col.category_count(); ++c)
        check_cell(name, col.category(c), counts[c]);
    } else if (full.kind(name) == rcr::data::ColumnKind::kMultiSelect) {
      const auto& col = full.multiselect(name);
      const auto counts = col.option_counts();
      for (std::size_t o = 0; o < col.option_count(); ++o)
        check_cell(name, col.option(o), counts[o]);
    }
  }
  rows.push_back({"cms.over_frac", cms_over,
                  std::exp(1.0) / static_cast<double>(cms.width())});

  // HyperLogLog vs the true distinct count of the same composite keys.
  std::unordered_set<std::uint64_t> truth;
  truth.reserve(full.row_count());
  for (std::size_t i = 0; i < full.row_count(); ++i)
    truth.insert(sketch.row_key(full, i));
  const double distinct_true = static_cast<double>(truth.size());
  const double hll_err =
      std::abs(sketch.distinct().estimate() - distinct_true) / distinct_true;
  // 5 sigma of the standard error for the configured precision.
  const double hll_bound =
      5.0 * 1.04 /
      std::sqrt(static_cast<double>(
          std::size_t{1} << TableSketch::kHllPrecision));
  rows.push_back({"hll.rel_err", hll_err, hll_bound});

  // The appended crosstabs must equal the serial reference builders
  // exactly.
  namespace col = rcr::synth::col;
  namespace ref = rcr::query::reference;
  const std::pair<const rcr::data::LabeledCrosstab*, rcr::data::LabeledCrosstab>
      crosstabs[] = {
          {&result.tables.field_by_career,
           ref::crosstab(full, col::kField, col::kCareerStage)},
          {&result.tables.field_by_languages,
           ref::crosstab_multiselect(full, col::kField, col::kLanguages)},
          {&result.tables.field_by_se,
           ref::crosstab_multiselect(full, col::kField, col::kSePractices)}};
  double xtab_diff = 0.0;
  for (const auto& [streamed, exact] : crosstabs) {
    if (streamed->row_labels != exact.row_labels ||
        streamed->col_labels != exact.col_labels) {
      xtab_diff = 1e9;  // a label mismatch is a broken table
      continue;
    }
    for (std::size_t r = 0; r < exact.row_labels.size(); ++r)
      for (std::size_t c = 0; c < exact.col_labels.size(); ++c)
        xtab_diff = std::max(xtab_diff, std::abs(streamed->counts.at(r, c) -
                                                 exact.counts.at(r, c)));
  }
  rows.push_back({"crosstab.max_abs_diff", xtab_diff, 0.0});

  // SpaceSaving stays exact while the label domain fits its capacity.
  rows.push_back(
      {"space_saving.inexact", sketch.heavy_hitters().exact() ? 0.0 : 1.0,
       0.0});
  rows.push_back({"reservoir.size_deficit",
                  static_cast<double>(
                      sketch.reservoir().capacity() -
                      std::min(sketch.reservoir().capacity(),
                               sketch.reservoir().items().size())),
                  0.0});
  return rows;
}

}  // namespace

int main(int argc, char** argv) try {
  rcr::CliParser cli(argc, argv);
  rcr::core::StreamStudyConfig config;
  config.respondents =
      static_cast<std::size_t>(cli.get_int_or("rows", 10000000));
  config.seed = static_cast<std::uint64_t>(cli.get_int_or("seed", 7));
  config.block_rows =
      static_cast<std::size_t>(cli.get_int_or("block", 65536));
  const auto threads = cli.get_int_or("threads", 0);
  const bool force_exact = cli.has_switch("exact");
  const bool skip_report = cli.has_switch("no-report");
  const auto json_path = cli.get("json");
  cli.finish();

  std::unique_ptr<rcr::parallel::ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<rcr::parallel::ThreadPool>(
        static_cast<std::size_t>(threads));
    config.pool = pool.get();
  }
  std::cerr << "bench_m2_stream: seed=" << config.seed
            << " threads=" << (pool ? pool->thread_count() : 1)
            << " rows=" << config.respondents
            << " block=" << config.block_rows
            << " simd=" << rcr::simd::describe() << "\n";

  rcr::Stopwatch watch;
  const auto result = rcr::core::run_stream_study(config);
  const double elapsed = watch.elapsed_seconds();
  const TableSketch& sketch = result.sketch;

  if (!skip_report) std::cout << rcr::core::render_stream_report(result);
  std::printf(
      "\nthroughput: %.0f rows in %.2f s = %.2e rows/s, sketch %.2f MiB\n",
      static_cast<double>(sketch.rows()), elapsed,
      static_cast<double>(sketch.rows()) / elapsed,
      static_cast<double>(sketch.approx_bytes()) / (1024.0 * 1024.0));

  std::vector<ErrorRow> errors;
  const bool run_exact = force_exact || config.respondents <= 1000000;
  if (run_exact) {
    rcr::synth::GeneratorConfig gen;
    gen.wave = rcr::synth::Wave::k2024;
    gen.respondents = config.respondents;
    gen.seed = config.seed;
    errors = validate(result, gen);
    rcr::report::TextTable t({"Metric", "Observed", "Bound", "Status"});
    bool ok = true;
    for (const auto& e : errors) {
      const bool pass = e.value <= e.bound + 1e-12;
      ok = ok && pass;
      t.add_row({e.metric, rcr::format_double(e.value, 8),
                 rcr::format_double(e.bound, 8), pass ? "ok" : "FAIL"});
    }
    std::cout << "\nSketch vs exact (same stream, materialized once)\n"
              << t.render();
    if (!ok) {
      std::cerr << "bench_m2_stream: sketch error exceeded its bound\n";
      return 1;
    }
  } else {
    std::cout << "\n(exact reference skipped at this scale; pass --exact to "
                 "force it)\n";
  }

  const std::uint64_t fp = fingerprint(result);
  std::printf("fingerprint: %016" PRIx64 "\n", fp);

  if (json_path) {
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::cerr << "bench_m2_stream: cannot open " << *json_path << "\n";
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"m2_stream\",\n"
                 "  \"simd\": \"%s\",\n  \"rows\": %zu,\n"
                 "  \"threads\": %zu,\n  \"seed\": %llu,\n"
                 "  \"elapsed_s\": %.4f,\n  \"rows_per_sec\": %.4e,\n"
                 "  \"sketch_bytes\": %zu,\n  \"fingerprint\": \"%016" PRIx64
                 "\",\n  \"errors\": {\n",
                 rcr::simd::describe().c_str(),
                 static_cast<std::size_t>(sketch.rows()),
                 pool ? pool->thread_count() : std::size_t{1},
                 static_cast<unsigned long long>(config.seed), elapsed,
                 static_cast<double>(sketch.rows()) / elapsed,
                 sketch.approx_bytes(), fp);
    for (std::size_t i = 0; i < errors.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.10g%s\n", errors[i].metric.c_str(),
                   errors[i].value, i + 1 < errors.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
