#include "core/stream_study.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "report/table.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rcr::core {

namespace {

// The engine holding the exact tables and the merged sketch, advanced one
// block at a time in block order.
//
// A block's shard is created before its rows are built, and the rows are
// released before the shard merges: of the allocation orders tried, that
// one gives the lowest peak heap (EXPERIMENTS.md, M2).
struct BlockFold {
  BlockFold()
      : schema(synth::instrument().make_table()),
        engine(schema),
        sketch(empty_shard()) {
    register_wave_aggregates(engine);
  }

  stream::TableSketch empty_shard() const {
    return stream::TableSketch(schema, synth::col::kDatasetGb);
  }

  // Folds the block after the last one folded.
  void fold(data::Table rows, const stream::TableSketch& shard) {
    engine.append(rows);
    rows = data::Table();
    sketch.merge(shard);
  }

  data::Table schema;  // the instrument's columns, no rows: engine's table
  query::QueryEngine engine;
  stream::TableSketch sketch;
};

}  // namespace

StreamStudyResult run_stream_study(const StreamStudyConfig& config) {
  BlockFold walk;
  const std::size_t rows = config.respondents;
  const std::size_t block_rows = std::max<std::size_t>(1, config.block_rows);
  synth::GeneratorConfig gen;
  gen.wave = synth::Wave::k2024;
  gen.respondents = rows;
  gen.seed = config.seed;

  // On a pool each block is its own task: a finished block waits in
  // `ready` until its predecessor has folded, and whichever thread
  // completes the next index folds it, so no task waits for another.
  std::mutex mutex;
  std::map<std::size_t, std::pair<data::Table, stream::TableSketch>> ready;
  std::size_t next = 0;
  std::atomic<bool> failed{false};  // stops the walk at the first throw
  const auto build = [&](std::size_t k) {
    if (failed.load()) return;
    try {
      const std::size_t lo = k * block_rows;
      stream::TableSketch shard = walk.empty_shard();
      data::Table part = synth::generate_range(
          gen, lo, std::min(lo + block_rows, rows) - lo);
      shard.ingest(part, lo);
      std::lock_guard<std::mutex> lock(mutex);
      ready.emplace(k, std::make_pair(std::move(part), std::move(shard)));
      while (!ready.empty() && ready.begin()->first == next) {
        auto block = ready.extract(ready.begin());
        walk.fold(std::move(block.mapped().first), block.mapped().second);
        ++next;
      }
    } catch (...) {
      failed.store(true);
      throw;
    }
  };
  const std::size_t blocks = (rows + block_rows - 1) / block_rows;
  if (config.pool == nullptr) {
    for (std::size_t k = 0; k < blocks; ++k) build(k);
  } else {
    parallel::ForOptions options;
    options.grain = 1;
    parallel::parallel_for(*config.pool, 0, blocks, build, options);
  }
  if (walk.engine.row_count() == 0)
    throw InvalidInputError("stream study: the source holds no rows");
  walk.sketch.publish_metrics();
  return {wave_aggregates(walk.engine), std::move(walk.sketch)};
}

std::string render_stream_report(const StreamStudyResult& result) {
  const stream::TableSketch& sketch = result.sketch;
  const WaveAggregates& tables = result.tables;
  std::string out;
  out += "Streaming study: " + std::to_string(sketch.rows()) + " respondents in " +
         std::to_string(sketch.blocks()) + " blocks, sketch state ~" +
         format_double(static_cast<double>(sketch.approx_bytes()) / 1024.0, 1) +
         " KiB\n";
  out += "distinct respondents (HLL): " +
         format_double(sketch.distinct().estimate(), 0) + "\n";

  // T2-style: language adoption by field, shares of the field's rows
  // answering the question.
  {
    const data::LabeledCrosstab& xtab = tables.field_by_languages;
    out += "\nLanguage use by field (share of field, streaming T2)\n";
    std::vector<std::string> headers = {"Field"};
    for (const auto& l : xtab.col_labels) headers.push_back(l);
    report::TextTable t(std::move(headers));
    for (std::size_t f = 0; f < xtab.row_labels.size(); ++f) {
      const double denom = tables.field_answered_languages[f];
      std::vector<std::string> row = {xtab.row_labels[f]};
      for (std::size_t c = 0; c < xtab.col_labels.size(); ++c) {
        row.push_back(denom > 0.0
                          ? format_percent(xtab.counts.at(f, c) / denom, 0)
                          : "-");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }

  // T4-style: SE-practice adoption shares with Wilson intervals.
  {
    out += "\nSoftware-engineering practice adoption (streaming T4)\n";
    report::TextTable t({"Practice", "Share [95% CI]", "n"});
    for (const data::OptionShare& s : tables.se_practices) {
      t.add_row({s.label,
                 report::share_cell(s.share.estimate, s.share.lo, s.share.hi),
                 format_double(s.count, 0)});
    }
    out += t.render();
  }

  // Numeric summaries straight from the sketches.
  {
    out += "\nNumeric columns (Welford moments + GK quantiles)\n";
    report::TextTable t(
        {"Column", "n", "mean", "sd", "p50", "p90", "p99", "max"});
    for (const char* name :
         {synth::col::kYearsProgramming, synth::col::kCoresTypical,
          synth::col::kDatasetGb}) {
      const auto& m = sketch.moments(name);
      const auto& q = sketch.quantile_sketch(name);
      t.add_row({name, std::to_string(m.count()), format_double(m.mean(), 2),
                 format_double(m.stddev(), 2), format_double(q.quantile(0.5), 1),
                 format_double(q.quantile(0.9), 1),
                 format_double(q.quantile(0.99), 1),
                 format_double(m.max(), 1)});
    }
    out += t.render();
  }

  // Heavy hitters across every (column, label) cell.
  {
    out += "\nHeaviest answer cells (SpaceSaving" +
           std::string(sketch.heavy_hitters().exact() ? ", exact" : "") + ")\n";
    report::TextTable t({"Answer cell", "count", "max err"});
    for (const auto& e : sketch.heavy_hitters().top(10)) {
      std::string cell = e.key;
      // The CMS/SpaceSaving key joins column and label with \x1F; render
      // it readably.
      if (const auto sep = cell.find('\x1F'); sep != std::string::npos) {
        cell.replace(sep, 1, " / ");
      }
      t.add_row({cell, format_double(e.count, 0), format_double(e.error, 0)});
    }
    out += t.render();
  }

  // Reservoir sample of dataset sizes.
  if (!sketch.reservoir_column().empty()) {
    const auto& res = sketch.reservoir();
    double mean = 0.0;
    for (const auto& item : res.items()) mean += item.value;
    if (!res.items().empty()) mean /= static_cast<double>(res.items().size());
    out += "\nReservoir sample (" + sketch.reservoir_column() +
           "): " + std::to_string(res.items().size()) + " of " +
           std::to_string(res.offered()) +
           " offered, sample mean = " + format_double(mean, 2) + "\n";
  }
  return out;
}

}  // namespace rcr::core
