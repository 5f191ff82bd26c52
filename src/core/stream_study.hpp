// Streaming study mode (M2): Study's exact tables and the approximate
// sketches, computed over a population that is never resident in memory.
//
// Block k is rows [k·block_rows, (k+1)·block_rows) of the configured
// source: the unbiased generator, the biased generator, a CSV file or a
// snapshot. Every block is appended to one query::QueryEngine registered
// with register_wave_aggregates (the exact tables) and sketched into its
// own stream::TableSketch shard, and blocks fold — append, then shard
// merge — in index order. Random-access sources (the unbiased generator, a
// snapshot) build and sketch their blocks on the pool, one task per block;
// sequential sources (CSV, the biased generator) fold on the caller, and
// the biased generator draws its candidates on the pool. The
// partition and the fold order depend only on the rows and block_rows, so
// the result is the same bits for any pool, including none, and for any
// source holding the same rows. Peak memory is O(block_rows * threads)
// table rows plus the sketch state.
#pragma once

#include <cstdint>
#include <string>

#include "core/study.hpp"
#include "stream/table_sketch.hpp"
#include "synth/generator.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::core {

struct StreamStudyConfig {
  synth::Wave wave = synth::Wave::k2024;
  std::size_t respondents = 100000;
  std::uint64_t seed = 7;
  // When non-empty, rows are streamed from this CSV file (instrument
  // schema, read in `block_rows` blocks with O(block_rows) memory) instead
  // of being synthesized; wave/respondents/seed/nonresponse are ignored.
  std::string csv_path;
  // When non-empty, rows come from an rcr::data snapshot (data/snapshot.hpp)
  // memory-mapped and sliced into `block_rows` blocks. Takes precedence
  // over csv_path.
  std::string snapshot_path;
  // Rows per block: it alone — not the pool — fixes the shard partition.
  std::size_t block_rows = 8192;
  rcr::parallel::ThreadPool* pool = nullptr;
  // Nonresponse bias > 0 streams the generator's rejection walk: its
  // candidates are drawn on the pool, its blocks folded on the caller.
  double nonresponse_strength = 0.0;
  stream::TableSketchOptions sketch = default_stream_options();

  // Every column's sketches, plus a reservoir sample of dataset sizes.
  static stream::TableSketchOptions default_stream_options();
};

struct StreamStudyResult {
  // Study's eleven aggregates over every streamed row: bitwise equal to
  // Study::aggregates on the materialized wave.
  WaveAggregates tables;
  // Moments, GK quantiles, heavy hitters, distinct count and reservoir.
  stream::TableSketch sketch;
};

// Streams the configured source through the engine and the sketches.
// Throws rcr::InvalidInputError when the source holds no rows.
StreamStudyResult run_stream_study(const StreamStudyConfig& config);

// Renders the T2/T4-style report: language use by field and SE-practice
// shares with Wilson intervals from the exact tables; numeric summaries
// (mean/sd + GK quantiles), distinct count, heavy hitters and the
// reservoir sample from the sketches.
std::string render_stream_report(const StreamStudyResult& result);

}  // namespace rcr::core
