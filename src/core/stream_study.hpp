// Streaming study mode (M2): Study's exact tables and the approximate
// sketches, computed over a population that is never resident in memory.
//
// Block k is rows [k·block_rows, (k+1)·block_rows) of the unbiased 2024
// generator (synth::generate_range). Every block is appended to one
// query::QueryEngine registered with register_wave_aggregates (the exact
// tables) and sketched into its own stream::TableSketch shard, and blocks
// fold — append, then shard merge — in index order. On a pool each block
// is generated and sketched as its own task. The partition and the fold
// order depend only on the rows and block_rows, so the result is the same
// bits for any pool, including none. Peak memory is O(block_rows * threads)
// table rows plus the sketch state.
#pragma once

#include <cstdint>
#include <string>

#include "core/study.hpp"
#include "stream/table_sketch.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::core {

struct StreamStudyConfig {
  std::size_t respondents = 100000;
  std::uint64_t seed = 7;
  // Rows per block: it alone — not the pool — fixes the shard partition.
  std::size_t block_rows = 8192;
  rcr::parallel::ThreadPool* pool = nullptr;
};

struct StreamStudyResult {
  // Study's eleven aggregates over every streamed row: bitwise equal to
  // Study::aggregates on the materialized wave.
  WaveAggregates tables;
  // Moments, GK quantiles, heavy hitters, distinct count and a reservoir
  // sample of dataset sizes.
  stream::TableSketch sketch;
};

// Streams the generated population through the engine and the sketches.
// Throws rcr::InvalidInputError when there are no respondents.
StreamStudyResult run_stream_study(const StreamStudyConfig& config);

// Renders the T2/T4-style report: language use by field and SE-practice
// shares with Wilson intervals from the exact tables; numeric summaries
// (mean/sd + GK quantiles), distinct count, heavy hitters and the
// reservoir sample from the sketches.
std::string render_stream_report(const StreamStudyResult& result);

}  // namespace rcr::core
