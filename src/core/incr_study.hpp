// Continuously-ingesting study mode: the full WaveAggregates (the T1-T6
// table inputs) kept live while respondents stream in, refreshed in
// O(block rows) per arriving block by QueryEngine::append instead of a
// cold per-cut rescan.
//
// Blocks come from synth::generate_blocks (synthetic populations at any
// scale) or from data::for_each_snapshot_block (page-granular reads of an
// on-disk snapshot — peak memory is one block, never the whole table), or
// from caller-supplied tables via ingest(). At every block boundary the
// aggregates are a consistent cut: bitwise-equal to Study's cold fused
// engine scan over all rows ingested so far, for any pool size including
// none (the engine's append contract, pinned by
// tests/determinism_test.cpp).
//
// Peak memory is O(block_rows) table rows plus the engine's partial cells
// — a streaming-scale population is analyzed without ever being resident.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/study.hpp"
#include "data/table.hpp"
#include "query/engine.hpp"
#include "synth/generator.hpp"

namespace rcr::parallel {
class ThreadPool;
}

namespace rcr::core {

struct IncrStudyConfig {
  synth::Wave wave = synth::Wave::k2024;
  std::size_t respondents = 100000;
  std::uint64_t seed = 7;
  // When non-empty, rows stream from this rcr::data snapshot in
  // page-granular blocks (data::for_each_snapshot_block) instead of being
  // synthesized; wave/respondents/seed/nonresponse and block_rows are
  // ignored (the writer's page_rows fixes the block grain).
  std::string snapshot_path;
  // Rows per generated block (the cut grain for synthetic streams).
  std::size_t block_rows = 8192;
  rcr::parallel::ThreadPool* pool = nullptr;
  // Nonresponse bias in [0, 1); forwarded to the generator.
  double nonresponse_strength = 0.0;
};

// The live study: Study's eleven standard aggregates advancing block by
// block. Construction registers the queries; each ingested block costs
// O(block rows); aggregates() rebuilds lazily from the partials (O(cells),
// no row work).
class IncrStudy {
 public:
  // `cut` is valid only during the callback; `rows` counts all rows
  // ingested so far (the cut covers exactly those rows).
  using CutCallback =
      std::function<void(const WaveAggregates& cut, std::size_t rows)>;

  explicit IncrStudy(IncrStudyConfig config = {});

  // Drives the configured stream (snapshot when snapshot_path is set,
  // synthetic otherwise) to completion, invoking `on_cut` (if given) after
  // every block. Returns total rows ingested. Call at most once; ingest()
  // may continue feeding afterwards.
  std::size_t run(const CutCallback& on_cut = {});

  // Manual feed: folds one block (instrument schema) into the aggregates.
  void ingest(const data::Table& block);

  // The aggregates at the current cut — bitwise-equal to a cold fused
  // QueryEngine run (Study::aggregates) over every ingested row.
  const WaveAggregates& aggregates();

  std::size_t rows() const { return engine_.row_count(); }
  std::size_t blocks() const { return blocks_; }

 private:
  IncrStudyConfig config_;
  data::Table schema_;  // the instrument's columns, no rows: engine_'s table
  query::QueryEngine engine_;
  WaveAggregates current_;
  std::size_t blocks_ = 0;
  std::size_t built_at_rows_ = 0;
  bool built_ = false;
};

}  // namespace rcr::core
