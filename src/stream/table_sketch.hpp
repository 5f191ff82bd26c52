// TableSketch — every sketch in this subsystem wired to a data::Table
// schema, so a stream of table blocks is analyzed column-by-column in one
// pass with bounded memory:
//
//   numeric columns      -> Moments + GKQuantile
//   categorical and      -> one CountMinSketch + one SpaceSaving over
//   multi-select labels     "column\x1Flabel" keys (the approximate path
//                           exact per-label counts would take at larger
//                           domains)
//   whole rows           -> HyperLogLog distinct count of the composite
//                           key over every column
//   one numeric column   -> WeightedReservoir sample (optional)
//
// The constants below size every sketch; the one choice left to the caller
// is which numeric column, if any, the reservoir samples.
//
// Every sketch here is approximate or order-free; exact tables over the
// same stream come from query::QueryEngine::append (the streaming study,
// core/stream_study.hpp, feeds both from one block walk).
//
// ingest() takes the block plus the global index of its first row (the
// reservoir's shard-invariant priorities need it); merge() folds a shard's
// sketch in. Both are instrumented through rcr::obs: counters stream.rows /
// stream.blocks / stream.merges, histogram stream.merge.ms, and
// publish_metrics() exports sketch-size gauges.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "data/table.hpp"
#include "stream/sketch.hpp"

namespace rcr::stream {

class TableSketch {
 public:
  static constexpr double kQuantileEps = 0.005;
  static constexpr std::size_t kCmsDepth = 4;
  static constexpr std::size_t kCmsWidth = 2048;
  static constexpr std::uint8_t kHllPrecision = 12;
  // Above the survey's full (column, label) domain (~72 cells), so
  // SpaceSaving stays exact on the standard instrument.
  static constexpr std::size_t kHeavyHitterCapacity = 128;
  static constexpr std::size_t kReservoirCapacity = 64;
  static constexpr std::uint64_t kSketchSeed = 0x5EED5EEDULL;

  // `reservoir_column` names the numeric column to reservoir-sample; empty
  // disables the reservoir.
  explicit TableSketch(const data::Table& schema,
                       std::string reservoir_column = {});

  // Folds `block` in; `first_row` is the global stream index of its first
  // row. Blocks must arrive with disjoint index ranges (any order — the
  // sketches are mergeable — though in-order ingest keeps floating-point
  // accumulations identical to the single-stream build).
  void ingest(const data::Table& block, std::size_t first_row);

  // Folds a shard's sketch into this one. Options must match.
  void merge(const TableSketch& other);

  std::uint64_t rows() const { return rows_; }
  std::uint64_t blocks() const { return blocks_; }
  const std::string& reservoir_column() const { return reservoir_column_; }
  const data::Table& schema() const { return schema_; }

  const Moments& moments(const std::string& column) const;
  const GKQuantile& quantile_sketch(const std::string& column) const;
  const CountMinSketch& label_cms() const { return label_cms_; }
  const SpaceSaving& heavy_hitters() const { return heavy_hitters_; }
  const HyperLogLog& distinct() const { return distinct_; }
  const WeightedReservoir& reservoir() const;

  // The CMS key for a (column, label) cell — what label_cms()/heavy_hitters()
  // were fed, exposed so callers can query estimates for exact comparison.
  static std::string label_key(const std::string& column,
                               const std::string& label);

  // The composite distinct-count key of one row (what distinct() is fed).
  // Public so exact-reference validation can count true distincts the same
  // way the HLL saw them.
  std::uint64_t row_key(const data::Table& block, std::size_t row) const;

  std::size_t approx_bytes() const;
  // Exports stream.sketch.bytes / stream.quantile.tuples gauges.
  void publish_metrics() const;

 private:
  struct NumericState {
    Moments moments;
    GKQuantile quantile{kQuantileEps};
  };

  std::string reservoir_column_;
  data::Table schema_;
  std::uint64_t rows_ = 0;
  std::uint64_t blocks_ = 0;
  // std::map: deterministic iteration order for merges and reports.
  std::map<std::string, NumericState> numeric_;
  // Label columns by kind, in name order: the order their keys feed
  // heavy_hitters_.
  std::set<std::string> categorical_;
  std::set<std::string> multiselect_;
  CountMinSketch label_cms_;
  SpaceSaving heavy_hitters_;
  HyperLogLog distinct_;
  WeightedReservoir reservoir_;
};

}  // namespace rcr::stream
