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
//                           key over `distinct_columns`
//   one numeric column   -> WeightedReservoir sample (optional)
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
#include <vector>

#include "data/table.hpp"
#include "stream/sketch.hpp"

namespace rcr::stream {

struct TableSketchOptions {
  double quantile_eps = 0.005;
  std::size_t cms_depth = 4;
  std::size_t cms_width = 2048;
  std::uint8_t hll_precision = 12;
  // Default sized above the survey's full (column, label) domain (~72
  // cells), so SpaceSaving stays exact on the standard instrument.
  std::size_t heavy_hitter_capacity = 128;
  std::size_t reservoir_capacity = 64;
  std::uint64_t seed = 0x5EED5EEDULL;
  // Columns forming the distinct-count key; empty = all schema columns.
  std::vector<std::string> distinct_columns;
  // Numeric column to reservoir-sample; empty disables the reservoir.
  std::string reservoir_column;
};

class TableSketch {
 public:
  explicit TableSketch(const data::Table& schema,
                       TableSketchOptions options = {});

  // Folds `block` in; `first_row` is the global stream index of its first
  // row. Blocks must arrive with disjoint index ranges (any order — the
  // sketches are mergeable — though in-order ingest keeps floating-point
  // accumulations identical to the single-stream build).
  void ingest(const data::Table& block, std::size_t first_row);

  // Folds a shard's sketch into this one. Options must match.
  void merge(const TableSketch& other);

  std::uint64_t rows() const { return rows_; }
  std::uint64_t blocks() const { return blocks_; }
  const TableSketchOptions& options() const { return options_; }
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
    GKQuantile quantile;
    NumericState() : quantile(0.01) {}
    explicit NumericState(double eps) : quantile(eps) {}
  };

  TableSketchOptions options_;
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
