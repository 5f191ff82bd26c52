// The query engine's partial-aggregation layer.
//
// A batch of registered queries compiles into a BatchPlan: one flat vector
// of accumulator cells (every query owns a contiguous slice) plus the fused
// per-row kernels that fold rows into those cells. The plan factors a fold
// into four steps —
//
//   BatchPlan plan(table, specs);
//   std::vector<double> cells(plan.cell_count());
//   plan.init_cells(cells);            // identity: 0 for sums, ±inf min/max
//   plan.scan(lo, hi, cells);          // fold rows [lo, hi) INTO cells
//   plan.merge(into, part);            // cell-wise combine, caller-ordered
//   auto results = plan.build(cells);  // typed results + CIs from raw cells
//
// and QueryEngine's segment walk (query/engine.hpp) owns the schedule: it
// keeps a prefix of merged shard partials plus an open tail, which run()
// starts and append() extends block by block.
//
// Resumability contract: scan() ACCUMULATES — calling
//   scan(a, b, cells); scan(b, c, cells);
// executes the exact per-row instruction sequence of scan(a, c, cells), so
// splitting a shard across calls cannot change a single bit. The kernels
// preserve this by construction: counts tally as integers and fold in once
// per call (exact in double below 2^53 under any split), weighted kernels
// add per row into the live cells, and min/max are order-preserving folds
// from the ±inf identity.
//
// Shard layout: the engine shards rows at the fixed kShardRows stride —
// shard k covers [k·kShardRows, min(n, (k+1)·kShardRows)). Unlike a layout
// derived from the total row count, appending rows only ever extends the
// ragged tail shard; all completed shard boundaries are append-invariant,
// which is what lets appended partials match a cold run bitwise.
//
// Two plans over tables with identical schemas (same column names, kinds,
// category/option label vectors, in order) lay out identical cells, so a
// partial scanned from a delta block merges directly into an accumulator
// built against the base table.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"

namespace rcr::query {

// Fixed shard stride (rows) for partial-merge layouts. Tables at or below
// this row count run as one shard, which reproduces the serial builders'
// left-to-right association bit-for-bit, weights included.
inline constexpr std::size_t kShardRows = 4096;

// Index of a registered query within its batch (registration order).
using QueryId = std::size_t;

// The query shapes the fused scan answers.
enum class SpecKind {
  kCrosstab,
  kCrosstabMultiselect,
  kCategoryShares,
  kOptionShares,
  kWeightedOptionShare,
  kNumericSummary,
  kGroupAnswered,
};

// A registered query. Field meanings follow QueryEngine's add_* methods;
// `ext_weights` (weighted option shares only) must outlive the plan.
struct QuerySpec {
  SpecKind kind;
  std::string a;                      // primary column
  std::string b;                      // secondary column (crosstabs, denominators)
  std::optional<std::string> weight;  // weight column (crosstabs)
  std::string option_label;           // weighted option share
  std::span<const double> ext_weights;
  double confidence = 0.95;
};

// One-pass summary of a numeric column (missing = NaN rows are skipped).
struct NumericSummary {
  double count = 0.0;  // non-missing rows (integer-valued)
  double sum = 0.0;
  double min = 0.0;    // NaN when count == 0
  double max = 0.0;    // NaN when count == 0

  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};

// The typed result of one query; which member is populated depends on the
// spec's kind (crosstab serves both crosstab kinds).
struct QueryResult {
  data::LabeledCrosstab crosstab;
  std::vector<data::OptionShare> shares;
  data::OptionShare weighted;
  NumericSummary numeric;
  std::vector<double> group_counts;
};

// How one accumulator cell combines across partials.
enum class CellOp : std::uint8_t { kSum, kMin, kMax };

// A compiled batch: specs resolved to raw column spans and slices of one
// flat accumulator. The table and every spec's ext_weights must outlive the
// plan; the specs themselves are copied.
class BatchPlan {
 public:
  BatchPlan(const data::Table& table, std::span<const QuerySpec> specs);

  std::size_t cell_count() const { return total_cells_; }
  std::size_t query_count() const { return specs_.size(); }

  // Writes the merge identity: 0 for sum cells, +inf/-inf for min/max.
  void init_cells(std::span<double> cells) const;

  // Folds rows [lo, hi) into `cells` (must hold cell_count() values,
  // initialized via init_cells or holding a prior scan's state — see the
  // resumability contract above).
  void scan(std::size_t lo, std::size_t hi, std::span<double> cells) const;

  // Cell-wise combine of `part` into `into`. Callers order merges by shard
  // index to keep fractional weighted sums reproducible.
  void merge(std::span<double> into, std::span<const double> part) const;

  // Typed results from fully-merged cells. Labels come from the plan's
  // table; share kinds throw when a query saw no answered rows.
  std::vector<QueryResult> build(std::span<const double> cells) const;

 private:
  // A spec resolved to raw spans and its accumulator slice. Resolution
  // happens once at plan build — zero per-row name or map lookups after.
  struct Resolved {
    SpecKind kind = SpecKind::kCrosstab;
    std::span<const std::int32_t> codes_a;    // categorical primary
    std::span<const std::int32_t> codes_b;    // categorical secondary
    std::span<const std::uint64_t> masks;     // multi-select masks
    std::span<const std::uint8_t> ms_missing; // multi-select missing flags
    std::span<const double> values;           // numeric values / ext weights
    std::span<const double> weights;          // hoisted weight column (may be empty)
    std::span<const double> b_values;         // numeric answered column
    std::span<const std::uint8_t> b_ms_missing;
    data::ColumnKind b_kind = data::ColumnKind::kNumeric;
    std::uint64_t option_bit = 0;             // weighted option share
    std::size_t base = 0;                     // offset into the flat accumulator
    std::size_t cells = 0;
    std::size_t cols_dim = 0;                 // crosstab column count
  };

  const data::Table& table_;
  std::vector<QuerySpec> specs_;
  std::vector<Resolved> plan_;
  std::vector<CellOp> ops_;
  std::size_t total_cells_ = 0;
};

}  // namespace rcr::query
