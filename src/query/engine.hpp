// Fused aggregation engine: one sharded scan answers a whole batch of
// table queries, and appended blocks extend every answer in O(block rows).
//
// Every reproduced table/figure asks the same shapes of question — crosstab
// two columns, share of each multi-select option, weighted share of one
// option, summarize a numeric column — and a per-query builder would answer
// each with its own serial full-table scan (tests/query_reference.hpp keeps
// those builders as the oracle). QueryEngine instead lets a caller register
// the whole batch up front and executes it in ONE pass:
//
//   query::QueryEngine engine(table);
//   const auto ct = engine.add_crosstab("field", "career_stage");
//   const auto ls = engine.add_option_shares("languages");
//   engine.run(pool);                     // one sharded scan, all queries
//   engine.crosstab(ct); engine.shares(ls);
//   engine.append(delta, pool);           // scans ONLY delta's rows
//   engine.crosstab(ct);                  // == run() over table + delta
//
// Execution model. Rows shard at the fixed kShardRows stride (shard k is
// [k·kShardRows, min(n, (k+1)·kShardRows)) — a pure function of the row
// index, never of the row count or the pool), and each shard accumulates
// every query's cells into one flat partial vector while the shard's rows
// are cache-resident. Because the stride is append-invariant (new rows
// only ever extend the ragged last shard), the engine keeps two
// accumulators — `prefix`, the in-order merge of every completed shard's
// partial, and `tail`, the open shard's partial so far — and every fold is
// one segment walk: the new rows' segments scan into their own buffers, on
// the pool when there are two or more (a head segment resumes the open
// shard, as BatchPlan::scan is resumable mid-shard), completed ones merge
// into the prefix in index order, and the remainder opens the new tail.
// Results are built from prefix merged with tail. run() is the first fold
// and append() every later one, so a cold run and an incremental cut agree
// bit for bit by construction — run-to-run, across thread counts (the
// serial pool == nullptr path walks the same segments), and across block
// partitions.
// Tables at or below kShardRows run as a single shard, which makes every
// query — including arbitrarily-weighted sums — carry exactly the serial
// builders' left-to-right association; above that, count-style
// accumulators stay exact (integer counts are associative in double below
// 2^53) while fractional weighted sums reassociate at shard boundaries,
// deterministically.
//
// Contract:
//   * The engine's rows are the constructor table's followed by every
//     appended block. The first fold — run(), or else the first append() —
//     reads the constructor table, which must live until then; the engine
//     keeps its own empty copy of the schema, never the table's rows.
//   * Registration closes at the first fold. run() may be called once,
//     before any append().
//   * Appended blocks must carry the constructor table's schema: same
//     columns in order, same kinds, same category/option label vectors.
//   * A fold that throws (a negative weight, a mismatched block) leaves the
//     engine as it was.
//   * append() refuses an engine holding a weighted option share: its
//     caller-owned weight span covers the constructor table's rows only.
//   * run() builds the results at once and throws the builders' error when
//     a share query saw no answered rows. After append() the results
//     rebuild on the next read (O(cells)), which throws instead; that read
//     writes the engine, so it must not race another call.
//
// The plan/scan/merge/build kernels live in query/partials.hpp
// (BatchPlan); this class owns registration, validation, the segment walk
// and result storage.
//
// Instrumented through rcr::obs. run() reports query.runs / query.queries /
// query.rows, query.run.ms / query.merge.ms, and the fused-vs-naive scan
// counters query.scan.fused (sharded passes actually executed) vs
// query.scan.naive_equivalent (full-table scans the per-query builders
// would have made for the same batch). append() reports incr.appends /
// incr.rows / incr.shards.completed and incr.append.ms.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/partials.hpp"

namespace rcr::obs {
class Histogram;
}

namespace rcr::query {

class QueryEngine {
 public:
  explicit QueryEngine(const data::Table& table);
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // --- Registration (validates columns; same errors, same messages, as the
  // --- serial reference builders). Returns the id to fetch the result with.
  QueryId add_crosstab(const std::string& row_column,
                       const std::string& col_column,
                       const std::optional<std::string>& weight_column = {});
  QueryId add_crosstab_multiselect(
      const std::string& row_column, const std::string& option_column,
      const std::optional<std::string>& weight_column = {});
  QueryId add_category_shares(const std::string& column,
                              double confidence = 0.95);
  QueryId add_option_shares(const std::string& option_column,
                            double confidence = 0.95);
  // `weights` must outlive run(); one entry per constructor-table row.
  QueryId add_weighted_option_share(const std::string& option_column,
                                    const std::string& option_label,
                                    std::span<const double> weights,
                                    double confidence = 0.95);
  QueryId add_numeric_summary(const std::string& column);
  // Rows per category of `group_column` that answered `answered_column`
  // (any column kind) — the denominator the per-field share tables need.
  QueryId add_group_answered(const std::string& group_column,
                             const std::string& answered_column);

  // Folds the constructor table's rows into every registered query in one
  // sharded pass. pool == nullptr walks the same shard layout serially
  // (bitwise-identical results).
  void run(parallel::ThreadPool* pool = nullptr);

  // Folds `block`'s rows after every row folded so far, in O(block rows).
  // An engine that has not run yet folds its constructor table first.
  void append(const data::Table& block, parallel::ThreadPool* pool = nullptr);

  // True once run() or append() has folded rows (results are readable).
  bool ran() const { return table_ == nullptr; }
  std::size_t row_count() const { return cut_.rows; }
  std::size_t query_count() const { return specs_.size(); }

  // --- Results (valid after a fold; checked against the query's kind).
  const data::LabeledCrosstab& crosstab(QueryId id) const;
  const std::vector<data::OptionShare>& shares(QueryId id) const;
  const data::OptionShare& weighted_share(QueryId id) const;
  const NumericSummary& numeric(QueryId id) const;
  const std::vector<double>& group_answered(QueryId id) const;
  // The untyped result record (all kinds) — what serve's encoders and the
  // equivalence tests compare.
  const QueryResult& raw_result(QueryId id) const;
  SpecKind kind_of(QueryId id) const;

 private:
  // What every fold extends: the in-order merge of every completed shard's
  // partial, the open shard's partial, and the rows folded into them.
  struct Cut {
    std::vector<double> prefix;
    std::vector<double> tail;
    std::size_t rows = 0;
  };

  const data::Table& open_schema() const;
  QueryId push_spec(QuerySpec spec);
  static Cut empty_cut(const BatchPlan& plan);
  static std::size_t fold(const BatchPlan& plan, std::size_t rows, Cut& cut,
                          parallel::ThreadPool* pool,
                          obs::Histogram* merge_ms);
  void check_block(const data::Table& block) const;
  const QueryResult& result_of(QueryId id, SpecKind kind,
                               SpecKind alt) const;

  const data::Table* table_;  // the constructor table, until the first fold
  data::Table schema_;        // its columns with zero rows
  std::vector<QuerySpec> specs_;
  std::unique_ptr<BatchPlan> plan_;  // on schema_, once append() has run
  Cut cut_;
  // Built by run(); after append() rebuilt from cut_ on the next read.
  mutable std::vector<QueryResult> results_;
  mutable bool stale_ = false;
};

}  // namespace rcr::query
