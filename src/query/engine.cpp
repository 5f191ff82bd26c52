#include "query/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/algorithms.hpp"
#include "util/error.hpp"

namespace rcr::query {

namespace {

struct EngineMetrics {
  obs::Counter& runs = obs::registry().counter("query.runs");
  obs::Counter& queries = obs::registry().counter("query.queries");
  obs::Counter& rows = obs::registry().counter("query.rows");
  obs::Counter& fused_scans = obs::registry().counter("query.scan.fused");
  obs::Counter& naive_equivalent =
      obs::registry().counter("query.scan.naive_equivalent");
  obs::Histogram& run_ms = obs::registry().histogram("query.run.ms");
  obs::Histogram& merge_ms = obs::registry().histogram("query.merge.ms");
  obs::Counter& appends = obs::registry().counter("incr.appends");
  obs::Counter& append_rows = obs::registry().counter("incr.rows");
  obs::Counter& shards_completed =
      obs::registry().counter("incr.shards.completed");
  obs::Histogram& append_ms = obs::registry().histogram("incr.append.ms");
};

EngineMetrics& metrics() {
  static EngineMetrics m;
  return m;
}

}  // namespace

QueryEngine::QueryEngine(const data::Table& table)
    : table_(&table), schema_(table.clone_empty()) {}

const data::Table& QueryEngine::open_schema() const {
  RCR_CHECK_MSG(!ran(),
                "cannot register queries after the first run() or append()");
  return schema_;
}

QueryId QueryEngine::push_spec(QuerySpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

QueryId QueryEngine::add_crosstab(
    const std::string& row_column, const std::string& col_column,
    const std::optional<std::string>& weight_column) {
  const data::Table& schema = open_schema();
  const auto& rows = schema.categorical(row_column);
  const auto& cols = schema.categorical(col_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && cols.category_count() > 0,
                "crosstab needs non-empty category sets");
  if (weight_column) schema.numeric(*weight_column);  // validate name + kind
  return push_spec({SpecKind::kCrosstab, row_column, col_column, weight_column,
                    {}, {}, 0.95});
}

QueryId QueryEngine::add_crosstab_multiselect(
    const std::string& row_column, const std::string& option_column,
    const std::optional<std::string>& weight_column) {
  const data::Table& schema = open_schema();
  const auto& rows = schema.categorical(row_column);
  const auto& opts = schema.multiselect(option_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && opts.option_count() > 0,
                "crosstab needs non-empty category/option sets");
  if (weight_column) schema.numeric(*weight_column);
  return push_spec({SpecKind::kCrosstabMultiselect, row_column, option_column,
                    weight_column, {}, {}, 0.95});
}

QueryId QueryEngine::add_category_shares(const std::string& column,
                                         double confidence) {
  open_schema().categorical(column);
  return push_spec(
      {SpecKind::kCategoryShares, column, {}, {}, {}, {}, confidence});
}

QueryId QueryEngine::add_option_shares(const std::string& option_column,
                                       double confidence) {
  open_schema().multiselect(option_column);
  return push_spec(
      {SpecKind::kOptionShares, option_column, {}, {}, {}, {}, confidence});
}

QueryId QueryEngine::add_weighted_option_share(
    const std::string& option_column, const std::string& option_label,
    std::span<const double> weights, double confidence) {
  const auto& col = open_schema().multiselect(option_column);
  RCR_CHECK_MSG(weights.size() == table_->row_count(),
                "weight vector does not match table rows");
  RCR_CHECK_MSG(col.find_option(option_label) >= 0,
                "unknown option '" + option_label + "'");
  return push_spec({SpecKind::kWeightedOptionShare, option_column, {}, {},
                    option_label, weights, confidence});
}

QueryId QueryEngine::add_numeric_summary(const std::string& column) {
  open_schema().numeric(column);
  return push_spec(
      {SpecKind::kNumericSummary, column, {}, {}, {}, {}, 0.95});
}

QueryId QueryEngine::add_group_answered(const std::string& group_column,
                                        const std::string& answered_column) {
  const data::Table& schema = open_schema();
  const auto& groups = schema.categorical(group_column);
  RCR_CHECK_MSG(groups.category_count() > 0,
                "group_answered needs a non-empty category set");
  schema.kind(answered_column);  // validates the column exists
  return push_spec({SpecKind::kGroupAnswered, group_column, answered_column,
                    {}, {}, {}, 0.95});
}

QueryEngine::Cut QueryEngine::empty_cut(const BatchPlan& plan) {
  Cut cut;
  cut.prefix.resize(plan.cell_count());
  plan.init_cells(cut.prefix);
  cut.tail = cut.prefix;
  return cut;
}

// The one segment walk. Row i of `plan`'s table is engine row
// cut.rows + i, so the rows split into segments — their intersections
// with the fixed-stride shards. Every segment scans into its own buffer
// (a head segment resumes from a copy of the open tail, the others start
// from identity); then, in shard index order, completed segments merge
// into the prefix and an incomplete last one becomes the tail. Scans
// touch only local buffers, so a throwing scan leaves `cut` as it was.
// Returns the number of shards completed.
std::size_t QueryEngine::fold(const BatchPlan& plan, std::size_t rows,
                              Cut& cut, parallel::ThreadPool* pool,
                              obs::Histogram* merge_ms) {
  if (rows == 0) return 0;
  const std::size_t begin = cut.rows;
  const std::size_t end = begin + rows;
  const std::size_t first = begin / kShardRows;
  const std::size_t segments = (end - 1) / kShardRows + 1 - first;

  std::vector<std::vector<double>> parts(segments);
  const auto scan_segment = [&](std::size_t s) {
    const std::size_t shard_lo = (first + s) * kShardRows;
    const std::size_t lo = std::max(shard_lo, begin);
    const std::size_t hi = std::min(shard_lo + kShardRows, end);
    std::vector<double>& part = parts[s];
    if (lo > shard_lo) {
      part = cut.tail;  // resumes the open shard mid-way
    } else {
      part.resize(plan.cell_count());
      plan.init_cells(part);
    }
    plan.scan(lo - begin, hi - begin, part);
  };
  if (pool != nullptr && segments > 1) {
    parallel::parallel_for(*pool, 0, segments,
                           [&](std::size_t s) { scan_segment(s); });
  } else {
    for (std::size_t s = 0; s < segments; ++s) scan_segment(s);
  }

  const std::size_t completed = segments - (end % kShardRows != 0 ? 1 : 0);
  {
    std::optional<obs::ScopedTimer> timer;
    if (merge_ms != nullptr) timer.emplace(*merge_ms);
    for (std::size_t s = 0; s < completed; ++s)
      plan.merge(cut.prefix, parts[s]);
  }
  if (completed < segments) {
    cut.tail = std::move(parts.back());
  } else {
    plan.init_cells(cut.tail);
  }
  cut.rows = end;
  return completed;
}

void QueryEngine::run(parallel::ThreadPool* pool) {
  RCR_CHECK_MSG(!ran(),
                "QueryEngine::run() may be called once, before any append()");
  obs::ScopedTimer run_timer(metrics().run_ms);
  const std::size_t n = table_->row_count();

  const BatchPlan plan(*table_, specs_);
  Cut cut = empty_cut(plan);
  fold(plan, n, cut, pool, &metrics().merge_ms);
  std::vector<double> cells = cut.prefix;
  plan.merge(cells, cut.tail);
  results_ = plan.build(cells);

  cut_ = std::move(cut);
  table_ = nullptr;

  metrics().runs.add(1);
  metrics().queries.add(specs_.size());
  metrics().rows.add(n);
  metrics().fused_scans.add(1);
  metrics().naive_equivalent.add(specs_.size());
}

void QueryEngine::check_block(const data::Table& block) const {
  RCR_CHECK_MSG(block.column_names() == schema_.column_names(),
                "block columns do not match the engine schema");
  for (const std::string& name : schema_.column_names()) {
    RCR_CHECK_MSG(block.kind(name) == schema_.kind(name),
                  "block column '" + name + "' has a different kind");
    switch (schema_.kind(name)) {
      case data::ColumnKind::kCategorical:
        RCR_CHECK_MSG(block.categorical(name).categories() ==
                          schema_.categorical(name).categories(),
                      "block column '" + name +
                          "' has a different category set");
        break;
      case data::ColumnKind::kMultiSelect:
        RCR_CHECK_MSG(block.multiselect(name).options() ==
                          schema_.multiselect(name).options(),
                      "block column '" + name + "' has a different option set");
        break;
      case data::ColumnKind::kNumeric:
        break;
    }
  }
}

void QueryEngine::append(const data::Table& block,
                         parallel::ThreadPool* pool) {
  obs::ScopedTimer append_timer(metrics().append_ms);
  for (const QuerySpec& spec : specs_)
    RCR_CHECK_MSG(spec.kind != SpecKind::kWeightedOptionShare,
                  "weighted option shares take an external per-row weight "
                  "span and cannot be appended to; use run()");
  check_block(block);

  // The block gets its own plan (its spans point at the block's storage);
  // the schema check above guarantees its cell layout is the engine's, so
  // its partials merge straight into the cut.
  const BatchPlan bplan(block, specs_);
  std::unique_ptr<BatchPlan> plan =
      plan_ ? nullptr : std::make_unique<BatchPlan>(schema_, specs_);
  Cut next = ran() ? cut_ : empty_cut(bplan);
  std::size_t completed = 0;
  if (!ran()) {
    completed += fold(BatchPlan(*table_, specs_), table_->row_count(), next,
                      pool, nullptr);
  }
  completed += fold(bplan, block.row_count(), next, pool, nullptr);

  // Every scan succeeded: commit.
  metrics().appends.add(1);
  metrics().append_rows.add(next.rows - cut_.rows);
  metrics().shards_completed.add(completed);
  cut_ = std::move(next);
  if (plan) plan_ = std::move(plan);
  table_ = nullptr;
  stale_ = true;
}

SpecKind QueryEngine::kind_of(QueryId id) const {
  RCR_CHECK_MSG(id < specs_.size(), "unknown query id");
  return specs_[id].kind;
}

const QueryResult& QueryEngine::raw_result(QueryId id) const {
  RCR_CHECK_MSG(ran(), "QueryEngine has no results before run() or append()");
  RCR_CHECK_MSG(id < specs_.size(), "unknown query id");
  if (stale_) {
    std::vector<double> cells = cut_.prefix;
    plan_->merge(cells, cut_.tail);
    results_ = plan_->build(cells);
    stale_ = false;
  }
  return results_[id];
}

const QueryResult& QueryEngine::result_of(QueryId id, SpecKind kind,
                                          SpecKind alt) const {
  const SpecKind actual = kind_of(id);
  RCR_CHECK_MSG(actual == kind || actual == alt,
                "query id refers to another kind");
  return raw_result(id);
}

const data::LabeledCrosstab& QueryEngine::crosstab(QueryId id) const {
  return result_of(id, SpecKind::kCrosstab, SpecKind::kCrosstabMultiselect)
      .crosstab;
}

const std::vector<data::OptionShare>& QueryEngine::shares(QueryId id) const {
  return result_of(id, SpecKind::kCategoryShares, SpecKind::kOptionShares)
      .shares;
}

const data::OptionShare& QueryEngine::weighted_share(QueryId id) const {
  return result_of(id, SpecKind::kWeightedOptionShare,
                   SpecKind::kWeightedOptionShare)
      .weighted;
}

const NumericSummary& QueryEngine::numeric(QueryId id) const {
  return result_of(id, SpecKind::kNumericSummary, SpecKind::kNumericSummary)
      .numeric;
}

const std::vector<double>& QueryEngine::group_answered(QueryId id) const {
  return result_of(id, SpecKind::kGroupAnswered, SpecKind::kGroupAnswered)
      .group_counts;
}

}  // namespace rcr::query
