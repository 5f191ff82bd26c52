#include "query_reference.hpp"

#include "stats/ci.hpp"
#include "util/error.hpp"

namespace rcr::query::reference {

namespace {

// Weight of one row: 1.0 unweighted, else the weight cell (missing -> skip,
// signalled by returning a negative value). Note the per-row name lookup —
// this is exactly the cost the engine's hoisted spans remove.
double row_weight(const data::Table& table,
                  const std::optional<std::string>& weight_column,
                  std::size_t row) {
  if (!weight_column) return 1.0;
  const double w = table.numeric(*weight_column).at(row);
  if (data::NumericColumn::is_missing(w)) return -1.0;
  RCR_CHECK_MSG(w >= 0.0, "weights must be non-negative");
  return w;
}

}  // namespace

data::LabeledCrosstab crosstab(
    const data::Table& table, const std::string& row_column,
    const std::string& col_column,
    const std::optional<std::string>& weight_column) {
  const auto& rows = table.categorical(row_column);
  const auto& cols = table.categorical(col_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && cols.category_count() > 0,
                "crosstab needs non-empty category sets");

  data::LabeledCrosstab out;
  out.row_labels = rows.categories();
  out.col_labels = cols.categories();
  out.counts = stats::Contingency(rows.category_count(), cols.category_count());

  table.validate_rectangular();
  for (std::size_t i = 0; i < table.row_count(); ++i) {
    if (rows.is_missing(i) || cols.is_missing(i)) continue;
    const double w = row_weight(table, weight_column, i);
    if (w < 0.0) continue;
    out.counts.add(static_cast<std::size_t>(rows.code_at(i)),
                   static_cast<std::size_t>(cols.code_at(i)), w);
  }
  return out;
}

data::LabeledCrosstab crosstab_multiselect(
    const data::Table& table, const std::string& row_column,
    const std::string& option_column,
    const std::optional<std::string>& weight_column) {
  const auto& rows = table.categorical(row_column);
  const auto& opts = table.multiselect(option_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && opts.option_count() > 0,
                "crosstab needs non-empty category/option sets");

  data::LabeledCrosstab out;
  out.row_labels = rows.categories();
  out.col_labels = opts.options();
  out.counts = stats::Contingency(rows.category_count(), opts.option_count());

  table.validate_rectangular();
  for (std::size_t i = 0; i < table.row_count(); ++i) {
    if (rows.is_missing(i) || opts.is_missing(i)) continue;
    const double w = row_weight(table, weight_column, i);
    if (w < 0.0) continue;
    for (std::size_t o = 0; o < opts.option_count(); ++o) {
      if (opts.has(i, o))
        out.counts.add(static_cast<std::size_t>(rows.code_at(i)), o, w);
    }
  }
  return out;
}

std::vector<data::OptionShare> option_shares(const data::Table& table,
                                             const std::string& option_column,
                                             double confidence) {
  const auto& col = table.multiselect(option_column);
  double total = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i)
    if (!col.is_missing(i)) total += 1.0;
  RCR_CHECK_MSG(total > 0.0, "option_shares: no answered rows");

  std::vector<data::OptionShare> out;
  const auto counts = col.option_counts();
  out.reserve(counts.size());
  for (std::size_t o = 0; o < counts.size(); ++o) {
    data::OptionShare share;
    share.label = col.option(o);
    share.count = counts[o];
    share.total = total;
    share.share = stats::wilson_ci(counts[o], total, confidence);
    out.push_back(std::move(share));
  }
  return out;
}

data::OptionShare weighted_option_share(const data::Table& table,
                                        const std::string& option_column,
                                        const std::string& option_label,
                                        std::span<const double> weights,
                                        double confidence) {
  const auto& col = table.multiselect(option_column);
  RCR_CHECK_MSG(weights.size() == col.size(),
                "weight vector does not match table rows");
  const std::int32_t o = col.find_option(option_label);
  RCR_CHECK_MSG(o >= 0, "unknown option '" + option_label + "'");
  double wnum = 0.0, wden = 0.0, wden2 = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    if (col.is_missing(i)) continue;
    RCR_CHECK_MSG(weights[i] >= 0.0, "weights must be non-negative");
    wden += weights[i];
    wden2 += weights[i] * weights[i];
    if (col.has(i, static_cast<std::size_t>(o))) wnum += weights[i];
  }
  RCR_CHECK_MSG(wden > 0.0, "no answered rows with positive weight");
  data::OptionShare share;
  share.label = option_label;
  share.count = wnum;
  share.total = wden;
  const double effective_n = wden * wden / wden2;
  share.share =
      stats::weighted_proportion_ci(wnum, wden, effective_n, confidence);
  return share;
}

std::vector<data::OptionShare> category_shares(const data::Table& table,
                                               const std::string& column,
                                               double confidence) {
  const auto& col = table.categorical(column);
  double total = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i)
    if (!col.is_missing(i)) total += 1.0;
  RCR_CHECK_MSG(total > 0.0, "category_shares: no answered rows");

  std::vector<data::OptionShare> out;
  const auto counts = col.counts();
  out.reserve(counts.size());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    data::OptionShare share;
    share.label = col.category(c);
    share.count = counts[c];
    share.total = total;
    share.share = stats::wilson_ci(counts[c], total, confidence);
    out.push_back(std::move(share));
  }
  return out;
}

}  // namespace rcr::query::reference
