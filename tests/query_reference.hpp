// The pre-engine serial crosstab/share builders, kept verbatim: one full
// table scan per query, the weight column re-resolved by name on every row
// (Table::find is a linear name scan), and multi-select cells filled by
// probing every option per row. They exist for two reasons:
//   * tests/query_test.cpp and bench/bench_m2_stream.cpp use them as the
//     equivalence oracle — the fused engine must reproduce them bitwise on
//     single-shard tables, and its appended crosstabs exactly at any size;
//   * bench/micro_query.cpp times them as the naive sequential baseline the
//     fused scan is measured against.
// Production callers batch into a query::QueryEngine.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"

namespace rcr::query::reference {

data::LabeledCrosstab crosstab(
    const data::Table& table, const std::string& row_column,
    const std::string& col_column,
    const std::optional<std::string>& weight_column = {});

data::LabeledCrosstab crosstab_multiselect(
    const data::Table& table, const std::string& row_column,
    const std::string& option_column,
    const std::optional<std::string>& weight_column = {});

std::vector<data::OptionShare> option_shares(const data::Table& table,
                                             const std::string& option_column,
                                             double confidence = 0.95);

data::OptionShare weighted_option_share(const data::Table& table,
                                        const std::string& option_column,
                                        const std::string& option_label,
                                        std::span<const double> weights,
                                        double confidence = 0.95);

std::vector<data::OptionShare> category_shares(const data::Table& table,
                                               const std::string& column,
                                               double confidence = 0.95);

}  // namespace rcr::query::reference
