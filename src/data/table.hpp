// A small columnar table: the in-memory form of one survey wave.
//
// Columns are stored by name in insertion order. All mutation goes through
// append-style builders; analysis functions never modify a table, they
// produce new ones (slice) or read-only views (spans).
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "data/column.hpp"

namespace rcr::data {

class Table {
 public:
  Table() = default;
  // A copy shares row storage with the original (data/page_vec.hpp), so it
  // costs O(columns). Appending to either extends that storage in place
  // when it can and never changes the other's rows.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;
  ~Table() = default;

  // --- schema construction -------------------------------------------------
  NumericColumn& add_numeric(const std::string& name);
  CategoricalColumn& add_categorical(const std::string& name,
                                     std::vector<std::string> categories = {});
  MultiSelectColumn& add_multiselect(const std::string& name,
                                     std::vector<std::string> options);

  // --- access ---------------------------------------------------------------
  std::size_t column_count() const { return order_.size(); }
  std::size_t row_count() const;
  bool has_column(const std::string& name) const;
  ColumnKind kind(const std::string& name) const;
  const std::vector<std::string>& column_names() const { return order_; }

  NumericColumn& numeric(const std::string& name);
  const NumericColumn& numeric(const std::string& name) const;
  CategoricalColumn& categorical(const std::string& name);
  const CategoricalColumn& categorical(const std::string& name) const;
  MultiSelectColumn& multiselect(const std::string& name);
  const MultiSelectColumn& multiselect(const std::string& name) const;

  // Checks that every column has the same number of rows.
  void validate_rectangular() const;

  // A table with the same schema (column names, kinds, category/option
  // sets, frozen state) and zero rows — the starting point for CSV ingest
  // and the schema copy the query engine and sketches keep.
  Table clone_empty() const;

  // Appends all rows of `other`, whose schema (column names, kinds, and
  // category/option sets) must match exactly. Used to pool waves and to
  // grow a table by appended blocks.
  void append_rows(const Table& other);

  // Rows [lo, hi) copied into a new table with this table's exact schema
  // (dictionaries shared code-for-code).
  Table slice(std::size_t lo, std::size_t hi) const;

  // --- relational operations -------------------------------------------------
  // Row indices grouped by the code of a categorical column; missing rows
  // are dropped. Group g corresponds to category code g.
  std::vector<std::vector<std::size_t>> group_rows(
      const std::string& categorical_column) const;

 private:
  struct NamedColumn {
    std::string name;
    std::variant<NumericColumn, CategoricalColumn, MultiSelectColumn> column;
  };

  NamedColumn& find(const std::string& name);
  const NamedColumn& find(const std::string& name) const;

  // unique_ptr keeps column addresses stable, so references returned by
  // add_* remain valid as further columns are added.
  std::vector<std::unique_ptr<NamedColumn>> columns_;
  std::vector<std::string> order_;
};

}  // namespace rcr::data
