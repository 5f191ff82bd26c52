#include "data/table.hpp"

#include <algorithm>

namespace rcr::data {

Table::Table(const Table& other) { *this = other; }

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  columns_.clear();
  order_ = other.order_;
  columns_.reserve(other.columns_.size());
  for (const auto& c : other.columns_)
    columns_.push_back(std::make_unique<NamedColumn>(*c));
  return *this;
}

NumericColumn& Table::add_numeric(const std::string& name) {
  RCR_CHECK_MSG(!has_column(name), "duplicate column '" + name + "'");
  columns_.push_back(
      std::make_unique<NamedColumn>(NamedColumn{name, NumericColumn{}}));
  order_.push_back(name);
  return std::get<NumericColumn>(columns_.back()->column);
}

CategoricalColumn& Table::add_categorical(
    const std::string& name, std::vector<std::string> categories) {
  RCR_CHECK_MSG(!has_column(name), "duplicate column '" + name + "'");
  if (categories.empty()) {
    columns_.push_back(
        std::make_unique<NamedColumn>(NamedColumn{name, CategoricalColumn{}}));
  } else {
    columns_.push_back(std::make_unique<NamedColumn>(
        NamedColumn{name, CategoricalColumn{std::move(categories)}}));
  }
  order_.push_back(name);
  return std::get<CategoricalColumn>(columns_.back()->column);
}

MultiSelectColumn& Table::add_multiselect(const std::string& name,
                                          std::vector<std::string> options) {
  RCR_CHECK_MSG(!has_column(name), "duplicate column '" + name + "'");
  columns_.push_back(std::make_unique<NamedColumn>(
      NamedColumn{name, MultiSelectColumn{std::move(options)}}));
  order_.push_back(name);
  return std::get<MultiSelectColumn>(columns_.back()->column);
}

std::size_t Table::row_count() const {
  if (columns_.empty()) return 0;
  return std::visit([](const auto& c) { return c.size(); },
                    columns_.front()->column);
}

bool Table::has_column(const std::string& name) const {
  return std::any_of(
      columns_.begin(), columns_.end(),
      [&](const auto& c) { return c->name == name; });
}

ColumnKind Table::kind(const std::string& name) const {
  const auto& c = find(name).column;
  if (std::holds_alternative<NumericColumn>(c)) return ColumnKind::kNumeric;
  if (std::holds_alternative<CategoricalColumn>(c))
    return ColumnKind::kCategorical;
  return ColumnKind::kMultiSelect;
}

Table::NamedColumn& Table::find(const std::string& name) {
  for (auto& c : columns_)
    if (c->name == name) return *c;
  throw InvalidInputError("no such column '" + name + "'");
}

const Table::NamedColumn& Table::find(const std::string& name) const {
  for (const auto& c : columns_)
    if (c->name == name) return *c;
  throw InvalidInputError("no such column '" + name + "'");
}

NumericColumn& Table::numeric(const std::string& name) {
  auto* col = std::get_if<NumericColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not numeric");
  return *col;
}

const NumericColumn& Table::numeric(const std::string& name) const {
  const auto* col = std::get_if<NumericColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not numeric");
  return *col;
}

CategoricalColumn& Table::categorical(const std::string& name) {
  auto* col = std::get_if<CategoricalColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not categorical");
  return *col;
}

const CategoricalColumn& Table::categorical(const std::string& name) const {
  const auto* col = std::get_if<CategoricalColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not categorical");
  return *col;
}

MultiSelectColumn& Table::multiselect(const std::string& name) {
  auto* col = std::get_if<MultiSelectColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not multi-select");
  return *col;
}

const MultiSelectColumn& Table::multiselect(const std::string& name) const {
  const auto* col = std::get_if<MultiSelectColumn>(&find(name).column);
  RCR_CHECK_MSG(col, "column '" + name + "' is not multi-select");
  return *col;
}

void Table::validate_rectangular() const {
  const std::size_t n = row_count();
  for (const auto& cp : columns_) {
    const auto& c = *cp;
    const std::size_t size =
        std::visit([](const auto& col) { return col.size(); }, c.column);
    RCR_CHECK_MSG(size == n, "column '" + c.name + "' has " +
                                 std::to_string(size) + " rows, expected " +
                                 std::to_string(n));
  }
}

void Table::append_rows(const Table& other) {
  validate_rectangular();
  other.validate_rectangular();
  RCR_CHECK_MSG(order_ == other.order_, "append_rows: column sets differ");
  for (const auto& name : order_) {
    RCR_CHECK_MSG(kind(name) == other.kind(name),
                  "append_rows: column '" + name + "' kind differs");
    switch (kind(name)) {
      case ColumnKind::kNumeric: {
        // Bulk copies: per-element push would re-validate invariants the
        // source column already established.
        numeric(name).append_column(other.numeric(name));
        break;
      }
      case ColumnKind::kCategorical: {
        auto& dst = categorical(name);
        const auto& src = other.categorical(name);
        RCR_CHECK_MSG(dst.categories() == src.categories(),
                      "append_rows: categories of '" + name + "' differ");
        dst.append_codes(src);
        break;
      }
      case ColumnKind::kMultiSelect: {
        auto& dst = multiselect(name);
        const auto& src = other.multiselect(name);
        RCR_CHECK_MSG(dst.options() == src.options(),
                      "append_rows: options of '" + name + "' differ");
        dst.append_column(src);
        break;
      }
    }
  }
}

Table Table::slice(std::size_t lo, std::size_t hi) const {
  RCR_CHECK_MSG(lo <= hi && hi <= row_count(), "slice range out of bounds");
  Table out = clone_empty();
  for (const auto& cp : columns_) {
    const auto& c = *cp;
    if (const auto* num = std::get_if<NumericColumn>(&c.column)) {
      out.numeric(c.name).append_range(*num, lo, hi);
    } else if (const auto* cat = std::get_if<CategoricalColumn>(&c.column)) {
      out.categorical(c.name).append_range(*cat, lo, hi);
    } else {
      out.multiselect(c.name).append_range(
          std::get<MultiSelectColumn>(c.column), lo, hi);
    }
  }
  return out;
}

Table Table::clone_empty() const {
  Table out;
  // Recreate the schema so category codes stay aligned with this table.
  for (const auto& cp : columns_) {
    const auto& c = *cp;
    if (std::holds_alternative<NumericColumn>(c.column)) {
      out.add_numeric(c.name);
    } else if (const auto* cat = std::get_if<CategoricalColumn>(&c.column)) {
      auto& col = out.add_categorical(c.name, cat->categories());
      if (!cat->frozen() && !cat->categories().empty()) {
        // add_categorical freezes any non-empty set; mirror the source.
        col = CategoricalColumn{};
        for (const auto& label : cat->categories()) col.push(label);
        col.clear();
      }
    } else {
      const auto& ms = std::get<MultiSelectColumn>(c.column);
      out.add_multiselect(c.name, ms.options());
    }
  }
  return out;
}

std::vector<std::vector<std::size_t>> Table::group_rows(
    const std::string& categorical_column) const {
  const auto& col = categorical(categorical_column);
  std::vector<std::vector<std::size_t>> groups(col.category_count());
  for (std::size_t i = 0; i < col.size(); ++i) {
    if (col.is_missing(i)) continue;
    groups[static_cast<std::size_t>(col.code_at(i))].push_back(i);
  }
  return groups;
}

}  // namespace rcr::data
