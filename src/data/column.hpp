// Typed columns for the survey data engine.
//
// Three column kinds cover everything the questionnaire produces:
//   * Numeric      — doubles, NaN marks a missing answer;
//   * Categorical  — dictionary-encoded single-choice answers;
//   * MultiSelect  — bitmask-encoded "check all that apply" answers
//                    (up to 64 options, ample for any survey question).
//
// Row storage is a PageVec: a heap buffer shared by a column's copies, or
// a memory-mapped snapshot page (data/snapshot.hpp), with copy-on-write
// semantics — every accessor and mutator below behaves identically in
// both.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/page_vec.hpp"
#include "util/error.hpp"

namespace rcr::data {

enum class ColumnKind { kNumeric, kCategorical, kMultiSelect };

inline constexpr std::int32_t kMissingCode = -1;

class NumericColumn {
 public:
  static double missing() { return std::numeric_limits<double>::quiet_NaN(); }
  static bool is_missing(double v) { return v != v; }

  void push(double v) { values_.push_back(v); }
  void push_missing() { values_.push_back(missing()); }

  // Overwrites an existing cell.
  void set(std::size_t i, double v) {
    RCR_DCHECK(i < values_.size());
    values_.set(i, v);
  }

  // Bulk append of another column's rows (shard-merge fast path).
  void append_column(const NumericColumn& other) {
    values_.append(other.values_);
  }
  // Bulk append of other's rows [lo, hi) (table slicing).
  void append_range(const NumericColumn& other, std::size_t lo,
                    std::size_t hi) {
    values_.append(other.values_, lo, hi);
  }

  // Replaces all rows with `values` — the snapshot reader's entry point for
  // columns that alias a mapped page.
  void adopt(PageVec<double> values) { values_ = std::move(values); }

  std::size_t size() const { return values_.size(); }
  double at(std::size_t i) const { return values_[i]; }
  const PageVec<double>& values() const { return values_; }

  // All present (non-NaN) values, in row order.
  std::vector<double> present_values() const;

 private:
  PageVec<double> values_;
};

// Dictionary-encoded categorical column. Category set may be fixed up front
// (schema-driven) or grown on demand (CSV ingestion).
class CategoricalColumn {
 public:
  CategoricalColumn() = default;
  explicit CategoricalColumn(std::vector<std::string> categories);

  // Appends a value, interning the label if allowed. Throws if the label is
  // unknown and the category set is frozen.
  void push(const std::string& label);
  void push_code(std::int32_t code);
  void push_missing() { codes_.push_back(kMissingCode); }

  // Drops all rows but keeps the category set (and frozen state).
  void clear() { codes_.clear(); }

  // Overwrites an existing cell with a valid code.
  void set_code(std::size_t i, std::int32_t code);

  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  // Bulk append of another column's rows. Callers must ensure the two
  // category sets are identical (codes are copied, not re-interned).
  void append_codes(const CategoricalColumn& other) {
    codes_.append(other.codes_);
  }
  void append_range(const CategoricalColumn& other, std::size_t lo,
                    std::size_t hi) {
    codes_.append(other.codes_, lo, hi);
  }

  // Replaces all rows with `codes`, which must already be valid against
  // this column's category set (the snapshot reader validates before
  // adopting).
  void adopt_codes(PageVec<std::int32_t> codes) { codes_ = std::move(codes); }

  std::size_t size() const { return codes_.size(); }
  std::int32_t code_at(std::size_t i) const { return codes_[i]; }
  bool is_missing(std::size_t i) const { return codes_[i] == kMissingCode; }
  // Raw code array (kMissingCode marks missing rows) for kernels that hoist
  // the per-row accessor out of their hot loop.
  const PageVec<std::int32_t>& codes() const { return codes_; }
  const std::string& label_at(std::size_t i) const;

  std::size_t category_count() const { return categories_.size(); }
  const std::string& category(std::size_t c) const { return categories_[c]; }
  const std::vector<std::string>& categories() const { return categories_; }

  // Returns the code for a label, or kMissingCode if absent.
  std::int32_t find_code(const std::string& label) const;

  // Count of rows holding each code (missing rows excluded).
  std::vector<double> counts() const;

 private:
  std::vector<std::string> categories_;
  PageVec<std::int32_t> codes_;
  bool frozen_ = false;
};

// "Check all that apply" column; each row is a bitmask over options.
class MultiSelectColumn {
 public:
  MultiSelectColumn() = default;
  explicit MultiSelectColumn(std::vector<std::string> options);

  static constexpr std::size_t kMaxOptions = 64;

  void push_mask(std::uint64_t mask);
  void push_labels(const std::vector<std::string>& labels);
  void push_missing();  // recorded as an all-zero mask with a missing flag

  // Overwrites an existing cell and clears its missing flag.
  void set_mask(std::size_t i, std::uint64_t mask);

  // Bulk append of another column's rows. Callers must ensure the two
  // option sets are identical (masks are copied, not revalidated).
  void append_column(const MultiSelectColumn& other) {
    masks_.append(other.masks_);
    missing_.append(other.missing_);
  }
  void append_range(const MultiSelectColumn& other, std::size_t lo,
                    std::size_t hi) {
    masks_.append(other.masks_, lo, hi);
    missing_.append(other.missing_, lo, hi);
  }

  // Replaces all rows with parallel mask/missing arrays, which must already
  // be valid against the option set (a missing row is an all-zero mask with
  // its flag set; the snapshot reader validates before adopting).
  void adopt_rows(PageVec<std::uint64_t> masks,
                  PageVec<std::uint8_t> missing) {
    RCR_CHECK_MSG(masks.size() == missing.size(),
                  "multi-select mask/missing row counts differ");
    masks_ = std::move(masks);
    missing_ = std::move(missing);
  }

  std::size_t size() const { return masks_.size(); }
  std::uint64_t mask_at(std::size_t i) const { return masks_[i]; }
  bool is_missing(std::size_t i) const { return missing_[i] != 0; }
  bool has(std::size_t row, std::size_t option) const;
  // Raw bitmask / missing-flag arrays (a missing row is an all-zero mask
  // with its flag set) for kernels that iterate selections by set bit.
  const PageVec<std::uint64_t>& masks() const { return masks_; }
  const PageVec<std::uint8_t>& missing_flags() const { return missing_; }

  std::size_t option_count() const { return options_.size(); }
  const std::string& option(std::size_t o) const { return options_[o]; }
  const std::vector<std::string>& options() const { return options_; }
  std::int32_t find_option(const std::string& label) const;

  // Number of respondents (non-missing rows) selecting each option.
  std::vector<double> option_counts() const;

  // Number of options selected in one row.
  std::size_t selection_count(std::size_t row) const;

 private:
  std::vector<std::string> options_;
  PageVec<std::uint64_t> masks_;
  PageVec<std::uint8_t> missing_;
};

}  // namespace rcr::data
