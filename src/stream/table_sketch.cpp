#include "stream/table_sketch.hpp"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "simd/kernels.hpp"
#include "util/error.hpp"

namespace rcr::stream {

namespace {

// Handles resolved once; registration takes the registry mutex.
struct StreamObs {
  obs::Counter& rows = obs::registry().counter("stream.rows");
  obs::Counter& blocks = obs::registry().counter("stream.blocks");
  obs::Counter& merges = obs::registry().counter("stream.merges");
  obs::Histogram& merge_ms = obs::registry().histogram("stream.merge.ms");
  obs::Gauge& sketch_bytes = obs::registry().gauge("stream.sketch.bytes");
  obs::Gauge& quantile_tuples =
      obs::registry().gauge("stream.quantile.tuples");
};

StreamObs& stream_obs() {
  static StreamObs o;
  return o;
}

std::uint64_t hash_double(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

std::string TableSketch::label_key(const std::string& column,
                                   const std::string& label) {
  return column + '\x1F' + label;
}

TableSketch::TableSketch(const data::Table& schema,
                         std::string reservoir_column)
    : reservoir_column_(std::move(reservoir_column)),
      schema_(schema.clone_empty()),
      label_cms_(kCmsDepth, kCmsWidth, kSketchSeed),
      heavy_hitters_(kHeavyHitterCapacity),
      distinct_(kHllPrecision, kSketchSeed),
      reservoir_(kReservoirCapacity, kSketchSeed) {
  for (const std::string& name : schema_.column_names()) {
    switch (schema_.kind(name)) {
      case data::ColumnKind::kNumeric:
        numeric_.try_emplace(name);
        break;
      case data::ColumnKind::kCategorical:
        categorical_.insert(name);
        break;
      case data::ColumnKind::kMultiSelect:
        multiselect_.insert(name);
        break;
    }
  }
  if (!reservoir_column_.empty()) {
    RCR_CHECK_MSG(numeric_.count(reservoir_column_) > 0,
                  "reservoir column must be numeric");
  }
}

// Composite hash of one row over every column. Missing cells hash a
// per-kind sentinel, so "missing" is a distinct value, not a skip.
std::uint64_t TableSketch::row_key(const data::Table& block,
                                   std::size_t row) const {
  std::uint64_t h = mix64(kSketchSeed);
  for (const std::string& name : schema_.column_names()) {
    std::uint64_t cell = 0;
    switch (schema_.kind(name)) {
      case data::ColumnKind::kNumeric: {
        const double v = block.numeric(name).at(row);
        cell = data::NumericColumn::is_missing(v) ? 0x4D495353ULL
                                                  : hash_double(v);
        break;
      }
      case data::ColumnKind::kCategorical: {
        const auto& col = block.categorical(name);
        cell = col.is_missing(row)
                   ? 0x4D495353ULL
                   : static_cast<std::uint64_t>(col.code_at(row)) + 1;
        break;
      }
      case data::ColumnKind::kMultiSelect: {
        const auto& col = block.multiselect(name);
        cell = col.is_missing(row) ? 0x4D495353ULL : col.mask_at(row) + 1;
        break;
      }
    }
    h = mix64(h ^ cell);
  }
  return h;
}

void TableSketch::ingest(const data::Table& block, std::size_t first_row) {
  block.validate_rectangular();
  const std::size_t n = block.row_count();

  // Column-major passes keep the inner loops tight.
  for (auto& [name, state] : numeric_) {
    const auto& col = block.numeric(name);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = col.at(i);
      if (data::NumericColumn::is_missing(v)) continue;
      state.moments.add(v);
      state.quantile.add(v);
    }
  }
  // The label domains are tiny (category/option sets), so the per-row key
  // strings and their CMS hashes are built once per block and reused; the
  // count-min inserts batch through add_batch (all unit weight, so the
  // grouping cannot change any cell — see CountMinSketch::add_batch).
  // SpaceSaving sees the same keys in the same row order as before.
  std::vector<std::string> keys;
  std::vector<std::uint64_t> key_hashes;
  std::vector<std::uint64_t> cms_batch;
  for (const std::string& name : categorical_) {
    const auto& col = block.categorical(name);
    const std::size_t labels = schema_.categorical(name).category_count();
    RCR_CHECK_MSG(col.category_count() == labels,
                  "block categories diverge from the sketch schema");
    keys.clear();
    key_hashes.clear();
    for (std::size_t c = 0; c < labels; ++c) {
      keys.push_back(label_key(name, col.category(c)));
      key_hashes.push_back(hash_bytes(keys.back(), kSketchSeed));
    }
    cms_batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (col.is_missing(i)) continue;
      const std::size_t code = static_cast<std::size_t>(col.code_at(i));
      cms_batch.push_back(key_hashes[code]);
      heavy_hitters_.add(keys[code]);
    }
    label_cms_.add_batch(cms_batch);
  }
  for (const std::string& name : multiselect_) {
    const auto& col = block.multiselect(name);
    const std::size_t labels = schema_.multiselect(name).option_count();
    RCR_CHECK_MSG(col.option_count() == labels,
                  "block options diverge from the sketch schema");
    keys.clear();
    key_hashes.clear();
    for (std::size_t o = 0; o < labels; ++o) {
      keys.push_back(label_key(name, col.option(o)));
      key_hashes.push_back(hash_bytes(keys.back(), kSketchSeed));
    }
    cms_batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (col.is_missing(i)) continue;
      for (std::size_t o = 0; o < labels; ++o) {
        if (!col.has(i, o)) continue;
        cms_batch.push_back(key_hashes[o]);
        heavy_hitters_.add(keys[o]);
      }
    }
    label_cms_.add_batch(cms_batch);
  }

  // Distinct counting: the composite row key is a per-column chain of
  // mix64(h ^ cell). Running it column-major over the whole block turns n
  // sequential chains into one vectorized mix64_combine sweep per column
  // — the same function of the same inputs per row as row_key(), which
  // stays as the one-row reference the tests pin this path against.
  {
    std::vector<std::uint64_t> row_keys(n, mix64(kSketchSeed));
    std::vector<std::uint64_t> cell(n);
    for (const std::string& name : schema_.column_names()) {
      switch (schema_.kind(name)) {
        case data::ColumnKind::kNumeric: {
          const auto& col = block.numeric(name);
          for (std::size_t i = 0; i < n; ++i) {
            const double v = col.at(i);
            cell[i] = data::NumericColumn::is_missing(v) ? 0x4D495353ULL
                                                         : hash_double(v);
          }
          break;
        }
        case data::ColumnKind::kCategorical: {
          const auto& col = block.categorical(name);
          for (std::size_t i = 0; i < n; ++i) {
            cell[i] = col.is_missing(i)
                          ? 0x4D495353ULL
                          : static_cast<std::uint64_t>(col.code_at(i)) + 1;
          }
          break;
        }
        case data::ColumnKind::kMultiSelect: {
          const auto& col = block.multiselect(name);
          for (std::size_t i = 0; i < n; ++i) {
            cell[i] =
                col.is_missing(i) ? 0x4D495353ULL : col.mask_at(i) + 1;
          }
          break;
        }
      }
      simd::mix64_combine(row_keys.data(), cell.data(), n);
    }
    distinct_.add_batch(row_keys);
  }

  if (!reservoir_column_.empty()) {
    const auto& col = block.numeric(reservoir_column_);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = col.at(i);
      if (data::NumericColumn::is_missing(v)) continue;
      reservoir_.offer(first_row + i, v);
    }
  }

  rows_ += n;
  ++blocks_;
  stream_obs().rows.add(n);
  stream_obs().blocks.add(1);
}

void TableSketch::merge(const TableSketch& other) {
  obs::ScopedTimer timer(stream_obs().merge_ms);
  RCR_CHECK_MSG(schema_.column_names() == other.schema_.column_names(),
                "TableSketch merge requires identical schemas");
  for (auto& [name, state] : numeric_) {
    const NumericState& o = other.numeric_.at(name);
    state.moments.merge(o.moments);
    state.quantile.merge(o.quantile);
  }
  label_cms_.merge(other.label_cms_);
  heavy_hitters_.merge(other.heavy_hitters_);
  distinct_.merge(other.distinct_);
  reservoir_.merge(other.reservoir_);
  rows_ += other.rows_;
  blocks_ += other.blocks_;
  stream_obs().merges.add(1);
}

const Moments& TableSketch::moments(const std::string& column) const {
  return numeric_.at(column).moments;
}

const GKQuantile& TableSketch::quantile_sketch(
    const std::string& column) const {
  return numeric_.at(column).quantile;
}

const WeightedReservoir& TableSketch::reservoir() const {
  RCR_CHECK_MSG(!reservoir_column_.empty(), "reservoir was not configured");
  return reservoir_;
}

std::size_t TableSketch::approx_bytes() const {
  std::size_t bytes = label_cms_.approx_bytes() +
                      heavy_hitters_.approx_bytes() +
                      distinct_.approx_bytes() + reservoir_.approx_bytes();
  for (const auto& [name, state] : numeric_)
    bytes += sizeof(Moments) + state.quantile.approx_bytes();
  return bytes;
}

void TableSketch::publish_metrics() const {
  stream_obs().sketch_bytes.set(static_cast<std::int64_t>(approx_bytes()));
  std::size_t tuples = 0;
  for (const auto& [name, state] : numeric_)
    tuples += state.quantile.tuple_count();
  stream_obs().quantile_tuples.set(static_cast<std::int64_t>(tuples));
}

}  // namespace rcr::stream
