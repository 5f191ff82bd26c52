// A fuzz-style CSV round-trip property over randomly generated tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "data/csv.hpp"
#include "data/table.hpp"
#include "util/rng.hpp"

namespace rcr {
namespace {

// --- CSV fuzz round-trip ---------------------------------------------------------------

// Builds a random table with awkward labels, missing cells, and all three
// column kinds, then checks a full CSV round trip preserves it.
class CsvFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzTest, RandomTableRoundTrips) {
  rcr::Rng rng(GetParam());
  const std::vector<std::string> labels = {
      "plain", "with space", "comma,inside", "quote\"inside", "pipe-free",
      "ünïcode"};
  data::Table t;
  auto& num = t.add_numeric("n");
  auto& cat = t.add_categorical("c", labels);
  auto& multi = t.add_multiselect("m", {"a", "b", "comma,opt", "d"});
  const std::size_t rows = 30 + rng.next_below(50);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.bernoulli(0.1)) {
      num.push_missing();
    } else {
      num.push(std::floor(rng.uniform(-1000.0, 1000.0) * 16.0) / 16.0);
    }
    if (rng.bernoulli(0.1)) {
      cat.push_missing();
    } else {
      cat.push_code(static_cast<std::int32_t>(rng.next_below(labels.size())));
    }
    if (rng.bernoulli(0.1)) {
      multi.push_missing();
    } else {
      multi.push_mask(rng.next_below(16));  // includes the empty mask
    }
  }

  std::ostringstream buffer;
  data::write_csv(buffer, t);
  std::istringstream in(buffer.str());
  data::Table schema;
  schema.add_numeric("n");
  schema.add_categorical("c", labels);
  schema.add_multiselect("m", {"a", "b", "comma,opt", "d"});
  const data::Table back = data::read_csv(in, schema);

  ASSERT_EQ(back.row_count(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const bool nm = data::NumericColumn::is_missing(num.at(i));
    EXPECT_EQ(nm, data::NumericColumn::is_missing(back.numeric("n").at(i)));
    if (!nm) {
      EXPECT_DOUBLE_EQ(num.at(i), back.numeric("n").at(i));
    }
    EXPECT_EQ(cat.code_at(i), back.categorical("c").code_at(i));
    EXPECT_EQ(multi.is_missing(i), back.multiselect("m").is_missing(i));
    if (!multi.is_missing(i)) {
      EXPECT_EQ(multi.mask_at(i), back.multiselect("m").mask_at(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rcr
