#include <gtest/gtest.h>

#include <sstream>

#include "data/crosstab.hpp"
#include "data/csv.hpp"
#include "data/table.hpp"
#include "query/engine.hpp"
#include "util/error.hpp"

namespace rcr::data {
namespace {

Table make_sample_table() {
  Table t;
  auto& field = t.add_categorical("field", {"phys", "bio"});
  auto& score = t.add_numeric("score");
  auto& langs = t.add_multiselect("langs", {"py", "cpp", "r"});
  field.push("phys");  score.push(1.0);  langs.push_labels({"py", "cpp"});
  field.push("bio");   score.push(2.0);  langs.push_labels({"py", "r"});
  field.push("phys");  score.push(3.0);  langs.push_labels({"cpp"});
  field.push("bio");   score.push_missing(); langs.push_missing();
  return t;
}

// --- columns -------------------------------------------------------------------

TEST(NumericColumnTest, MissingHandling) {
  NumericColumn c;
  c.push(1.0);
  c.push_missing();
  c.push(3.0);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(NumericColumn::is_missing(c.at(1)));
  EXPECT_EQ(c.present_values(), (std::vector<double>{1.0, 3.0}));
}

TEST(CategoricalColumnTest, InternAndFrozen) {
  CategoricalColumn open;
  open.push("a");
  open.push("b");
  open.push("a");
  EXPECT_EQ(open.category_count(), 2u);
  EXPECT_EQ(open.code_at(2), 0);
  EXPECT_EQ(open.counts(), (std::vector<double>{2.0, 1.0}));

  CategoricalColumn frozen({"x", "y"});
  frozen.push("y");
  EXPECT_THROW(frozen.push("z"), rcr::Error);
  EXPECT_EQ(frozen.find_code("zzz"), kMissingCode);
}

TEST(CategoricalColumnTest, PushCodeValidation) {
  CategoricalColumn c({"a", "b"});
  c.push_code(1);
  c.push_code(kMissingCode);
  EXPECT_TRUE(c.is_missing(1));
  EXPECT_THROW(c.push_code(2), rcr::Error);
  EXPECT_THROW(c.push_code(-5), rcr::Error);
}

TEST(CategoricalColumnTest, LabelAtMissingThrows) {
  CategoricalColumn c({"a"});
  c.push_missing();
  EXPECT_THROW(c.label_at(0), rcr::Error);
}

TEST(MultiSelectColumnTest, MasksAndCounts) {
  MultiSelectColumn c({"a", "b", "c"});
  c.push_labels({"a", "c"});
  c.push_labels({});
  c.push_missing();
  c.push_mask(0b010);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_TRUE(c.has(0, 0));
  EXPECT_FALSE(c.has(0, 1));
  EXPECT_TRUE(c.has(0, 2));
  EXPECT_FALSE(c.has(2, 0));  // missing row selects nothing
  EXPECT_EQ(c.selection_count(0), 2u);
  EXPECT_EQ(c.selection_count(2), 0u);
  EXPECT_EQ(c.option_counts(), (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(MultiSelectColumnTest, RejectsUnknownAndOutOfRange) {
  MultiSelectColumn c({"a", "b"});
  EXPECT_THROW(c.push_labels({"nope"}), rcr::Error);
  EXPECT_THROW(c.push_mask(0b100), rcr::Error);
}

// --- table ---------------------------------------------------------------------

TEST(TableTest, SchemaAndAccess) {
  const Table t = make_sample_table();
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_TRUE(t.has_column("score"));
  EXPECT_FALSE(t.has_column("nope"));
  EXPECT_EQ(t.kind("field"), ColumnKind::kCategorical);
  EXPECT_EQ(t.kind("score"), ColumnKind::kNumeric);
  EXPECT_EQ(t.kind("langs"), ColumnKind::kMultiSelect);
  EXPECT_THROW(t.numeric("field"), rcr::Error);
  EXPECT_THROW(t.categorical("nope"), rcr::Error);
  EXPECT_NO_THROW(t.validate_rectangular());
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t;
  t.add_numeric("x");
  EXPECT_THROW(t.add_numeric("x"), rcr::Error);
  EXPECT_THROW(t.add_categorical("x", {"a", "b"}), rcr::Error);
}

TEST(TableTest, RaggedTableDetected) {
  Table t;
  t.add_numeric("a").push(1.0);
  t.add_numeric("b");
  EXPECT_THROW(t.validate_rectangular(), rcr::Error);
}

TEST(TableTest, SliceKeepsSchemaRowsAndMissing) {
  const Table t = make_sample_table();
  const Table tail = t.slice(2, 4);
  EXPECT_EQ(tail.row_count(), 2u);
  EXPECT_EQ(tail.categorical("field").categories().size(), 2u);
  EXPECT_EQ(tail.categorical("field").label_at(0), "phys");
  EXPECT_DOUBLE_EQ(tail.numeric("score").at(0), 3.0);
  EXPECT_TRUE(tail.multiselect("langs").has(0, 1));
  EXPECT_TRUE(NumericColumn::is_missing(tail.numeric("score").at(1)));
  EXPECT_TRUE(tail.multiselect("langs").is_missing(1));
}

TEST(TableTest, GroupRows) {
  const Table t = make_sample_table();
  const auto groups = t.group_rows("field");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{1, 3}));
}

// --- crosstab ------------------------------------------------------------------

TEST(CrosstabTest, CategoricalByMultiselect) {
  const Table t = make_sample_table();
  query::QueryEngine engine(t);
  const auto id = engine.add_crosstab_multiselect("field", "langs");
  engine.run();
  const auto& ct = engine.crosstab(id);
  EXPECT_EQ(ct.row_labels, (std::vector<std::string>{"phys", "bio"}));
  EXPECT_EQ(ct.col_labels, (std::vector<std::string>{"py", "cpp", "r"}));
  EXPECT_DOUBLE_EQ(ct.counts.at(0, 0), 1.0);  // phys x py
  EXPECT_DOUBLE_EQ(ct.counts.at(0, 1), 2.0);  // phys x cpp
  EXPECT_DOUBLE_EQ(ct.counts.at(1, 2), 1.0);  // bio x r
}

TEST(CrosstabTest, CategoricalByCategorical) {
  Table t;
  auto& a = t.add_categorical("a", {"x", "y"});
  auto& b = t.add_categorical("b", {"u", "v"});
  a.push("x"); b.push("u");
  a.push("x"); b.push("v");
  a.push("y"); b.push("v");
  a.push_missing(); b.push("u");  // dropped
  query::QueryEngine engine(t);
  const auto id = engine.add_crosstab("a", "b");
  engine.run();
  const auto& ct = engine.crosstab(id);
  EXPECT_DOUBLE_EQ(ct.counts.grand_total(), 3.0);
  EXPECT_DOUBLE_EQ(ct.counts.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ct.row_share(0, 0), 0.5);
}

TEST(CrosstabTest, WeightedCounts) {
  Table t;
  auto& a = t.add_categorical("a", {"x", "y"});
  auto& b = t.add_categorical("b", {"u", "v"});
  auto& w = t.add_numeric("w");
  a.push("x"); b.push("u"); w.push(2.0);
  a.push("x"); b.push("u"); w.push(0.5);
  a.push("y"); b.push("v"); w.push_missing();  // dropped
  query::QueryEngine engine(t);
  const auto id = engine.add_crosstab("a", "b", std::string("w"));
  engine.run();
  const auto& ct = engine.crosstab(id);
  EXPECT_DOUBLE_EQ(ct.counts.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(ct.counts.grand_total(), 2.5);
}

// Pins the set-bit kernel: the multi-select crosstab (which iterates each
// row's selections via countr_zero) must equal a literal probe of every
// (row, option) pair with has(), across a randomized mask table that
// exercises dense, sparse, empty, and missing rows.
TEST(CrosstabTest, MultiselectMatchesPerOptionProbing) {
  Table t;
  auto& g = t.add_categorical("g", {"a", "b", "c"});
  std::vector<std::string> opts;
  for (int o = 0; o < 11; ++o)
    opts.push_back(std::string("o").append(std::to_string(o)));
  auto& ms = t.add_multiselect("m", opts);
  std::uint64_t state = 42;
  const auto next = [&state] {  // splitmix64, enough for masks
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t r = next();
    if (r % 13 == 0) g.push_missing();
    else g.push_code(static_cast<std::int32_t>(r % 3));
    if (r % 11 == 0) ms.push_missing();
    else ms.push_mask(next() & 0x7FFULL);  // any subset incl. empty
  }

  query::QueryEngine engine(t);
  const auto id = engine.add_crosstab_multiselect("g", "m");
  engine.run();
  const auto& ct = engine.crosstab(id);
  stats::Contingency probed(3, opts.size());
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    if (g.is_missing(i) || ms.is_missing(i)) continue;
    for (std::size_t o = 0; o < opts.size(); ++o)
      if (ms.has(i, o)) probed.add(static_cast<std::size_t>(g.code_at(i)), o);
  }
  for (std::size_t r = 0; r < probed.rows(); ++r)
    for (std::size_t c = 0; c < probed.cols(); ++c)
      EXPECT_DOUBLE_EQ(ct.counts.at(r, c), probed.at(r, c))
          << "cell (" << r << ", " << c << ")";
  EXPECT_DOUBLE_EQ(ct.counts.grand_total(), probed.grand_total());
}

TEST(OptionSharesTest, ComputesWilsonIntervals) {
  const Table t = make_sample_table();
  query::QueryEngine engine(t);
  const auto id = engine.add_option_shares("langs");
  engine.run();
  const auto& shares = engine.shares(id);
  ASSERT_EQ(shares.size(), 3u);
  // 3 answered rows; py selected by 2.
  EXPECT_DOUBLE_EQ(shares[0].total, 3.0);
  EXPECT_NEAR(shares[0].share.estimate, 2.0 / 3.0, 1e-12);
  EXPECT_LT(shares[0].share.lo, shares[0].share.estimate);
  EXPECT_GT(shares[0].share.hi, shares[0].share.estimate);
}

TEST(CategorySharesTest, Computes) {
  const Table t = make_sample_table();
  query::QueryEngine engine(t);
  const auto id = engine.add_category_shares("field");
  engine.run();
  const auto& shares = engine.shares(id);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0].count, 2.0);
  EXPECT_DOUBLE_EQ(shares[0].total, 4.0);
}

// --- CSV -----------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  const Table t = make_sample_table();
  std::ostringstream out;
  write_csv(out, t);
  std::istringstream in(out.str());
  const Table back = read_csv(in, t);
  EXPECT_EQ(back.row_count(), t.row_count());
  EXPECT_EQ(back.categorical("field").label_at(0), "phys");
  EXPECT_DOUBLE_EQ(back.numeric("score").at(2), 3.0);
  EXPECT_TRUE(NumericColumn::is_missing(back.numeric("score").at(3)));
  EXPECT_TRUE(back.multiselect("langs").has(0, 1));
  EXPECT_TRUE(back.multiselect("langs").is_missing(3));
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  Table schema;
  schema.add_categorical("name", {"a,b", "plain", "with \"quotes\""});
  schema.add_numeric("v");
  std::istringstream in(
      "name,v\n\"a,b\",1\nplain,2\n\"with \"\"quotes\"\"\",3\n");
  const Table t = read_csv(in, schema);
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.categorical("name").label_at(0), "a,b");
  EXPECT_EQ(t.categorical("name").label_at(2), "with \"quotes\"");

  // And write side escapes them back.
  std::ostringstream out;
  write_csv(out, t);
  std::istringstream in2(out.str());
  const Table t2 = read_csv(in2, schema);
  EXPECT_EQ(t2.categorical("name").label_at(0), "a,b");
}

TEST(CsvTest, SkipsBlankLinesInMultiColumnFiles) {
  Table schema;
  schema.add_numeric("x");
  schema.add_numeric("y");
  std::istringstream in("x,y\r\n1,2\r\n\r\n   \r\n3,4\r\n");
  const Table t = read_csv(in, schema);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(t.numeric("y").at(1), 4.0);
}

TEST(CsvTest, BlankLineIsAMissingRowInSingleColumnFiles) {
  // A blank line in a one-column file is a legitimate record whose only
  // cell is missing; the old reader silently dropped it.
  Table schema;
  schema.add_numeric("x");
  std::istringstream in("x\r\n1\r\n\r\n2\r\n");
  const Table t = read_csv(in, schema);
  ASSERT_EQ(t.row_count(), 3u);
  EXPECT_DOUBLE_EQ(t.numeric("x").at(0), 1.0);
  EXPECT_TRUE(NumericColumn::is_missing(t.numeric("x").at(1)));
  EXPECT_DOUBLE_EQ(t.numeric("x").at(2), 2.0);
}

TEST(CsvTest, ReorderedHeaderMapsColumnsByName) {
  Table schema;
  schema.add_numeric("score");
  schema.add_categorical("field", {"Physics", "Biology", "CS"});
  schema.add_multiselect("langs", {"Python", "C++", "R"});
  std::istringstream in("langs,score,field\nPython|C++,2.5,CS\n,,\n");
  const Table t = read_csv(in, schema);
  ASSERT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_names(), schema.column_names());
  EXPECT_DOUBLE_EQ(t.numeric("score").at(0), 2.5);
  EXPECT_EQ(t.categorical("field").label_at(0), "CS");
  EXPECT_EQ(t.multiselect("langs").mask_at(0), 0b011u);
  EXPECT_TRUE(NumericColumn::is_missing(t.numeric("score").at(1)));
  EXPECT_TRUE(t.categorical("field").is_missing(1));
  EXPECT_TRUE(t.multiselect("langs").is_missing(1));
}

struct BadCsvCase {
  const char* name;
  const char* text;
};

class CsvErrorTest : public ::testing::TestWithParam<BadCsvCase> {};

TEST_P(CsvErrorTest, RejectsMalformedInput) {
  Table schema;
  schema.add_categorical("c", {"a", "b"});
  schema.add_numeric("n");
  std::istringstream in(GetParam().text);
  EXPECT_THROW(read_csv(in, schema), rcr::InvalidInputError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvErrorTest,
    ::testing::Values(
        BadCsvCase{"empty", ""},
        BadCsvCase{"unknown_header", "c,wrong\na,1\n"},
        BadCsvCase{"missing_column", "c\na\n"},
        BadCsvCase{"wrong_field_count", "c,n\na\n"},
        BadCsvCase{"bad_number", "c,n\na,xyz\n"},
        BadCsvCase{"unknown_category", "c,n\nz,1\n"},
        BadCsvCase{"unterminated_quote", "c,n\n\"a,1\n"}),
    [](const ::testing::TestParamInfo<BadCsvCase>& info) {
      return info.param.name;
    });

TEST(CsvTest, MultiselectUnknownOptionRejected) {
  Table schema;
  schema.add_multiselect("m", {"a", "b"});
  std::istringstream in("m\na|z\n");
  EXPECT_THROW(read_csv(in, schema), rcr::InvalidInputError);
}

TEST(CsvTest, FileNotFoundThrows) {
  Table schema;
  schema.add_numeric("x");
  EXPECT_THROW(read_csv_file("/nonexistent/path.csv", schema),
               rcr::InvalidInputError);
}

}  // namespace
}  // namespace rcr::data
