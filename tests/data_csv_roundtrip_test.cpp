// Write→read round-trip property tests for the RFC-4180 CSV engine, a full
// synthetic wave through the instrument schema, plus the reader's edge
// cases: header-only input, open-dictionary interning order, and the line
// number a malformed record deep in the file reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "data/table.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace rcr::data {
namespace {

std::string to_csv(const Table& t) {
  std::ostringstream out;
  write_csv(out, t);
  return out.str();
}

Table from_csv(const std::string& text, const Table& schema) {
  std::istringstream in(text);
  return read_csv(in, schema);
}

// Every shape escape_field has to handle: delimiters, quotes, embedded LF,
// lone CR, CRLF, leading/trailing whitespace, and the multi-select "-"
// sentinel as a *categorical* label (legal there; only multi-select option
// labels reserve it).
const std::vector<std::string>& gnarly_labels() {
  static const std::vector<std::string> labels = {
      "plain",     " lead",       "trail ",      " both ",
      "\ttabbed\t", "multi\nline", "cr\rreturn",  "crlf\r\nend",
      "com,ma",    "qu\"ote",     "\"quoted\"",  " \"mix\",\nall\r ",
      "-"};
  return labels;
}

// A survey-shaped table exercising every column kind and every escape
// shape, with missing cells and the answered-none mask sprinkled in.
Table make_gnarly_table() {
  const auto& labels = gnarly_labels();
  Table t;
  auto& cat = t.add_categorical("label", labels);
  auto& num = t.add_numeric("score");
  auto& multi =
      t.add_multiselect("opts", {"a", "b c", " padded ", "new\nline"});
  for (std::size_t i = 0; i < 3 * labels.size(); ++i) {
    if (i % 11 == 5)
      cat.push_missing();
    else
      cat.push(labels[i % labels.size()]);
    if (i % 7 == 3)
      num.push_missing();
    else
      num.push(0.125 * static_cast<double>(i) - 2.0);
    if (i % 9 == 4)
      multi.push_missing();
    else
      multi.push_mask(static_cast<std::uint64_t>(i % 16));  // 0 = none
  }
  return t;
}

TEST(CsvRoundTrip, GnarlyTableRoundTripsBitwise) {
  const Table t = make_gnarly_table();
  const std::string text = to_csv(t);
  const Table back = from_csv(text, t);
  ASSERT_EQ(back.row_count(), t.row_count());
  // Bitwise: re-serializing the parsed table reproduces the exact bytes.
  EXPECT_EQ(to_csv(back), text);
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    ASSERT_EQ(back.categorical("label").is_missing(i),
              t.categorical("label").is_missing(i));
    if (!t.categorical("label").is_missing(i)) {
      EXPECT_EQ(back.categorical("label").label_at(i),
                t.categorical("label").label_at(i));
    }
    ASSERT_EQ(back.multiselect("opts").is_missing(i),
              t.multiselect("opts").is_missing(i));
    if (!t.multiselect("opts").is_missing(i)) {
      EXPECT_EQ(back.multiselect("opts").mask_at(i),
                t.multiselect("opts").mask_at(i));
    }
  }
}

TEST(CsvRoundTrip, QuotedWhitespaceSurvivesUnquotedIsTrimmed) {
  Table schema;
  schema.add_categorical("c", {" a ", "a"});
  std::istringstream in("c\n\" a \"\n  a  \n");
  const Table t = read_csv(in, schema);
  ASSERT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.categorical("c").label_at(0), " a ");  // quoted: verbatim
  EXPECT_EQ(t.categorical("c").label_at(1), "a");    // unquoted: trimmed
}

TEST(CsvRoundTrip, PaddedLabelsAreQuotedOnWrite) {
  Table t;
  t.add_categorical("c", {" padded "}).push(" padded ");
  EXPECT_EQ(to_csv(t), "c\n\" padded \"\n");
}

TEST(CsvRoundTrip, SingleColumnMissingRowsRoundTrip) {
  Table t;
  auto& col = t.add_numeric("x");
  col.push(1.0);
  col.push_missing();
  col.push(2.0);
  const std::string text = to_csv(t);
  EXPECT_EQ(text, "x\n1\n\n2\n");
  const Table back = from_csv(text, t);
  ASSERT_EQ(back.row_count(), 3u);
  EXPECT_TRUE(NumericColumn::is_missing(back.numeric("x").at(1)));
  EXPECT_EQ(to_csv(back), text);
}

TEST(CsvRoundTrip, AnsweredNoneSentinelDistinctFromMissing) {
  Table t;
  auto& col = t.add_multiselect("m", {"a", "b"});
  col.push_mask(0);    // answered, nothing selected
  col.push_missing();  // did not answer
  col.push_labels({"a"});
  const std::string text = to_csv(t);
  EXPECT_EQ(text, "m\n-\n\na\n");
  const Table back = from_csv(text, t);
  ASSERT_EQ(back.row_count(), 3u);
  EXPECT_FALSE(back.multiselect("m").is_missing(0));
  EXPECT_EQ(back.multiselect("m").mask_at(0), 0u);
  EXPECT_TRUE(back.multiselect("m").is_missing(1));
  EXPECT_EQ(back.multiselect("m").mask_at(2), 1u);
}

TEST(CsvRoundTrip, NonFiniteNumericLiteralsRejected) {
  Table schema;
  schema.add_numeric("x");
  for (const char* text :
       {"x\nnan\n", "x\nNAN\n", "x\ninf\n", "x\n-inf\n", "x\nINFINITY\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(read_csv(in, schema), rcr::InvalidInputError) << text;
  }
}

TEST(CsvRoundTrip, DashOptionLabelRejectedAtSchemaBuild) {
  Table t;
  EXPECT_THROW(t.add_multiselect("m", {"a", "-"}), rcr::InvalidInputError);
}

// --- Reader edge cases ------------------------------------------------------
// Input with no header at all is rejected by data_test's CsvErrorTest
// "empty" case.

TEST(CsvRoundTrip, HeaderOnlyYieldsEmptyTable) {
  Table schema;
  schema.add_numeric("x");
  for (const char* text : {"x\n", "x"})
    EXPECT_EQ(from_csv(text, schema).row_count(), 0u) << '"' << text << '"';
}

TEST(CsvRoundTrip, OpenDictionaryInternsInFirstAppearanceOrder) {
  // Labels first appear as label_0, label_7, label_14, label_21, label_5,
  // ...: neither sorted nor numeric order, so only first appearance fits.
  Table schema;
  schema.add_categorical("c");  // open dictionary
  std::string text = "c\n";
  std::vector<std::string> rows, first_seen;
  for (int i = 0; i < 400; ++i) {
    const std::string label = "label_" + std::to_string(i * 7 % 23);
    text += label + "\n";
    rows.push_back(label);
    if (std::find(first_seen.begin(), first_seen.end(), label) ==
        first_seen.end())
      first_seen.push_back(label);
  }
  const Table parsed = from_csv(text, schema);
  ASSERT_EQ(parsed.row_count(), rows.size());
  EXPECT_EQ(parsed.categorical("c").categories(), first_seen);
  for (std::size_t r = 0; r < rows.size(); ++r)
    ASSERT_EQ(parsed.categorical("c").label_at(r), rows[r]) << r;
}

TEST(CsvRoundTrip, DeepMalformedRecordReportsItsLine) {
  // 5000 two-line records (a quoted newline in each) fill more than one
  // read chunk; the first bad record starts on physical line 2 + 2 * 5000.
  Table schema;
  schema.add_numeric("x");
  schema.add_categorical("note");
  std::string text = "x,note\n";
  for (int i = 0; i < 5000; ++i)
    text += std::to_string(i) + ",\"two\nlines\"\n";
  text += "bogus,z\n";
  for (int i = 0; i < 20; ++i) text += "also_bad,z\n";
  try {
    from_csv(text, schema);
    FAIL() << "malformed input accepted";
  } catch (const rcr::InvalidInputError& e) {
    EXPECT_EQ(std::string(e.what()),
              "CSV line 10002: column 'x': not a number: 'bogus'");
  }
}

TEST(WaveCsvRoundTripTest, FullWaveSurvivesSerialization) {
  const auto wave = synth::generate_2024(200, 9);
  std::ostringstream buffer;
  write_csv(buffer, wave);
  std::istringstream in(buffer.str());
  const auto schema = synth::instrument().make_table();
  const auto back = read_csv(in, schema);

  ASSERT_EQ(back.row_count(), wave.row_count());
  // Masks, codes, and numerics all survive byte-for-byte semantics.
  const auto& langs_a = wave.multiselect(synth::col::kLanguages);
  const auto& langs_b = back.multiselect(synth::col::kLanguages);
  const auto& field_a = wave.categorical(synth::col::kField);
  const auto& field_b = back.categorical(synth::col::kField);
  const auto& cores_a = wave.numeric(synth::col::kCoresTypical);
  const auto& cores_b = back.numeric(synth::col::kCoresTypical);
  const auto& models_a = wave.multiselect(synth::col::kParallelModels);
  const auto& models_b = back.multiselect(synth::col::kParallelModels);
  for (std::size_t i = 0; i < wave.row_count(); ++i) {
    EXPECT_EQ(langs_a.mask_at(i), langs_b.mask_at(i));
    EXPECT_EQ(field_a.code_at(i), field_b.code_at(i));
    EXPECT_EQ(models_a.is_missing(i), models_b.is_missing(i));
    if (!models_a.is_missing(i)) {
      EXPECT_EQ(models_a.mask_at(i), models_b.mask_at(i));
    }
    const bool miss_a = NumericColumn::is_missing(cores_a.at(i));
    EXPECT_EQ(miss_a, NumericColumn::is_missing(cores_b.at(i)));
    if (!miss_a) {
      EXPECT_DOUBLE_EQ(cores_a.at(i), cores_b.at(i));
    }
  }
}

TEST(WaveCsvRoundTripTest, FileVariantWorks) {
  const auto wave = synth::generate_2011(40, 13);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rcr_roundtrip_test.csv")
          .string();
  write_csv_file(path, wave);
  const auto back = read_csv_file(path, synth::instrument().make_table());
  EXPECT_EQ(back.row_count(), wave.row_count());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcr::data
