// QueryEngine::append contract: every registered query's answer after any
// sequence of appended blocks is bitwise-equal to a cold QueryEngine run
// over the concatenation of those blocks — for any block partition
// (including mid-shard resumes), any thread count, and after a block that
// throws. The streaming study's appends of Study's eleven aggregates are
// pinned in core_stream_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace rcr::query {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_crosstab_bits(const data::LabeledCrosstab& a,
                          const data::LabeledCrosstab& b) {
  ASSERT_EQ(a.row_labels, b.row_labels);
  ASSERT_EQ(a.col_labels, b.col_labels);
  ASSERT_EQ(a.counts.rows(), b.counts.rows());
  ASSERT_EQ(a.counts.cols(), b.counts.cols());
  for (std::size_t r = 0; r < a.counts.rows(); ++r)
    for (std::size_t c = 0; c < a.counts.cols(); ++c)
      ASSERT_EQ(bits_of(a.counts.at(r, c)), bits_of(b.counts.at(r, c)))
          << "cell (" << r << "," << c << ")";
}

void expect_shares_bits(const std::vector<data::OptionShare>& a,
                        const std::vector<data::OptionShare>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].label, b[i].label);
    ASSERT_EQ(bits_of(a[i].count), bits_of(b[i].count)) << a[i].label;
    ASSERT_EQ(bits_of(a[i].total), bits_of(b[i].total)) << a[i].label;
    ASSERT_EQ(bits_of(a[i].share.estimate), bits_of(b[i].share.estimate));
    ASSERT_EQ(bits_of(a[i].share.lo), bits_of(b[i].share.lo));
    ASSERT_EQ(bits_of(a[i].share.hi), bits_of(b[i].share.hi));
  }
}

void expect_counts_bits(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << "index " << i;
}

// The registration set exercised against every cold reference: all six
// servable kinds plus a weight-column crosstab and a numeric summary.
struct Ids {
  QueryId ct, ct_weighted, ct_multi, cat, opt, num, ans;
};

Ids register_standard(QueryEngine& engine) {
  Ids ids;
  ids.ct = engine.add_crosstab(synth::col::kField, synth::col::kCareerStage);
  ids.ct_weighted = engine.add_crosstab(
      synth::col::kField, synth::col::kCareerStage, synth::col::kDatasetGb);
  ids.ct_multi = engine.add_crosstab_multiselect(synth::col::kField,
                                                 synth::col::kLanguages);
  ids.cat = engine.add_category_shares(synth::col::kGpuUsage);
  ids.opt = engine.add_option_shares(synth::col::kSePractices);
  ids.num = engine.add_numeric_summary(synth::col::kYearsProgramming);
  ids.ans =
      engine.add_group_answered(synth::col::kField, synth::col::kLanguages);
  return ids;
}

// Compares every registered answer on `engine` against a cold QueryEngine
// run over `reference` (the concatenation of all appended blocks so far).
void expect_matches_cold(const QueryEngine& engine, const Ids& ids,
                         const data::Table& reference,
                         parallel::ThreadPool* pool = nullptr) {
  QueryEngine cold(reference);
  const Ids cold_ids = register_standard(cold);
  cold.run(pool);
  expect_crosstab_bits(engine.raw_result(ids.ct).crosstab,
                       cold.raw_result(cold_ids.ct).crosstab);
  expect_crosstab_bits(engine.raw_result(ids.ct_weighted).crosstab,
                       cold.raw_result(cold_ids.ct_weighted).crosstab);
  expect_crosstab_bits(engine.raw_result(ids.ct_multi).crosstab,
                       cold.raw_result(cold_ids.ct_multi).crosstab);
  expect_shares_bits(engine.raw_result(ids.cat).shares,
                     cold.raw_result(cold_ids.cat).shares);
  expect_shares_bits(engine.raw_result(ids.opt).shares,
                     cold.raw_result(cold_ids.opt).shares);
  const auto& ni = engine.raw_result(ids.num).numeric;
  const auto& nc = cold.raw_result(cold_ids.num).numeric;
  ASSERT_EQ(bits_of(ni.count), bits_of(nc.count));
  ASSERT_EQ(bits_of(ni.sum), bits_of(nc.sum));
  ASSERT_EQ(bits_of(ni.min), bits_of(nc.min));
  ASSERT_EQ(bits_of(ni.max), bits_of(nc.max));
  expect_counts_bits(engine.raw_result(ids.ans).group_counts,
                     cold.raw_result(cold_ids.ans).group_counts);
}

data::Table test_wave(std::size_t n, std::uint64_t seed = 11) {
  return synth::generate_wave({synth::Wave::k2024, n, seed});
}

// Engines below start from an empty copy of the wave's schema, so every
// row arrives through append().
TEST(IncrementalEngineTest, RegistrationSealsOnFirstAppend) {
  const data::Table wave = test_wave(300);
  const data::Table none = wave.clone_empty();
  QueryEngine engine(none);
  register_standard(engine);
  engine.append(wave.slice(0, 100));
  EXPECT_THROW(engine.add_category_shares(synth::col::kGpuUsage), Error);
  EXPECT_THROW(engine.add_option_shares(synth::col::kLanguages), Error);
}

// A weighted option share registers (its span covers the constructor
// table), but a caller-owned span cannot grow, so append() refuses it.
TEST(IncrementalEngineTest, ExternalWeightSpanRejected) {
  const data::Table wave = test_wave(50);
  QueryEngine engine(wave);
  const std::vector<double> w(50, 1.0);
  EXPECT_NO_THROW(
      engine.add_weighted_option_share(synth::col::kLanguages, "Python", w));
  EXPECT_THROW(engine.append(wave.slice(0, 10)), Error);
  EXPECT_EQ(engine.row_count(), 0u);
}

TEST(IncrementalEngineTest, SchemaMismatchRejected) {
  const data::Table wave = test_wave(100);
  const data::Table none = wave.clone_empty();
  QueryEngine engine(none);
  engine.add_category_shares(synth::col::kGpuUsage);
  data::Table other;
  other.add_numeric("x");
  EXPECT_THROW(engine.append(other), Error);
  // The rejected block closed nothing: registration is still open.
  EXPECT_NO_THROW(engine.add_option_shares(synth::col::kLanguages));
  EXPECT_EQ(engine.row_count(), 0u);
}

TEST(IncrementalEngineTest, ValidatesSpecsAgainstSchema) {
  const data::Table wave = test_wave(10);
  QueryEngine engine(wave);
  EXPECT_THROW(engine.add_category_shares("no_such_column"), Error);
  EXPECT_THROW(engine.add_numeric_summary(synth::col::kField), Error);
}

TEST(IncrementalEngineTest, ZeroRowBlockIsANoOp) {
  const data::Table wave = test_wave(500);
  const data::Table none = wave.clone_empty();
  QueryEngine engine(none);
  const Ids ids = register_standard(engine);
  engine.append(wave.slice(0, 500));
  engine.append(wave.slice(0, 0));
  EXPECT_EQ(engine.row_count(), 500u);
  expect_matches_cold(engine, ids, wave);
}

// The engine's rows are its constructor table's followed by every appended
// block: run() then append(), and append() alone (which folds the
// constructor table first), reach the cold run's bits. The block resumes
// the open shard and spans two whole shards, so its segments — the
// resumed head included — scan on the pool.
TEST(IncrementalEngineTest, ConstructorRowsPrecedeAppendedBlocks) {
  const data::Table wave = test_wave(14000, 13);
  const data::Table head = wave.slice(0, 1000);
  const data::Table block = wave.slice(1000, 14000);
  parallel::ThreadPool pool(4);
  QueryEngine after_run(head), append_only(head);
  const Ids ids = register_standard(after_run);
  register_standard(append_only);
  after_run.run(&pool);
  after_run.append(block, &pool);
  append_only.append(block, &pool);
  EXPECT_EQ(after_run.row_count(), 14000u);
  EXPECT_EQ(append_only.row_count(), 14000u);
  expect_matches_cold(after_run, ids, wave);
  expect_matches_cold(append_only, ids, wave);
}

// The core contract: every cut, over an adversarial block partition that
// starts mid-shard, crosses shard boundaries, and lands exactly on them,
// matches the cold engine bit for bit.
TEST(IncrementalEngineTest, EveryCutMatchesColdEngineBitwise) {
  const std::size_t n = 10000;  // spans 3 fixed-stride shards
  const data::Table wave = test_wave(n);
  const data::Table none = wave.clone_empty();
  QueryEngine engine(none);
  const Ids ids = register_standard(engine);

  const std::size_t sizes[] = {1, 7, 497, 3591, 4096, 953, 855};
  std::size_t consumed = 0, i = 0;
  while (consumed < n) {
    const std::size_t take = std::min(sizes[i++ % 7], n - consumed);
    engine.append(wave.slice(consumed, consumed + take));
    consumed += take;
    ASSERT_EQ(engine.row_count(), consumed);
    expect_matches_cold(engine, ids, wave.slice(0, consumed));
  }
}

// A block that throws mid-scan (a negative weight past a shard boundary
// the block would complete) leaves the cut as it was: re-appending the
// rows afterwards cannot fold the completed head shard twice.
TEST(IncrementalEngineTest, ThrowingBlockLeavesTheCutUnchanged) {
  const data::Table wave = test_wave(9000, 31);
  const data::Table none = wave.clone_empty();
  QueryEngine engine(none);
  const Ids ids = register_standard(engine);
  engine.append(wave.slice(0, 1000));

  data::Table bad = wave.slice(1000, 6000);
  bad.categorical(synth::col::kField).set_code(4500, 0);
  bad.categorical(synth::col::kCareerStage).set_code(4500, 0);
  bad.numeric(synth::col::kDatasetGb).set(4500, -1.0);  // global row 5500
  EXPECT_THROW(engine.append(bad), Error);
  EXPECT_EQ(engine.row_count(), 1000u);

  engine.append(wave.slice(1000, 9000));
  EXPECT_EQ(engine.row_count(), 9000u);
  expect_matches_cold(engine, ids, wave);
}

TEST(IncrementalEngineTest, PoolSizeIsInvariantAtEveryCut) {
  const std::size_t n = 12000;
  const data::Table wave = test_wave(n, 23);
  const data::Table none = wave.clone_empty();
  parallel::ThreadPool pool2(2), pool8(8);

  QueryEngine serial(none), par2(none), par8(none);
  const Ids ids = register_standard(serial);
  register_standard(par2);
  register_standard(par8);

  for (std::size_t lo = 0; lo < n; lo += 1000) {
    const data::Table block = wave.slice(lo, std::min(n, lo + 1000));
    serial.append(block, nullptr);
    par2.append(block, &pool2);
    par8.append(block, &pool8);
    expect_crosstab_bits(serial.raw_result(ids.ct_weighted).crosstab,
                         par2.raw_result(ids.ct_weighted).crosstab);
    expect_crosstab_bits(serial.raw_result(ids.ct_weighted).crosstab,
                         par8.raw_result(ids.ct_weighted).crosstab);
    expect_shares_bits(serial.raw_result(ids.opt).shares,
                       par8.raw_result(ids.opt).shares);
  }
  expect_matches_cold(par8, ids, wave, &pool8);
}

}  // namespace
}  // namespace rcr::query
