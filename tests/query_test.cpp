// The fused-engine contract, pinned: QueryEngine answers a whole batch of
// queries in one sharded scan and reproduces the serial per-query builders
// (kept verbatim in query::reference) bit for bit wherever bitwise identity
// is promised — always on single-shard tables, and for every count-style or
// dyadic-weight accumulator on multi-shard tables. Arbitrary fractional
// weights may reassociate across shard boundaries, but deterministically:
// any pool size yields the same bits as the serial engine walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "query_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rcr {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

struct BigTableOptions {
  std::size_t rows = 10000;  // 3 shards at the engine's 4096-row grain
  std::uint64_t seed = 1234;
  bool dyadic_weights = true;      // false: full-mantissa weights
  bool grown_dictionaries = false; // grow category dicts by label interning
  std::size_t blank_lo = 0;        // rows in [blank_lo, blank_hi) are
  std::size_t blank_hi = 0;        //   missing in every column
};

// field (5 categories) x career (4) x langs (10 options, L9 never chosen)
// x score x w, with per-column missingness. The first rows pin the label
// first-appearance order so grown dictionaries match the frozen ones.
data::Table make_big_table(const BigTableOptions& opt) {
  const std::vector<std::string> fields = {"f0", "f1", "f2", "f3", "f4"};
  const std::vector<std::string> careers = {"c0", "c1", "c2", "c3"};
  std::vector<std::string> langs;
  for (int o = 0; o < 10; ++o)
    langs.push_back(std::string("L").append(std::to_string(o)));

  data::Table t;
  auto& field = opt.grown_dictionaries
                    ? t.add_categorical("field")
                    : t.add_categorical("field", fields);
  auto& career = opt.grown_dictionaries
                     ? t.add_categorical("career")
                     : t.add_categorical("career", careers);
  auto& lang_col = t.add_multiselect("langs", langs);
  auto& score = t.add_numeric("score");
  auto& w = t.add_numeric("w");

  const double dyadic[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  Rng rng(opt.seed);
  for (std::size_t i = 0; i < opt.rows; ++i) {
    if (i >= opt.blank_lo && i < opt.blank_hi) {
      field.push_missing();
      career.push_missing();
      lang_col.push_missing();
      score.push_missing();
      w.push_missing();
      continue;
    }
    // Rows 0..4 pin dictionary order; afterwards ~10% / ~7% missing.
    const bool pin = i < 5;
    if (!pin && rng.next_double() < 0.10) field.push_missing();
    else field.push(fields[pin ? i % fields.size() : rng.next_below(5)]);
    if (!pin && rng.next_double() < 0.07) career.push_missing();
    else career.push(careers[pin ? i % careers.size() : rng.next_below(4)]);
    if (!pin && rng.next_double() < 0.12) {
      lang_col.push_missing();
    } else {
      // Any subset of L0..L8; L9 stays a never-selected option.
      lang_col.push_mask(rng.next_u64() & 0x1FFULL);
    }
    if (!pin && rng.next_double() < 0.08) score.push_missing();
    else score.push(rng.normal() * 10.0 + rng.next_double());
    if (!pin && rng.next_double() < 0.05) w.push_missing();
    else if (opt.dyadic_weights) w.push(dyadic[rng.next_below(5)]);
    else w.push(rng.next_double() * 3.0 + 0.5);
  }
  return t;
}

std::vector<double> arbitrary_weights(std::size_t rows, std::uint64_t seed) {
  std::vector<double> w(rows);
  Rng rng(seed);
  for (auto& v : w) v = rng.next_double() * 2.0 + 0.1;
  return w;
}

void expect_crosstab_bitwise(const data::LabeledCrosstab& got,
                             const data::LabeledCrosstab& want) {
  ASSERT_EQ(got.row_labels, want.row_labels);
  ASSERT_EQ(got.col_labels, want.col_labels);
  ASSERT_EQ(got.counts.rows(), want.counts.rows());
  ASSERT_EQ(got.counts.cols(), want.counts.cols());
  for (std::size_t r = 0; r < want.counts.rows(); ++r)
    for (std::size_t c = 0; c < want.counts.cols(); ++c)
      EXPECT_EQ(bits_of(got.counts.at(r, c)), bits_of(want.counts.at(r, c)))
          << "cell (" << r << ", " << c << ")";
}

void expect_share_bitwise(const data::OptionShare& got,
                          const data::OptionShare& want) {
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(bits_of(got.count), bits_of(want.count));
  EXPECT_EQ(bits_of(got.total), bits_of(want.total));
  EXPECT_EQ(bits_of(got.share.estimate), bits_of(want.share.estimate));
  EXPECT_EQ(bits_of(got.share.lo), bits_of(want.share.lo));
  EXPECT_EQ(bits_of(got.share.hi), bits_of(want.share.hi));
}

void expect_shares_bitwise(const std::vector<data::OptionShare>& got,
                           const std::vector<data::OptionShare>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < want.size(); ++o) {
    SCOPED_TRACE("option " + want[o].label);
    expect_share_bitwise(got[o], want[o]);
  }
}

// --- bitwise equivalence against the serial reference builders --------------

// Unweighted count accumulators are exact under any association, so even
// the 3-shard table must reproduce the one-scan-per-query reference bitwise.
TEST(QueryEngineTest, UnweightedMultiShardMatchesReferenceBitwise) {
  const data::Table t = make_big_table({});
  ASSERT_GT(t.row_count(), query::kShardRows);  // really multi-shard

  query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("field", "career");
  const auto ms = engine.add_crosstab_multiselect("field", "langs");
  const auto os = engine.add_option_shares("langs");
  const auto cs = engine.add_category_shares("career");
  engine.run();

  expect_crosstab_bitwise(engine.crosstab(ct),
                          query::reference::crosstab(t, "field", "career"));
  expect_crosstab_bitwise(
      engine.crosstab(ms),
      query::reference::crosstab_multiselect(t, "field", "langs"));
  expect_shares_bitwise(engine.shares(os),
                        query::reference::option_shares(t, "langs"));
  expect_shares_bitwise(engine.shares(cs),
                        query::reference::category_shares(t, "career"));

  // L9 exists in the schema but no row selects it: present with count 0.
  EXPECT_EQ(engine.shares(os).back().label, "L9");
  EXPECT_EQ(engine.shares(os).back().count, 0.0);
}

// At or below kShardRows the engine runs one shard, which is the
// reference builders' left-to-right association exactly — arbitrary
// fractional weights included.
TEST(QueryEngineTest, WeightedSingleShardMatchesReferenceBitwise) {
  BigTableOptions opt;
  opt.rows = 3000;
  opt.dyadic_weights = false;
  const data::Table t = make_big_table(opt);
  const std::vector<double> ext = arbitrary_weights(t.row_count(), 99);

  query::QueryEngine engine(t);
  const auto ct =
      engine.add_crosstab("field", "career", std::optional<std::string>{"w"});
  const auto ms = engine.add_crosstab_multiselect(
      "field", "langs", std::optional<std::string>{"w"});
  const auto ws = engine.add_weighted_option_share("langs", "L3", ext);
  engine.run();

  expect_crosstab_bitwise(
      engine.crosstab(ct),
      query::reference::crosstab(t, "field", "career",
                                 std::optional<std::string>{"w"}));
  expect_crosstab_bitwise(
      engine.crosstab(ms),
      query::reference::crosstab_multiselect(t, "field", "langs",
                                             std::optional<std::string>{"w"}));
  expect_share_bitwise(
      engine.weighted_share(ws),
      query::reference::weighted_option_share(t, "langs", "L3", ext));
}

// Dyadic weights (quarters through fours) have exact partial sums in
// double, so shard-boundary reassociation cannot change the bits even on a
// multi-shard table.
TEST(QueryEngineTest, DyadicWeightsStayBitwiseAcrossShards) {
  const data::Table t = make_big_table({});  // 10000 rows, dyadic "w"
  ASSERT_GT(t.row_count(), query::kShardRows);

  query::QueryEngine engine(t);
  const auto ct =
      engine.add_crosstab("field", "career", std::optional<std::string>{"w"});
  const auto ms = engine.add_crosstab_multiselect(
      "field", "langs", std::optional<std::string>{"w"});
  engine.run();

  expect_crosstab_bitwise(
      engine.crosstab(ct),
      query::reference::crosstab(t, "field", "career",
                                 std::optional<std::string>{"w"}));
  expect_crosstab_bitwise(
      engine.crosstab(ms),
      query::reference::crosstab_multiselect(t, "field", "langs",
                                             std::optional<std::string>{"w"}));
}

// Full-mantissa weights on a multi-shard table: near the reference (the
// association differs), and bitwise invariant across pool sizes including
// the serial walk.
TEST(QueryEngineTest, ArbitraryWeightsMultiShardNearReferenceAndPoolStable) {
  BigTableOptions opt;
  opt.dyadic_weights = false;
  const data::Table t = make_big_table(opt);
  const std::vector<double> ext = arbitrary_weights(t.row_count(), 7);

  const auto run_engine = [&](parallel::ThreadPool* pool) {
    query::QueryEngine engine(t);
    engine.add_crosstab("field", "career", std::optional<std::string>{"w"});
    engine.add_weighted_option_share("langs", "L5", ext);
    engine.run(pool);
    return std::pair<data::LabeledCrosstab, data::OptionShare>{
        engine.crosstab(0), engine.weighted_share(1)};
  };

  const auto [serial_ct, serial_ws] = run_engine(nullptr);
  const auto ref_ct = query::reference::crosstab(
      t, "field", "career", std::optional<std::string>{"w"});
  const auto ref_ws =
      query::reference::weighted_option_share(t, "langs", "L5", ext);
  for (std::size_t r = 0; r < ref_ct.counts.rows(); ++r)
    for (std::size_t c = 0; c < ref_ct.counts.cols(); ++c)
      EXPECT_NEAR(serial_ct.counts.at(r, c), ref_ct.counts.at(r, c),
                  1e-9 * (1.0 + ref_ct.counts.at(r, c)));
  EXPECT_NEAR(serial_ws.share.estimate, ref_ws.share.estimate, 1e-12);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto [pooled_ct, pooled_ws] = run_engine(&pool);
    expect_crosstab_bitwise(pooled_ct, serial_ct);
    expect_share_bitwise(pooled_ws, serial_ws);
  }
}

// --- structure: missing bands, empty shards, dictionaries -------------------

// The middle shard of a 3-shard table is entirely missing (an all-blank
// row band): its partial is the identity and must merge away.
TEST(QueryEngineTest, AllMissingShardContributesIdentity) {
  BigTableOptions opt;
  opt.rows = 9000;
  opt.blank_lo = 4096;
  opt.blank_hi = 8192;  // exactly the second 4096-row shard
  const data::Table t = make_big_table(opt);

  query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("field", "career");
  const auto os = engine.add_option_shares("langs");
  const auto ns = engine.add_numeric_summary("score");
  engine.run();

  expect_crosstab_bitwise(engine.crosstab(ct),
                          query::reference::crosstab(t, "field", "career"));
  expect_shares_bitwise(engine.shares(os),
                        query::reference::option_shares(t, "langs"));
  // The band shrinks the answered totals accordingly.
  EXPECT_LT(engine.shares(os).front().total, 5000.0);
  EXPECT_GT(engine.numeric(ns).count, 0.0);
}

// A grown (label-interned) dictionary with the same first-appearance order
// answers identically to the frozen-schema table.
TEST(QueryEngineTest, FrozenAndGrownDictionariesAgreeBitwise) {
  BigTableOptions opt;
  const data::Table frozen = make_big_table(opt);
  opt.grown_dictionaries = true;
  const data::Table grown = make_big_table(opt);
  ASSERT_EQ(frozen.categorical("field").categories(),
            grown.categorical("field").categories());

  const auto run_one = [](const data::Table& t) {
    query::QueryEngine engine(t);
    engine.add_crosstab("field", "career");
    engine.add_category_shares("field");
    engine.run();
    return std::pair<data::LabeledCrosstab, std::vector<data::OptionShare>>{
        engine.crosstab(0), engine.shares(1)};
  };
  const auto [ct_frozen, cs_frozen] = run_one(frozen);
  const auto [ct_grown, cs_grown] = run_one(grown);
  expect_crosstab_bitwise(ct_grown, ct_frozen);
  expect_shares_bitwise(cs_grown, cs_frozen);
}

// A frozen category no row uses yields an all-zero crosstab row and a
// zero-count share — never a dropped label.
TEST(QueryEngineTest, UnusedFrozenCategoryKeepsZeroRow) {
  data::Table t;
  auto& a = t.add_categorical("a", {"x", "y", "ghost"});
  auto& b = t.add_categorical("b", {"u", "v"});
  for (int i = 0; i < 6; ++i) {
    a.push(i % 2 == 0 ? "x" : "y");
    b.push(i < 3 ? "u" : "v");
  }

  query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("a", "b");
  const auto cs = engine.add_category_shares("a");
  engine.run();

  const auto& got = engine.crosstab(ct);
  ASSERT_EQ(got.row_labels.size(), 3u);
  EXPECT_EQ(got.counts.at(2, 0), 0.0);
  EXPECT_EQ(got.counts.at(2, 1), 0.0);
  EXPECT_EQ(engine.shares(cs).back().label, "ghost");
  EXPECT_EQ(engine.shares(cs).back().count, 0.0);
  expect_crosstab_bitwise(got, query::reference::crosstab(t, "a", "b"));
}

// --- the query kinds without a data:: counterpart ---------------------------

TEST(QueryEngineTest, NumericSummaryMatchesDirectWalk) {
  const data::Table t = make_big_table({});
  const auto& values = t.numeric("score").values();
  double count = 0.0, sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const double v : values) {
    if (data::NumericColumn::is_missing(v)) continue;
    count += 1.0;
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }

  query::QueryEngine engine(t);
  const auto ns = engine.add_numeric_summary("score");
  engine.run();
  const auto& got = engine.numeric(ns);
  EXPECT_EQ(bits_of(got.count), bits_of(count));
  // Count/min/max are association-free; the sum is near across shards.
  EXPECT_NEAR(got.sum, sum, 1e-9 * (1.0 + std::abs(sum)));
  EXPECT_EQ(bits_of(got.min), bits_of(mn));
  EXPECT_EQ(bits_of(got.max), bits_of(mx));
  EXPECT_NEAR(got.mean(), sum / count, 1e-12);
}

TEST(QueryEngineTest, NumericSummaryOfAllMissingColumnIsEmpty) {
  data::Table t;
  auto& v = t.add_numeric("v");
  for (int i = 0; i < 10; ++i) v.push_missing();

  query::QueryEngine engine(t);
  const auto ns = engine.add_numeric_summary("v");
  engine.run();
  EXPECT_EQ(engine.numeric(ns).count, 0.0);
  EXPECT_TRUE(std::isnan(engine.numeric(ns).min));
  EXPECT_TRUE(std::isnan(engine.numeric(ns).max));
  EXPECT_EQ(engine.numeric(ns).mean(), 0.0);
}

TEST(QueryEngineTest, GroupAnsweredMatchesGroupRowsWalk) {
  const data::Table t = make_big_table({});

  query::QueryEngine engine(t);
  const auto vs_langs = engine.add_group_answered("field", "langs");
  const auto vs_score = engine.add_group_answered("field", "score");
  engine.run();

  const auto& langs = t.multiselect("langs");
  const auto& score = t.numeric("score");
  const auto groups = t.group_rows("field");
  ASSERT_EQ(engine.group_answered(vs_langs).size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    double n_langs = 0.0, n_score = 0.0;
    for (const std::size_t row : groups[g]) {
      if (!langs.is_missing(row)) n_langs += 1.0;
      if (!data::NumericColumn::is_missing(score.at(row))) n_score += 1.0;
    }
    EXPECT_EQ(bits_of(engine.group_answered(vs_langs)[g]), bits_of(n_langs))
        << "group " << g;
    EXPECT_EQ(bits_of(engine.group_answered(vs_score)[g]), bits_of(n_score))
        << "group " << g;
  }
}

// --- validation and error paths ---------------------------------------------

TEST(QueryEngineTest, ResultsRequireRunAndMatchingKind) {
  const data::Table t = make_big_table({.rows = 50});
  query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("field", "career");
  const auto os = engine.add_option_shares("langs");
  EXPECT_FALSE(engine.ran());
  EXPECT_EQ(engine.query_count(), 2u);
  EXPECT_THROW(engine.crosstab(ct), Error);  // run() not called yet

  engine.run();
  EXPECT_TRUE(engine.ran());
  EXPECT_THROW(engine.crosstab(99), Error);       // unknown id
  EXPECT_THROW(engine.weighted_share(ct), Error); // wrong kind
  EXPECT_THROW(engine.shares(ct), Error);
  EXPECT_NO_THROW(engine.crosstab(ct));
  EXPECT_NO_THROW(engine.shares(os));

  // Registration closes at the first fold, and run() folds only once.
  EXPECT_THROW(engine.add_numeric_summary("score"), Error);
  EXPECT_THROW(engine.run(), Error);
  EXPECT_EQ(engine.query_count(), 2u);
  EXPECT_NO_THROW(engine.crosstab(ct));
}

TEST(QueryEngineTest, RegistrationValidatesColumns) {
  data::Table t;
  t.add_categorical("empty");  // zero categories
  auto& a = t.add_categorical("a", {"x"});
  auto& m = t.add_multiselect("m", {"o1", "o2"});
  a.push("x");
  m.push_mask(1);
  t.add_numeric("v").push(1.0);

  query::QueryEngine engine(t);
  EXPECT_THROW(engine.add_crosstab("empty", "a"), Error);
  EXPECT_THROW(engine.add_crosstab("a", "m"), Error);   // kind mismatch
  EXPECT_THROW(engine.add_crosstab("a", "nope"), Error);
  EXPECT_THROW(engine.add_crosstab_multiselect("empty", "m"), Error);
  EXPECT_THROW(
      engine.add_crosstab("a", "a", std::optional<std::string>{"m"}), Error);
  const std::vector<double> short_w = {1.0, 2.0};
  EXPECT_THROW(engine.add_weighted_option_share("m", "o1", short_w), Error);
  const std::vector<double> ok_w = {1.0};
  EXPECT_THROW(engine.add_weighted_option_share("m", "nope", ok_w), Error);
  EXPECT_THROW(engine.add_numeric_summary("a"), Error);
  EXPECT_THROW(engine.add_group_answered("empty", "v"), Error);
  EXPECT_THROW(engine.add_group_answered("a", "nope"), Error);
}

TEST(QueryEngineTest, NegativeWeightThrowsSeriallyAndPooled) {
  BigTableOptions opt;
  opt.rows = 10000;
  const data::Table base = make_big_table(opt);
  data::Table t = base;
  // Pin one last-shard row: both categories present, weight negative.
  t.categorical("field").set_code(8000, 0);
  t.categorical("career").set_code(8000, 0);
  t.numeric("w").set(8000, -1.0);

  query::QueryEngine engine(t);
  engine.add_crosstab("field", "career", std::optional<std::string>{"w"});
  EXPECT_THROW(engine.run(), Error);

  parallel::ThreadPool pool(4);
  query::QueryEngine pooled(t);
  pooled.add_crosstab("field", "career", std::optional<std::string>{"w"});
  EXPECT_THROW(pooled.run(&pool), Error);  // pool rethrows on the caller
  EXPECT_FALSE(pooled.ran());
}

TEST(QueryEngineTest, NoAnsweredRowsThrowsTheBuildersError) {
  data::Table t;
  auto& m = t.add_multiselect("m", {"o1"});
  auto& c = t.add_categorical("c", {"x"});
  for (int i = 0; i < 3; ++i) {
    m.push_missing();
    c.push_missing();
  }
  {
    query::QueryEngine engine(t);
    engine.add_option_shares("m");
    EXPECT_THROW(engine.run(), Error);
  }
  {
    query::QueryEngine engine(t);
    engine.add_category_shares("c");
    EXPECT_THROW(engine.run(), Error);
  }
  {
    const std::vector<double> w = {1.0, 1.0, 1.0};
    query::QueryEngine engine(t);
    engine.add_weighted_option_share("m", "o1", w);
    EXPECT_THROW(engine.run(), Error);
  }
}

// --- instrumentation ---------------------------------------------------------

#ifndef RCR_OBS_DISABLED
TEST(QueryEngineTest, ObsCountsFusedVsNaiveEquivalentScans) {
  const data::Table t = make_big_table({.rows = 500});
  auto& fused = obs::registry().counter("query.scan.fused");
  auto& naive = obs::registry().counter("query.scan.naive_equivalent");
  auto& rows = obs::registry().counter("query.rows");
  const auto fused0 = fused.total();
  const auto naive0 = naive.total();
  const auto rows0 = rows.total();

  query::QueryEngine engine(t);
  engine.add_crosstab("field", "career");
  engine.add_option_shares("langs");
  engine.add_numeric_summary("score");
  engine.run();

  // One fused pass replaced three per-query full-table scans.
  EXPECT_EQ(fused.total(), fused0 + 1);
  EXPECT_EQ(naive.total(), naive0 + 3);
  EXPECT_EQ(rows.total(), rows0 + t.row_count());
}
#endif

}  // namespace
}  // namespace rcr
