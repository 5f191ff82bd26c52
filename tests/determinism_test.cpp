// The reproducibility contract, pinned: a single master seed reproduces
// every parallel computation byte-for-byte, on any pool size, run after
// run. These are the assertions the bootstrap header promises and the
// survey's reproducibility discussion depends on (serial/parallel
// equivalence is the whole point of index-derived replicate streams).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "data/table.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "simd/dispatch.hpp"
#include "simd/philox.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stream/table_sketch.hpp"
#include "util/rng.hpp"

namespace rcr {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

std::vector<double> noisy_data(std::size_t n, std::uint64_t seed) {
  std::vector<double> data(n);
  Rng rng(seed);
  // Full-mantissa values so any reassociation of the sum changes bits.
  for (auto& v : data) v = rng.normal() * 1e3 + rng.next_double();
  return data;
}

// Acceptance check from the determinism fix: a 1e6-element floating-point
// reduction is bitwise identical for 1, 2, and 8 threads across 3 runs.
TEST(DeterminismTest, MillionElementReduceIsBitwiseStable) {
  const std::size_t n = 1000000;
  const std::vector<double> data = noisy_data(n, 2024);

  const auto reduce_sum = [&](parallel::ThreadPool& pool,
                              parallel::Schedule schedule) {
    return parallel::parallel_reduce<double>(
        pool, 0, n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += data[i];
          return s;
        },
        [](double a, double b) { return a + b; }, {schedule, 0});
  };

  parallel::ThreadPool reference_pool(1);
  const std::uint64_t reference =
      bits_of(reduce_sum(reference_pool, parallel::Schedule::kStatic));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    for (int run = 0; run < 3; ++run) {
      for (const auto schedule :
           {parallel::Schedule::kStatic, parallel::Schedule::kDynamic}) {
        EXPECT_EQ(bits_of(reduce_sum(pool, schedule)), reference)
            << "threads=" << threads << " run=" << run << " schedule="
            << (schedule == parallel::Schedule::kStatic ? "static"
                                                        : "dynamic");
      }
    }
  }
}

TEST(DeterminismTest, BootstrapPooledMatchesSerialByteForByte) {
  const std::vector<double> data = noisy_data(400, 99);
  stats::BootstrapOptions serial_opts;
  serial_opts.replicates = 500;
  serial_opts.seed = 31;
  serial_opts.compute_bca = true;
  const auto serial = stats::bootstrap(
      data, [](std::span<const double> x) { return stats::mean(x); },
      serial_opts);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    stats::BootstrapOptions opts = serial_opts;
    opts.pool = &pool;
    const auto pooled = stats::bootstrap(
        data, [](std::span<const double> x) { return stats::mean(x); }, opts);

    ASSERT_EQ(pooled.replicates.size(), serial.replicates.size());
    for (std::size_t i = 0; i < serial.replicates.size(); ++i) {
      ASSERT_EQ(bits_of(pooled.replicates[i]), bits_of(serial.replicates[i]))
          << "threads=" << threads << " replicate " << i;
    }
    EXPECT_EQ(bits_of(pooled.estimate), bits_of(serial.estimate));
    EXPECT_EQ(bits_of(pooled.std_error), bits_of(serial.std_error));
    EXPECT_EQ(bits_of(pooled.percentile_ci.lo),
              bits_of(serial.percentile_ci.lo));
    EXPECT_EQ(bits_of(pooled.percentile_ci.hi),
              bits_of(serial.percentile_ci.hi));
    EXPECT_EQ(bits_of(pooled.bca_ci.lo), bits_of(serial.bca_ci.lo));
    EXPECT_EQ(bits_of(pooled.bca_ci.hi), bits_of(serial.bca_ci.hi));
  }
}

// The fused query engine carries the same contract: a multi-shard weighted
// batch fingerprints identically for the serial walk and pools of 1, 2, and
// 8 threads, run after run. (The shard layout is a pure function of the row
// count and the merge runs in shard index order, so thread scheduling can
// never reach the bits.)
TEST(DeterminismTest, QueryEngineFingerprintIsPoolSizeInvariant) {
  const std::size_t n = 20000;  // 5 shards at the engine's 4096-row grain
  data::Table t;
  auto& group = t.add_categorical("group", {"g0", "g1", "g2", "g3"});
  auto& picks = t.add_multiselect("picks", {"p0", "p1", "p2", "p3", "p4"});
  auto& value = t.add_numeric("value");
  auto& weight = t.add_numeric("weight");
  Rng rng(606);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.05) group.push_missing();
    else group.push_code(static_cast<std::int32_t>(rng.next_below(4)));
    if (rng.next_double() < 0.08) picks.push_missing();
    else picks.push_mask(rng.next_u64() & 0x1FULL);
    value.push(rng.normal() * 1e3 + rng.next_double());
    // Full-mantissa weights: any reassociation of a weighted sum would
    // change bits, so the fingerprint is sensitive to scheduling leaks.
    weight.push(rng.next_double() * 2.0 + 0.25);
  }
  const std::span<const double> ext = weight.values();

  const auto fingerprint = [&](parallel::ThreadPool* pool) {
    query::QueryEngine engine(t);
    const auto ct = engine.add_crosstab("group", "group",
                                        std::optional<std::string>{"weight"});
    const auto ms = engine.add_crosstab_multiselect("group", "picks");
    const auto os = engine.add_option_shares("picks");
    const auto ws = engine.add_weighted_option_share("picks", "p2", ext);
    const auto ns = engine.add_numeric_summary("value");
    engine.run(pool);

    std::uint64_t fp = 0;
    const auto fold = [&](double v) {
      fp = fp * 0x9E3779B97F4A7C15ULL + bits_of(v);
    };
    for (const auto* x : {&engine.crosstab(ct), &engine.crosstab(ms)})
      for (std::size_t r = 0; r < x->counts.rows(); ++r)
        for (std::size_t c = 0; c < x->counts.cols(); ++c)
          fold(x->counts.at(r, c));
    for (const auto& s : engine.shares(os)) {
      fold(s.count);
      fold(s.total);
      fold(s.share.lo);
      fold(s.share.hi);
    }
    fold(engine.weighted_share(ws).count);
    fold(engine.weighted_share(ws).share.estimate);
    fold(engine.numeric(ns).sum);
    fold(engine.numeric(ns).min);
    fold(engine.numeric(ns).max);
    return fp;
  };

  const std::uint64_t reference = fingerprint(nullptr);
  EXPECT_EQ(fingerprint(nullptr), reference);  // serial is stable
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    for (int run = 0; run < 3; ++run)
      EXPECT_EQ(fingerprint(&pool), reference)
          << "threads=" << threads << " run=" << run;
  }
}

// --- SIMD width invariance --------------------------------------------------
// The rcr::simd kernels promise bits identical to their scalar (width-1)
// instantiation. These tests force the scalar path, record a fingerprint,
// then re-run at the native width (whatever the build and CPU provide —
// on a -DRCR_SIMD_WIDTH=1 build both passes are scalar and the assertions
// hold trivially) and at every pool size, so a vectorization bug can never
// hide behind thread scheduling.

// Pins dispatch to one ISA for a scope.
struct ForcedIsa {
  explicit ForcedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ForcedIsa() { simd::clear_isa_override(); }
};

TEST(DeterminismTest, QueryEngineFingerprintIsSimdWidthInvariant) {
  const std::size_t n = 20000;
  data::Table t;
  auto& group = t.add_categorical("group", {"g0", "g1", "g2", "g3"});
  auto& picks = t.add_multiselect("picks", {"p0", "p1", "p2", "p3", "p4"});
  auto& value = t.add_numeric("value");
  auto& weight = t.add_numeric("weight");
  Rng rng(909);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.05) group.push_missing();
    else group.push_code(static_cast<std::int32_t>(rng.next_below(4)));
    if (rng.next_double() < 0.08) picks.push_missing();
    else picks.push_mask(rng.next_u64() & 0x1FULL);
    value.push(rng.normal() * 1e3 + rng.next_double());
    weight.push(rng.next_double() * 2.0 + 0.25);
  }

  const auto fingerprint = [&](parallel::ThreadPool* pool) {
    query::QueryEngine engine(t);
    const auto ct = engine.add_crosstab_multiselect("group", "picks");
    const auto ctw = engine.add_crosstab_multiselect(
        "group", "picks", std::optional<std::string>{"weight"});
    const auto os = engine.add_option_shares("picks");
    engine.run(pool);

    std::uint64_t fp = 0;
    const auto fold = [&](double v) {
      fp = fp * 0x9E3779B97F4A7C15ULL + bits_of(v);
    };
    for (const auto* x : {&engine.crosstab(ct), &engine.crosstab(ctw)})
      for (std::size_t r = 0; r < x->counts.rows(); ++r)
        for (std::size_t c = 0; c < x->counts.cols(); ++c)
          fold(x->counts.at(r, c));
    for (const auto& s : engine.shares(os)) {
      fold(s.count);
      fold(s.total);
      fold(s.share.estimate);
    }
    return fp;
  };

  std::uint64_t reference = 0;
  {
    ForcedIsa scalar(simd::Isa::kScalar);
    reference = fingerprint(nullptr);
  }
  // Native width (no override), serial and pooled.
  EXPECT_EQ(fingerprint(nullptr), reference) << "native serial";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(fingerprint(&pool), reference)
        << "native width, threads=" << threads;
  }
}

TEST(DeterminismTest, TableSketchFingerprintIsSimdWidthInvariant) {
  // Two blocks with a non-multiple-of-any-lane-width row count each, so the
  // batched CM/HLL inserts exercise their masked tails.
  const auto make_block = [](std::size_t rows, std::uint64_t seed) {
    data::Table b;
    auto& field = b.add_categorical("field", {"f0", "f1", "f2"});
    auto& langs = b.add_multiselect("langs", {"l0", "l1", "l2", "l3"});
    auto& score = b.add_numeric("score");
    Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i) {
      if (rng.next_double() < 0.06) field.push_missing();
      else field.push_code(static_cast<std::int32_t>(rng.next_below(3)));
      if (rng.next_double() < 0.09) langs.push_missing();
      else langs.push_mask(rng.next_u64() & 0xFULL);
      if (rng.next_double() < 0.04) score.push_missing();
      else score.push(rng.normal() * 7.0 + 20.0);
    }
    return b;
  };
  const data::Table block_a = make_block(1003, 1);
  const data::Table block_b = make_block(517, 2);

  const auto fingerprint = [&] {
    stream::TableSketch sketch(block_a);
    sketch.ingest(block_a, 0);
    sketch.ingest(block_b, block_a.row_count());

    std::uint64_t fp = 0;
    const auto fold = [&](double v) {
      fp = fp * 0x9E3779B97F4A7C15ULL + bits_of(v);
    };
    const auto& cms = sketch.label_cms();
    fold(cms.total_weight());
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        domains = {{"field", {"f0", "f1", "f2"}},
                   {"langs", {"l0", "l1", "l2", "l3"}}};
    for (const auto& [column, labels] : domains)
      for (const auto& label : labels)
        fold(cms.estimate(stream::TableSketch::label_key(column, label)));
    fold(sketch.distinct().estimate());
    return fp;
  };

  std::uint64_t reference = 0;
  {
    ForcedIsa scalar(simd::Isa::kScalar);
    reference = fingerprint();
  }
  EXPECT_EQ(fingerprint(), reference) << "native width";
}

TEST(DeterminismTest, PhiloxFillsAreSimdWidthInvariant) {
  // 1003 draws from position 1: a half-block head, a vector body, and a
  // block tail that is a multiple of no lane width — the maskstore path.
  std::vector<std::uint64_t> want_u64(1003);
  std::vector<double> want_f64(1003);
  {
    ForcedIsa scalar(simd::Isa::kScalar);
    simd::Philox g(2024, 3);
    g.seek(1);
    g.fill_u64(want_u64);
    simd::Philox h(2024, 3);
    h.seek(1);
    h.fill_double(want_f64);
  }
  std::vector<std::uint64_t> got_u64(1003);
  std::vector<double> got_f64(1003);
  simd::Philox g(2024, 3);
  g.seek(1);
  g.fill_u64(got_u64);
  simd::Philox h(2024, 3);
  h.seek(1);
  h.fill_double(got_f64);
  EXPECT_EQ(got_u64, want_u64);
  for (std::size_t i = 0; i < want_f64.size(); ++i)
    ASSERT_EQ(bits_of(got_f64[i]), bits_of(want_f64[i])) << "i=" << i;
}

// --- Incremental delta-merge ------------------------------------------------
// QueryEngine::append's O(delta) folds carry the full contract: at
// EVERY block cut the live results fingerprint-match a cold QueryEngine
// recompute over all rows so far, for thread counts 0/1/2/8 and with the
// SIMD kernels forced scalar (the partial scans ride the same kernels the
// cold engine does, so a width or scheduling leak would surface here).
TEST(DeterminismTest, IncrementalCutsMatchColdRecomputeAcrossPoolsAndWidths) {
  const std::size_t n = 20000;  // 5 fixed-stride shards
  data::Table t;
  auto& group = t.add_categorical("group", {"g0", "g1", "g2", "g3"});
  auto& picks = t.add_multiselect("picks", {"p0", "p1", "p2", "p3", "p4"});
  auto& value = t.add_numeric("value");
  auto& weight = t.add_numeric("weight");
  Rng rng(1212);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.05) group.push_missing();
    else group.push_code(static_cast<std::int32_t>(rng.next_below(4)));
    if (rng.next_double() < 0.08) picks.push_missing();
    else picks.push_mask(rng.next_u64() & 0x1FULL);
    value.push(rng.normal() * 1e3 + rng.next_double());
    weight.push(rng.next_double() * 2.0 + 0.25);
  }

  // Registration shared by both engines; the fingerprint folds every
  // result double of the batch.
  const auto register_batch = [](auto& engine) {
    engine.add_crosstab("group", "group",
                        std::optional<std::string>{"weight"});
    engine.add_crosstab_multiselect("group", "picks");
    engine.add_option_shares("picks");
    engine.add_numeric_summary("value");
  };
  const auto fold_results = [&](const query::QueryResult& ct,
                                const query::QueryResult& ms,
                                const query::QueryResult& os,
                                const query::QueryResult& ns) {
    std::uint64_t fp = 0;
    const auto fold = [&](double v) {
      fp = fp * 0x9E3779B97F4A7C15ULL + bits_of(v);
    };
    for (const auto* x : {&ct.crosstab, &ms.crosstab})
      for (std::size_t r = 0; r < x->counts.rows(); ++r)
        for (std::size_t c = 0; c < x->counts.cols(); ++c)
          fold(x->counts.at(r, c));
    for (const auto& s : os.shares) {
      fold(s.count);
      fold(s.total);
      fold(s.share.lo);
      fold(s.share.hi);
    }
    fold(ns.numeric.sum);
    fold(ns.numeric.min);
    fold(ns.numeric.max);
    return fp;
  };

  const std::size_t block = 1537;  // ragged: every append resumes mid-shard
  const data::Table none = t.clone_empty();
  const auto incremental_cut_fps = [&](parallel::ThreadPool* pool) {
    query::QueryEngine engine(none);
    register_batch(engine);
    std::vector<std::uint64_t> fps;
    for (std::size_t lo = 0; lo < n; lo += block) {
      engine.append(t.slice(lo, std::min(n, lo + block)), pool);
      fps.push_back(fold_results(engine.raw_result(0), engine.raw_result(1),
                                 engine.raw_result(2), engine.raw_result(3)));
    }
    return fps;
  };
  const auto cold_fp = [&](std::size_t rows, parallel::ThreadPool* pool) {
    const data::Table prefix = t.slice(0, rows);
    query::QueryEngine engine(prefix);
    register_batch(engine);
    engine.run(pool);
    return fold_results(engine.raw_result(0), engine.raw_result(1),
                        engine.raw_result(2), engine.raw_result(3));
  };

  // Reference: forced-scalar serial incremental walk, checked cut by cut
  // against the forced-scalar serial cold recompute.
  std::vector<std::uint64_t> reference;
  {
    ForcedIsa scalar(simd::Isa::kScalar);
    reference = incremental_cut_fps(nullptr);
    std::size_t cut = 0;
    for (std::size_t lo = 0; lo < n; lo += block, ++cut)
      ASSERT_EQ(reference[cut], cold_fp(std::min(n, lo + block), nullptr))
          << "scalar serial cut " << cut;
  }

  // Native width, every pool size: same fingerprints at every cut, and the
  // pooled cold recompute agrees at the final cut.
  EXPECT_EQ(incremental_cut_fps(nullptr), reference) << "native serial";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(incremental_cut_fps(&pool), reference)
        << "threads=" << threads;
    EXPECT_EQ(cold_fp(n, &pool), reference.back())
        << "cold, threads=" << threads;
  }
}

// Repeated pooled runs are stable too (no hidden global state).
TEST(DeterminismTest, RepeatedPooledBootstrapRunsAreIdentical) {
  const std::vector<double> data = noisy_data(200, 404);
  parallel::ThreadPool pool(4);
  stats::BootstrapOptions opts;
  opts.replicates = 300;
  opts.seed = 9;
  opts.pool = &pool;

  const auto first = stats::bootstrap(
      data, [](std::span<const double> x) { return stats::mean(x); }, opts);
  for (int run = 0; run < 2; ++run) {
    const auto again = stats::bootstrap(
        data, [](std::span<const double> x) { return stats::mean(x); }, opts);
    ASSERT_EQ(again.replicates.size(), first.replicates.size());
    for (std::size_t i = 0; i < first.replicates.size(); ++i)
      ASSERT_EQ(bits_of(again.replicates[i]), bits_of(first.replicates[i]));
  }
}

}  // namespace
}  // namespace rcr
