// Macrobenchmark of the fused query engine: one sharded scan answering a
// thirteen-query batch (two crosstabs, two weighted crosstabs, option and
// category shares, weighted shares, a numeric summary, two group-answered
// counts — the shape of the study's per-wave batch) vs.
// the sequential per-query builders it replaced (query::reference, one full
// table scan each, weight column re-resolved by name per row, multi-select
// cells probed option by option). Emits a JSON report (stdout, or --out
// FILE) so CI can keep a machine-readable baseline; the acceptance bar is
// fused >= 3x the sequential baseline on the 1M-row default batch.
//
// Both paths produce the same numbers — the report carries a "verified"
// flag (near-equality; shard reassociation may move fractional weighted
// sums by ulps) and a bit-folded checksum of the fused results. A second
// gate, "simd_verified", is strict: the engine's SIMD kernels must
// reproduce the forced-scalar result bits exactly at every pool size
// (serial, 1, 2, 8), or the process exits 2. The report also breaks the
// batch down per query kind ("per_query": each kind re-run alone on the
// engine) and records the dispatched SIMD ISA ("simd").
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "query_reference.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

std::uint64_t g_sink = 0;  // folded results, so the optimizer keeps the work

void fold(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  g_sink = g_sink * 0x9E3779B97F4A7C15ULL + b;
}

// A survey-shaped table at bench scale: two categoricals, two
// multi-selects, a numeric answer, and a full-mantissa weight column.
rcr::data::Table make_table(std::size_t rows, std::uint64_t seed) {
  std::vector<std::string> fields, careers, langs, se;
  for (int i = 0; i < 6; ++i) fields.push_back("field" + std::to_string(i));
  for (int i = 0; i < 4; ++i) careers.push_back("career" + std::to_string(i));
  for (int i = 0; i < 12; ++i) langs.push_back("lang" + std::to_string(i));
  for (int i = 0; i < 8; ++i) se.push_back("se" + std::to_string(i));

  rcr::data::Table t;
  auto& field = t.add_categorical("field", fields);
  auto& career = t.add_categorical("career", careers);
  auto& lang_col = t.add_multiselect("langs", langs);
  auto& se_col = t.add_multiselect("se", se);
  auto& score = t.add_numeric("score");
  auto& w = t.add_numeric("w");

  rcr::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.next_double() < 0.08) field.push_missing();
    else field.push_code(static_cast<std::int32_t>(rng.next_below(6)));
    if (rng.next_double() < 0.05) career.push_missing();
    else career.push_code(static_cast<std::int32_t>(rng.next_below(4)));
    // Sparse selections, like real "check all that apply" answers: the
    // AND of two draws averages ~3 of 12 languages, ~2 of 8 practices.
    if (rng.next_double() < 0.10) lang_col.push_missing();
    else lang_col.push_mask(rng.next_u64() & rng.next_u64() & 0xFFFULL);
    if (rng.next_double() < 0.12) se_col.push_missing();
    else se_col.push_mask(rng.next_u64() & rng.next_u64() & 0xFFULL);
    if (rng.next_double() < 0.07) score.push_missing();
    else score.push(rng.normal() * 12.0 + 40.0);
    if (rng.next_double() < 0.04) w.push_missing();
    else w.push(rng.next_double() * 2.0 + 0.25);
  }
  return t;
}

double best_of(int runs, const auto& pass) {
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    rcr::Stopwatch sw;
    pass();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

// Everything the batch computes, in one comparable bundle.
struct BatchResults {
  rcr::data::LabeledCrosstab ct_career, ct_career_w, ct_langs, ct_se_w;
  std::vector<rcr::data::OptionShare> langs, se, careers;
  std::vector<rcr::data::OptionShare> weighted;  // the F9-style battery
  rcr::query::NumericSummary score;
  std::vector<double> answered_langs, answered_se;
};

// (column, option) pairs of the weighted-share battery (F9-style).
constexpr std::pair<const char*, const char*> kWeightedBattery[] = {
    {"langs", "lang0"}, {"se", "se1"},
};

void fold_results(const BatchResults& r) {
  for (const auto* ct : {&r.ct_career, &r.ct_career_w, &r.ct_langs, &r.ct_se_w})
    for (std::size_t i = 0; i < ct->counts.rows(); ++i)
      for (std::size_t j = 0; j < ct->counts.cols(); ++j)
        fold(ct->counts.at(i, j));
  for (const auto* sh : {&r.langs, &r.se, &r.careers})
    for (const auto& s : *sh) {
      fold(s.count);
      fold(s.share.estimate);
    }
  for (const auto& s : r.weighted) fold(s.share.estimate);
  fold(r.score.sum);
  for (const double a : r.answered_langs) fold(a);
  for (const double a : r.answered_se) fold(a);
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::max(std::abs(a), std::abs(b)));
}

// Bit-exact fingerprint of a batch — the SIMD gate compares these, not
// near-equality: vector kernels must reproduce the scalar bits.
std::uint64_t fingerprint_results(const BatchResults& r) {
  std::uint64_t fp = 0;
  const auto fold1 = [&](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(v));
    fp = fp * 0x9E3779B97F4A7C15ULL + b;
  };
  for (const auto* ct : {&r.ct_career, &r.ct_career_w, &r.ct_langs, &r.ct_se_w})
    for (std::size_t i = 0; i < ct->counts.rows(); ++i)
      for (std::size_t j = 0; j < ct->counts.cols(); ++j)
        fold1(ct->counts.at(i, j));
  for (const auto* sh : {&r.langs, &r.se, &r.careers})
    for (const auto& s : *sh) {
      fold1(s.count);
      fold1(s.share.estimate);
    }
  for (const auto& s : r.weighted) fold1(s.share.estimate);
  fold1(r.score.sum);
  for (const double a : r.answered_langs) fold1(a);
  for (const double a : r.answered_se) fold1(a);
  return fp;
}

bool same_results(const BatchResults& a, const BatchResults& b) {
  bool ok = true;
  const auto cmp_ct = [&](const rcr::data::LabeledCrosstab& x,
                          const rcr::data::LabeledCrosstab& y) {
    for (std::size_t i = 0; i < x.counts.rows(); ++i)
      for (std::size_t j = 0; j < x.counts.cols(); ++j)
        ok = ok && near(x.counts.at(i, j), y.counts.at(i, j));
  };
  cmp_ct(a.ct_career, b.ct_career);
  cmp_ct(a.ct_career_w, b.ct_career_w);
  cmp_ct(a.ct_langs, b.ct_langs);
  cmp_ct(a.ct_se_w, b.ct_se_w);
  for (std::size_t i = 0; i < a.langs.size(); ++i)
    ok = ok && near(a.langs[i].count, b.langs[i].count);
  for (std::size_t i = 0; i < a.se.size(); ++i)
    ok = ok && near(a.se[i].count, b.se[i].count);
  for (std::size_t i = 0; i < a.careers.size(); ++i)
    ok = ok && near(a.careers[i].count, b.careers[i].count);
  for (std::size_t i = 0; i < a.weighted.size(); ++i)
    ok = ok && near(a.weighted[i].share.estimate, b.weighted[i].share.estimate);
  ok = ok && near(a.score.sum, b.score.sum) && a.score.count == b.score.count;
  for (std::size_t g = 0; g < a.answered_langs.size(); ++g)
    ok = ok && a.answered_langs[g] == b.answered_langs[g];
  for (std::size_t g = 0; g < a.answered_se.size(); ++g)
    ok = ok && a.answered_se[g] == b.answered_se[g];
  return ok;
}

// The pre-engine execution plan: eleven separate full-table scans (the
// reference builders keep the per-row weight-name lookup and per-option
// probing the direct data:: calls used to do), plus the hand-rolled walks
// the experiments used for numeric summaries and per-group denominators.
BatchResults run_naive(const rcr::data::Table& t,
                       const std::vector<double>& ext) {
  namespace ref = rcr::query::reference;
  const std::optional<std::string> by_w{"w"};
  BatchResults r;
  r.ct_career = ref::crosstab(t, "field", "career");
  r.ct_career_w = ref::crosstab(t, "field", "career", by_w);
  r.ct_langs = ref::crosstab_multiselect(t, "field", "langs");
  r.ct_se_w = ref::crosstab_multiselect(t, "field", "se", by_w);
  r.langs = ref::option_shares(t, "langs");
  r.se = ref::option_shares(t, "se");
  r.careers = ref::category_shares(t, "career");
  for (const auto& [column, option] : kWeightedBattery)
    r.weighted.push_back(ref::weighted_option_share(t, column, option, ext));

  const auto& score = t.numeric("score");
  r.score.min = rcr::data::NumericColumn::missing();
  r.score.max = rcr::data::NumericColumn::missing();
  for (std::size_t i = 0; i < score.size(); ++i) {
    const double v = score.at(i);
    if (rcr::data::NumericColumn::is_missing(v)) continue;
    if (r.score.count == 0.0) {
      r.score.min = v;
      r.score.max = v;
    }
    r.score.count += 1.0;
    r.score.sum += v;
    r.score.min = std::min(r.score.min, v);
    r.score.max = std::max(r.score.max, v);
  }

  // Per-group answered denominators, the way the tables used to build
  // them: a group_rows() walk per multi-select column.
  const auto count_answered = [&](const char* column) {
    const auto groups = t.group_rows("field");
    const auto& col = t.multiselect(column);
    std::vector<double> answered(groups.size(), 0.0);
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (const std::size_t row : groups[g])
        if (!col.is_missing(row)) answered[g] += 1.0;
    return answered;
  };
  r.answered_langs = count_answered("langs");
  r.answered_se = count_answered("se");
  return r;
}

BatchResults run_fused(const rcr::data::Table& t,
                       const std::vector<double>& ext,
                       rcr::parallel::ThreadPool* pool) {
  const std::optional<std::string> by_w{"w"};
  rcr::query::QueryEngine engine(t);
  const auto ct_career = engine.add_crosstab("field", "career");
  const auto ct_career_w = engine.add_crosstab("field", "career", by_w);
  const auto ct_langs = engine.add_crosstab_multiselect("field", "langs");
  const auto ct_se_w = engine.add_crosstab_multiselect("field", "se", by_w);
  const auto sh_langs = engine.add_option_shares("langs");
  const auto sh_se = engine.add_option_shares("se");
  const auto sh_career = engine.add_category_shares("career");
  std::vector<rcr::query::QueryId> battery;
  for (const auto& [column, option] : kWeightedBattery)
    battery.push_back(engine.add_weighted_option_share(column, option, ext));
  const auto ns = engine.add_numeric_summary("score");
  const auto ans_langs = engine.add_group_answered("field", "langs");
  const auto ans_se = engine.add_group_answered("field", "se");
  engine.run(pool);

  BatchResults r;
  r.ct_career = engine.crosstab(ct_career);
  r.ct_career_w = engine.crosstab(ct_career_w);
  r.ct_langs = engine.crosstab(ct_langs);
  r.ct_se_w = engine.crosstab(ct_se_w);
  r.langs = engine.shares(sh_langs);
  r.se = engine.shares(sh_se);
  r.careers = engine.shares(sh_career);
  for (const auto id : battery) r.weighted.push_back(engine.weighted_share(id));
  r.score = engine.numeric(ns);
  r.answered_langs = engine.group_answered(ans_langs);
  r.answered_se = engine.group_answered(ans_se);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 1000000;
  std::size_t threads = 8;
  std::uint64_t seed = 42;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
      rows = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const std::string simd = rcr::simd::describe();
  std::fprintf(stderr,
               "bench_micro_query: seed=%llu threads=%zu rows=%zu simd=%s\n",
               static_cast<unsigned long long>(seed), threads, rows,
               simd.c_str());

  const rcr::data::Table t = make_table(rows, seed);
  std::vector<double> ext(rows);
  rcr::Rng wrng(seed ^ 0x5DEECE66DULL);
  for (double& v : ext) v = wrng.next_double() * 2.0 + 0.1;

  rcr::parallel::ThreadPool pool(threads == 0 ? 1 : threads);
  rcr::parallel::ThreadPool* pool_ptr = threads == 0 ? nullptr : &pool;

  BatchResults naive_res, fused_res, serial_res;
  const double naive_s =
      best_of(3, [&] { naive_res = run_naive(t, ext); });
  const double fused_s =
      best_of(3, [&] { fused_res = run_fused(t, ext, pool_ptr); });
  const double fused_serial_s =
      best_of(3, [&] { serial_res = run_fused(t, ext, nullptr); });

  const bool verified = same_results(naive_res, fused_res) &&
                        same_results(naive_res, serial_res);
  fold_results(fused_res);

  // SIMD gate: the vectorized kernels must reproduce the forced-scalar
  // bits exactly, at every pool size. A mismatch fails the run (exit 2).
  rcr::simd::force_isa(rcr::simd::Isa::kScalar);
  const std::uint64_t simd_ref = fingerprint_results(run_fused(t, ext, nullptr));
  rcr::simd::clear_isa_override();
  bool simd_verified = true;
  for (const std::size_t vthreads : {0u, 1u, 2u, 8u}) {
    rcr::parallel::ThreadPool vpool(vthreads == 0 ? 1 : vthreads);
    rcr::parallel::ThreadPool* vp = vthreads == 0 ? nullptr : &vpool;
    if (fingerprint_results(run_fused(t, ext, vp)) != simd_ref) {
      std::fprintf(stderr,
                   "micro_query: simd fingerprint mismatch at threads=%zu\n",
                   vthreads);
      simd_verified = false;
    }
  }

  // Per-kind timings: the batch re-run one query kind at a time, so the
  // report shows where the fused scan's time goes. (The kinds share the
  // scan, so these do not sum to the fused total — each pays the full
  // row walk.)
  struct KindTiming {
    const char* name;
    double seconds;
  };
  std::vector<KindTiming> kinds;
  const auto time_kind = [&](const char* name, auto&& add_queries) {
    kinds.push_back({name, best_of(3, [&] {
                       rcr::query::QueryEngine engine(t);
                       add_queries(engine);
                       engine.run(pool_ptr);
                     })});
  };
  const std::optional<std::string> by_w{"w"};
  time_kind("crosstab", [&](auto& e) { e.add_crosstab("field", "career"); });
  time_kind("crosstab_weighted",
            [&](auto& e) { e.add_crosstab("field", "career", by_w); });
  time_kind("crosstab_multiselect",
            [&](auto& e) { e.add_crosstab_multiselect("field", "langs"); });
  time_kind("crosstab_multiselect_weighted",
            [&](auto& e) { e.add_crosstab_multiselect("field", "se", by_w); });
  time_kind("option_shares", [&](auto& e) {
    e.add_option_shares("langs");
    e.add_option_shares("se");
  });
  time_kind("category_shares",
            [&](auto& e) { e.add_category_shares("career"); });
  time_kind("weighted_option_share", [&](auto& e) {
    for (const auto& [column, option] : kWeightedBattery)
      e.add_weighted_option_share(column, option, ext);
  });
  time_kind("numeric_summary",
            [&](auto& e) { e.add_numeric_summary("score"); });
  time_kind("group_answered", [&](auto& e) {
    e.add_group_answered("field", "langs");
    e.add_group_answered("field", "se");
  });

  const double queries = 13.0;
  char buf[1024];
  std::string json = "{\n  \"benchmark\": \"micro_query\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"simd\": \"%s\",\n"
                "  \"rows\": %zu,\n  \"threads\": %zu,\n"
                "  \"queries\": %.0f,\n  \"results\": [\n",
                simd.c_str(), rows, threads, queries);
  json += buf;
  const struct {
    const char* name;
    double seconds;
  } lines[] = {
      {"naive.sequential_scans", naive_s},
      {"fused.engine", fused_s},
      {"fused.engine_serial", fused_serial_s},
  };
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ms\": %.2f, "
                  "\"rows_per_sec\": %.3e}%s\n",
                  lines[i].name, lines[i].seconds * 1e3,
                  static_cast<double>(rows) * queries / lines[i].seconds,
                  i + 1 < std::size(lines) ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"per_query\": [\n";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    std::snprintf(buf, sizeof buf, "    {\"name\": \"%s\", \"ms\": %.2f}%s\n",
                  kinds[i].name, kinds[i].seconds * 1e3,
                  i + 1 < kinds.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"speedups\": {\n"
                "    \"fused_vs_naive\": %.2f,\n"
                "    \"fused_serial_vs_naive\": %.2f\n  },\n"
                "  \"verified\": %s,\n  \"simd_verified\": %s,\n"
                "  \"checksum\": %llu\n}\n",
                naive_s / fused_s, naive_s / fused_serial_s,
                verified ? "true" : "false",
                simd_verified ? "true" : "false",
                static_cast<unsigned long long>(g_sink % 1000000007ULL));
  json += buf;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_query: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return verified && simd_verified ? 0 : 2;
}
