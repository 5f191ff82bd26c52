// Incremental delta-merge macrobench: the live-update path vs. the cold
// full recompute it replaces. A survey-shaped table of --rows rows is
// split into a base (rows - delta) and a delta block (--delta rows, default
// 1% of the table). The cold path answers the registered batch by running
// a fresh QueryEngine over the merged table — O(rows) every time an
// append lands. The incremental path has already run over the base
// (untimed) and is timed doing what rcr::serve's delta epochs do: one
// QueryEngine::append(delta) plus the lazy result rebuild — O(delta rows).
//
// Before any timing is reported, every registered query is encoded
// through serve::encode_result_body on BOTH paths (the appended cut's
// partial-merge results and the cold engine's full-scan results) and
// compared byte for byte, at the benchmark pool size and
// serially. Result bodies encode doubles as raw bit patterns, so this is
// the serving contract itself: one diverging bit anywhere fails the run
// with exit code 2 and "verified_bytes": false in the report.
//
// The acceptance bar (CI smoke + checked-in BENCH_incr.json baseline) is
// incremental >= 10x the cold recompute at a 1% delta on the 1M-row
// default.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "serve/protocol.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

std::uint64_t g_sink = 0;  // folded results, so the optimizer keeps the work

void fold_bytes(const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes)
    g_sink = g_sink * 0x9E3779B97F4A7C15ULL + b;
}

// The same survey-shaped table as bench_micro_query: two categoricals,
// two multi-selects, a numeric answer, and a full-mantissa weight column.
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

// The registered batch, as serve wire specs: every servable query kind,
// the shape rcr::serve keeps live across delta epochs.
std::vector<rcr::serve::QuerySpec> batch_specs() {
  using rcr::serve::QueryKind;
  using rcr::serve::QuerySpec;
  return {
      {QueryKind::kCrosstab, "field", "career", "", 0.95},
      {QueryKind::kCrosstab, "field", "career", "w", 0.95},
      {QueryKind::kCrosstabMultiselect, "field", "langs", "", 0.95},
      {QueryKind::kCrosstabMultiselect, "field", "se", "w", 0.95},
      {QueryKind::kCategoryShares, "career", "", "", 0.95},
      {QueryKind::kOptionShares, "langs", "", "", 0.95},
      {QueryKind::kOptionShares, "se", "", "", 0.95},
      {QueryKind::kNumericSummary, "score", "", "", 0.95},
      {QueryKind::kGroupAnswered, "field", "langs", "", 0.95},
      {QueryKind::kGroupAnswered, "field", "se", "", 0.95},
  };
}

// Registers the batch on an engine; ids follow batch_specs() order.
std::vector<rcr::query::QueryId> register_batch(
    rcr::query::QueryEngine& engine) {
  std::vector<rcr::query::QueryId> ids;
  for (const auto& spec : batch_specs())
    ids.push_back(rcr::serve::register_spec(engine, spec));
  return ids;
}

// Every query's result body at the engine's current cut.
std::vector<std::vector<std::uint8_t>> result_bodies(
    const rcr::query::QueryEngine& engine,
    const std::vector<rcr::query::QueryId>& ids) {
  const auto specs = batch_specs();
  std::vector<std::vector<std::uint8_t>> bodies;
  for (std::size_t q = 0; q < ids.size(); ++q)
    bodies.push_back(rcr::serve::encode_result_body(engine, ids[q], specs[q]));
  return bodies;
}

// One cold pass: fresh QueryEngine over the merged table, full scan.
void cold_pass(const rcr::data::Table& merged, rcr::parallel::ThreadPool* pool,
               std::vector<std::vector<std::uint8_t>>* bodies) {
  rcr::query::QueryEngine engine(merged);
  const auto ids = register_batch(engine);
  engine.run(pool);
  if (bodies != nullptr) {
    *bodies = result_bodies(engine, ids);
  } else {
    for (const auto& body : result_bodies(engine, ids)) fold_bytes(body);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 1000000;
  std::size_t delta = 0;  // 0 -> 1% of rows
  std::size_t threads = 8;
  std::uint64_t seed = 42;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
      rows = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc)
      delta = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  if (delta == 0) delta = std::max<std::size_t>(1, rows / 100);
  if (delta >= rows) {
    std::fprintf(stderr, "bench_incr: --delta must be < --rows\n");
    return 1;
  }
  const std::string simd = rcr::simd::describe();
  std::fprintf(
      stderr, "bench_incr: seed=%llu threads=%zu rows=%zu delta=%zu simd=%s\n",
      static_cast<unsigned long long>(seed), threads, rows, delta,
      simd.c_str());

  const rcr::data::Table merged = make_table(rows, seed);
  const rcr::data::Table base = merged.slice(0, rows - delta);
  const rcr::data::Table delta_block = merged.slice(rows - delta, rows);

  rcr::parallel::ThreadPool pool(threads == 0 ? 1 : threads);
  rcr::parallel::ThreadPool* pool_ptr = threads == 0 ? nullptr : &pool;

  // --- Byte verification first: partial-merge == cold full scan, encoded
  // --- through the serving protocol, at the bench pool size and serially.
  bool verified_bytes = true;
  std::vector<std::vector<std::uint8_t>> cold_bodies;
  cold_pass(merged, pool_ptr, &cold_bodies);
  for (rcr::parallel::ThreadPool* vp :
       {pool_ptr, static_cast<rcr::parallel::ThreadPool*>(nullptr)}) {
    rcr::query::QueryEngine engine(base);
    const auto ids = register_batch(engine);
    engine.run(vp);
    engine.append(delta_block, vp);
    const auto bodies = result_bodies(engine, ids);
    for (std::size_t q = 0; q < bodies.size(); ++q)
      if (bodies[q] != cold_bodies[q]) {
        std::fprintf(stderr,
                     "bench_incr: BYTE DIVERGENCE query=%zu pool=%s\n", q,
                     vp != nullptr ? "yes" : "serial");
        verified_bytes = false;
      }
  }
  for (const auto& body : cold_bodies) fold_bytes(body);

  // --- Cold path: full recompute on every append.
  const double cold_s =
      best_of(3, [&] { cold_pass(merged, pool_ptr, nullptr); });

  // --- Incremental path: the base is already live (re-run untimed each
  // --- rep, as serve's lineage holds it); timed work is one delta append
  // --- + the result rebuild.
  double incr_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    rcr::query::QueryEngine engine(base);
    const auto ids = register_batch(engine);
    engine.run(pool_ptr);
    rcr::Stopwatch sw;
    engine.append(delta_block, pool_ptr);
    for (const auto& body : result_bodies(engine, ids)) fold_bytes(body);
    incr_s = std::min(incr_s, sw.elapsed_seconds());
  }

  const double speedup = cold_s / incr_s;
  char buf[512];
  std::string json = "{\n  \"benchmark\": \"incr\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"simd\": \"%s\",\n"
                "  \"rows\": %zu,\n  \"delta_rows\": %zu,\n"
                "  \"threads\": %zu,\n  \"queries\": %zu,\n"
                "  \"results\": [\n",
                simd.c_str(), rows, delta, threads, batch_specs().size());
  json += buf;
  const struct {
    const char* name;
    double seconds;
  } lines[] = {
      {"cold.full_recompute", cold_s},
      {"incr.delta_update", incr_s},
  };
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ms\": %.3f}%s\n", lines[i].name,
                  lines[i].seconds * 1e3,
                  i + 1 < std::size(lines) ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"speedups\": {\n"
                "    \"incr_vs_cold\": %.2f\n  },\n"
                "  \"verified_bytes\": %s,\n  \"checksum\": %llu\n}\n",
                speedup, verified_bytes ? "true" : "false",
                static_cast<unsigned long long>(g_sink % 1000000007ULL));
  json += buf;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_incr: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return verified_bytes ? 0 : 2;
}
