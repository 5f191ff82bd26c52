// Microbenchmark of the rcr::simd kernels: each vector entry point timed
// at the forced scalar (width-1) path and at the native width the dispatch
// picks, so the report carries per-kernel SIMD speedups. Before timing,
// the run proves the bitwise contract on a query-engine batch: the fused
// engine's result fingerprint at the native width must equal the forced
// scalar fingerprint for the serial walk and pools of 1, 2 and 8 threads —
// any mismatch makes the process exit 2, so CI can never record a number
// produced by a kernel that drifted from its scalar reference.
//
// Emits a JSON report (stdout, or --out FILE); BENCH_simd.json keeps the
// checked-in baseline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/philox.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

std::uint64_t g_sink = 0;

// Times `pass` (one pass = `items` units): calibrates a repeat count
// targeting ~100 ms, then reports the best-of-three ns per unit.
template <typename Pass>
double bench_ns_per_item(std::size_t items, Pass&& pass) {
  std::size_t reps = 1;
  for (;;) {
    rcr::Stopwatch w;
    for (std::size_t r = 0; r < reps; ++r) pass();
    const double s = w.elapsed_seconds();
    if (s >= 0.01 || reps >= (std::size_t{1} << 30)) {
      reps = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(reps) * 0.1 /
                                      std::max(s, 1e-9)));
      break;
    }
    reps *= 4;
  }
  double best = 1e300;
  for (int run = 0; run < 3; ++run) {
    rcr::Stopwatch w;
    for (std::size_t r = 0; r < reps; ++r) pass();
    best = std::min(best, w.elapsed_seconds());
  }
  return best * 1e9 /
         (static_cast<double>(reps) * static_cast<double>(items));
}

struct Row {
  std::string name;
  double scalar_ns = 0.0;  // forced width-1
  double simd_ns = 0.0;    // native width
};

// Runs `pass` under the forced scalar path and under the native dispatch.
template <typename Pass>
Row bench_both(const std::string& name, std::size_t items, Pass&& pass) {
  Row row;
  row.name = name;
  rcr::simd::force_isa(rcr::simd::Isa::kScalar);
  row.scalar_ns = bench_ns_per_item(items, pass);
  rcr::simd::clear_isa_override();
  row.simd_ns = bench_ns_per_item(items, pass);
  return row;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

// A multi-select-heavy table: the columns whose kernels the SIMD layer
// accelerates.
rcr::data::Table make_table(std::size_t rows, std::uint64_t seed) {
  std::vector<std::string> groups, opts;
  for (int i = 0; i < 6; ++i)
    groups.push_back(std::string("g").append(std::to_string(i)));
  for (int i = 0; i < 12; ++i)
    opts.push_back(std::string("o").append(std::to_string(i)));
  rcr::data::Table t;
  auto& group = t.add_categorical("group", groups);
  auto& picks = t.add_multiselect("picks", opts);
  auto& weight = t.add_numeric("weight");
  rcr::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.next_double() < 0.08) group.push_missing();
    else group.push_code(static_cast<std::int32_t>(rng.next_below(6)));
    if (rng.next_double() < 0.10) picks.push_missing();
    else picks.push_mask(rng.next_u64() & rng.next_u64() & 0xFFFULL);
    weight.push(rng.next_double() * 2.0 + 0.25);
  }
  return t;
}

std::uint64_t engine_fingerprint(const rcr::data::Table& t,
                                 rcr::parallel::ThreadPool* pool) {
  rcr::query::QueryEngine engine(t);
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
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 1000000;
  std::uint64_t seed = 42;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
      rows = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const std::string simd = rcr::simd::describe();
  std::fprintf(stderr, "bench_micro_simd: seed=%llu rows=%zu simd=%s\n",
               static_cast<unsigned long long>(seed), rows, simd.c_str());

  // --- Bitwise verification gate -------------------------------------------
  const rcr::data::Table t = make_table(rows / 5 + 1003, seed);
  rcr::simd::force_isa(rcr::simd::Isa::kScalar);
  const std::uint64_t reference = engine_fingerprint(t, nullptr);
  bool verified = true;
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    rcr::parallel::ThreadPool pool(threads == 0 ? 1 : threads);
    rcr::parallel::ThreadPool* p = threads == 0 ? nullptr : &pool;
    rcr::simd::force_isa(rcr::simd::Isa::kScalar);
    const bool scalar_ok = engine_fingerprint(t, p) == reference;
    rcr::simd::clear_isa_override();
    const bool native_ok = engine_fingerprint(t, p) == reference;
    if (!scalar_ok || !native_ok) {
      std::fprintf(stderr,
                   "micro_simd: fingerprint mismatch at threads=%zu "
                   "(scalar_ok=%d native_ok=%d)\n",
                   threads, scalar_ok ? 1 : 0, native_ok ? 1 : 0);
      verified = false;
    }
  }

  // --- Kernel timings -------------------------------------------------------
  const std::size_t n = rows;
  const std::size_t n_opts = 12;
  std::vector<std::int32_t> codes(n);
  std::vector<std::uint64_t> masks(n);
  std::vector<std::uint8_t> missing(n);
  std::vector<double> weights(n);
  {
    rcr::Rng rng(seed ^ 0xABCDULL);
    for (std::size_t i = 0; i < n; ++i) {
      const bool miss = rng.next_double() < 0.1;
      codes[i] = rng.next_double() < 0.07
                     ? -1
                     : static_cast<std::int32_t>(rng.next_below(6));
      masks[i] = miss ? 0 : (rng.next_u64() & rng.next_u64() & 0xFFFULL);
      missing[i] = miss ? 1 : 0;
      weights[i] = rng.next_double() * 2.0 + 0.25;
    }
  }
  std::vector<std::uint64_t> tallies(6 * n_opts);
  std::vector<double> cells(6 * n_opts);
  std::vector<std::uint64_t> u64_buf(4096);
  std::vector<std::uint64_t> u64_out(4096);
  std::vector<double> f64_out(4096);
  {
    rcr::Rng rng(seed ^ 0x1234ULL);
    for (auto& v : u64_buf) v = rng.next_u64();
  }

  std::vector<Row> rowsv;
  rowsv.push_back(bench_both("tally_multiselect", n, [&] {
    std::fill(tallies.begin(), tallies.end(), 0);
    rcr::simd::tally_multiselect(codes.data(), masks.data(), 0, n, n_opts,
                                 tallies.data());
    g_sink += tallies[0];
  }));
  rowsv.push_back(bench_both("tally_options", n, [&] {
    std::fill(tallies.begin(), tallies.end(), 0);
    g_sink += rcr::simd::tally_options(masks.data(), missing.data(), 0, n,
                                       n_opts, tallies.data());
    g_sink += tallies[0];
  }));
  rowsv.push_back(bench_both("add_weighted_multiselect", n, [&] {
    std::fill(cells.begin(), cells.end(), 0.0);
    rcr::simd::add_weighted_multiselect(codes.data(), masks.data(),
                                        missing.data(), weights.data(), 0, n,
                                        n_opts, cells.data());
    g_sink += static_cast<std::uint64_t>(cells[0]);
  }));
  rowsv.push_back(bench_both("mix64_map", u64_buf.size(), [&] {
    rcr::simd::mix64_map(u64_buf.data(), u64_buf.size(), 0x5EEDULL,
                         u64_out.data());
    g_sink += u64_out.back();
  }));
  rowsv.push_back(bench_both("mix64_combine", u64_buf.size(), [&] {
    rcr::simd::mix64_combine(u64_out.data(), u64_buf.data(), u64_buf.size());
    g_sink += u64_out.back();
  }));
  {
    rcr::simd::Philox fill_rng(seed);
    rowsv.push_back(bench_both("philox_fill_u64", u64_out.size(), [&] {
      fill_rng.fill_u64(u64_out);
      g_sink += u64_out.back();
    }));
    rcr::simd::Philox dbl_rng(seed);
    rowsv.push_back(bench_both("philox_fill_double", f64_out.size(), [&] {
      dbl_rng.fill_double(f64_out);
      g_sink += static_cast<std::uint64_t>(f64_out.back() * 1e9);
    }));
  }
  rowsv.push_back(bench_both("unit_doubles_from_u64", u64_buf.size(), [&] {
    rcr::simd::unit_doubles_from_u64(u64_buf.data(), u64_buf.size(),
                                     f64_out.data());
    g_sink += static_cast<std::uint64_t>(f64_out.back() * 1e9);
  }));

  // --- Report ---------------------------------------------------------------
  char buf[512];
  std::string json = "{\n  \"benchmark\": \"micro_simd\",\n";
  std::snprintf(buf, sizeof buf, "  \"simd\": \"%s\",\n  \"rows\": %zu,\n",
                simd.c_str(), n);
  json += buf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rowsv.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"scalar_ns_per_item\": %.4f, "
                  "\"simd_ns_per_item\": %.4f}%s\n",
                  rowsv[i].name.c_str(), rowsv[i].scalar_ns, rowsv[i].simd_ns,
                  i + 1 < rowsv.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"speedups\": {\n";
  for (std::size_t i = 0; i < rowsv.size(); ++i) {
    std::snprintf(buf, sizeof buf, "    \"%s\": %.2f%s\n",
                  rowsv[i].name.c_str(),
                  rowsv[i].simd_ns > 0.0 ? rowsv[i].scalar_ns / rowsv[i].simd_ns
                                         : 0.0,
                  i + 1 < rowsv.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  },\n  \"verified\": %s,\n  \"checksum\": %llu\n}\n",
                verified ? "true" : "false",
                static_cast<unsigned long long>(g_sink % 1000000007ULL));
  json += buf;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_simd: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return verified ? 0 : 2;
}
