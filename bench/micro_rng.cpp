// Microbenchmark of the two generators: scalar Rng draws (raw u64, unit
// double, bounded integer) and the counter-based
// simd::Philox, whose scalar draws are timed against its SIMD fill
// kernels. Emits a JSON report (stdout, or --out FILE) so CI can keep a
// machine-readable baseline; CI requires the Philox u64 fill to beat the
// scalar Philox loop. The report records the dispatched SIMD ISA in its
// "simd" field.
//
// Buffers are sized to stay L1/L2-resident (32 KiB) so the numbers measure
// generation throughput, not memory bandwidth.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/philox.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

constexpr std::size_t kBufU64 = 4096;   // 32 KiB of u64 draws per pass
constexpr std::uint64_t kBound = 1000;  // typical resampling index bound

// Accumulated across all passes so the optimizer cannot drop the work.
std::uint64_t g_sink = 0;

struct Result {
  std::string name;
  double ns_per_draw = 0.0;
  double draws_per_sec = 0.0;
};

// Times `pass` (one pass = `draws_per_pass` draws): calibrates a repeat
// count targeting ~100 ms, then reports the best of three timed runs.
template <typename Pass>
Result run_bench(const std::string& name, std::size_t draws_per_pass,
                 Pass&& pass) {
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
  const double total_draws =
      static_cast<double>(reps) * static_cast<double>(draws_per_pass);
  Result res;
  res.name = name;
  res.ns_per_draw = best * 1e9 / total_draws;
  res.draws_per_sec = total_draws / best;
  return res;
}

double find(const std::vector<Result>& rs, const std::string& name) {
  for (const Result& r : rs)
    if (r.name == name) return r.ns_per_draw;
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const std::string simd = rcr::simd::describe();
  std::fprintf(stderr, "bench_micro_rng: seed=42 threads=1 simd=%s\n",
               simd.c_str());

  std::vector<std::uint64_t> u64_buf(kBufU64);
  std::vector<double> f64_buf(kBufU64);

  rcr::Rng scalar_rng(42);

  std::vector<Result> results;

  // Raw u64 generation.
  results.push_back(run_bench("scalar.next_u64", kBufU64, [&] {
    for (std::uint64_t& v : u64_buf) v = scalar_rng.next_u64();
    g_sink += u64_buf.back();
  }));

  // Unit doubles.
  results.push_back(run_bench("scalar.next_double", kBufU64, [&] {
    for (double& v : f64_buf) v = scalar_rng.next_double();
    g_sink += static_cast<std::uint64_t>(f64_buf.back() * 1e9);
  }));

  // Bounded integers (Lemire rejection).
  results.push_back(run_bench("scalar.next_below", kBufU64, [&] {
    for (std::uint64_t& v : u64_buf) v = scalar_rng.next_below(kBound);
    g_sink += u64_buf.back();
  }));

  // Philox4x32-10 counter-based draws: the scalar block-at-a-time path vs.
  // the SIMD fill kernels.
  {
    rcr::simd::Philox scalar_philox(42);
    rcr::simd::Philox fill_philox(42);
    rcr::simd::Philox dbl_philox(42);
    results.push_back(run_bench("philox.next_u64", kBufU64, [&] {
      for (std::uint64_t& v : u64_buf) v = scalar_philox.next_u64();
      g_sink += u64_buf.back();
    }));
    results.push_back(run_bench("philox.fill_u64", kBufU64, [&] {
      fill_philox.fill_u64(u64_buf);
      g_sink += u64_buf.back();
    }));
    results.push_back(run_bench("philox.fill_double", kBufU64, [&] {
      dbl_philox.fill_double(f64_buf);
      g_sink += static_cast<std::uint64_t>(f64_buf.back() * 1e9);
    }));
  }

  // Speedups of the Philox SIMD fills over its scalar draw loop.
  struct Pair {
    const char* label;
    const char* scalar;
    const char* batched;
  };
  const Pair pairs[] = {
      {"philox_u64", "philox.next_u64", "philox.fill_u64"},
      {"philox_double", "philox.next_u64", "philox.fill_double"},
  };

  std::string json = "{\n  \"benchmark\": \"micro_rng\",\n  \"simd\": \"" +
                     simd + "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"ns_per_draw\": %.4f, "
                  "\"draws_per_sec\": %.3e}%s\n",
                  results[i].name.c_str(), results[i].ns_per_draw,
                  results[i].draws_per_sec,
                  i + 1 < results.size() ? "," : "");
    json += line;
  }
  json += "  ],\n  \"speedups\": {\n";
  for (std::size_t i = 0; i < std::size(pairs); ++i) {
    const double s = find(results, pairs[i].scalar);
    const double b = find(results, pairs[i].batched);
    char line[128];
    std::snprintf(line, sizeof line, "    \"%s\": %.2f%s\n", pairs[i].label,
                  b > 0.0 ? s / b : 0.0, i + 1 < std::size(pairs) ? "," : "");
    json += line;
  }
  char tail[64];
  std::snprintf(tail, sizeof tail, "  },\n  \"checksum\": %llu\n}\n",
                static_cast<unsigned long long>(g_sink % 1000000007ULL));
  json += tail;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_rng: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}
