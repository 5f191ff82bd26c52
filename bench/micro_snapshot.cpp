// Snapshot ingest microbenchmark. The same survey-shaped table travels two
// roads into memory:
//   * serial.read_csv — the text interchange path (parse every byte);
//   * snapshot.write -> snapshot.read — the binary columnar path (mmap,
//     validate checksums, alias the pages). read_verified is the
//     only read there is: every page hashed, codes/masks/flags
//     range-checked.
// Emits a JSON report (stdout, or --out FILE); BENCH_snapshot.json keeps
// the checked-in baseline. CI smoke-checks the headline ratio:
// snapshot_read_vs_serial_csv_mibps must clear 10x.
//
// Verification is part of the run, not a separate test: the snapshot-read
// tables must reproduce the CSV text byte-for-byte and fingerprint
// identically to the CSV-parsed table under the query engine. Exit status
// 2 when any check fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "data/snapshot.hpp"
#include "simd/dispatch.hpp"
#include "data/table.hpp"
#include "query/engine.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

// Survey-shaped rows exercising every page kind: two categorical columns
// (i32 code pages), a multi-select (u64 mask + u8 flag pages), a numeric
// (f64 value pages), with missingness in each.
rcr::data::Table make_table(std::size_t rows, std::uint64_t seed) {
  const std::vector<std::string> fields = {
      "Physics", "Biology", "CS, theory", "CS, systems", "Astronomy",
      "Earth science"};
  const std::vector<std::string> notes = {
      "plain answer", "uses \"air quotes\"", "comma, separated",
      "\"quoted\", with comma", "simple", "-"};
  const std::vector<std::string> langs = {"Python", "C++", "R",
                                          "Fortran", "Julia", "MATLAB"};

  rcr::data::Table t;
  auto& field = t.add_categorical("field", fields);
  auto& note = t.add_categorical("note", notes);
  auto& lang_col = t.add_multiselect("langs", langs);
  auto& score = t.add_numeric("score");

  rcr::Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.next_double() < 0.05)
      field.push_missing();
    else
      field.push_code(static_cast<std::int32_t>(rng.next_below(6)));
    if (rng.next_double() < 0.08)
      note.push_missing();
    else
      note.push_code(static_cast<std::int32_t>(rng.next_below(6)));
    if (rng.next_double() < 0.10)
      lang_col.push_missing();
    else
      lang_col.push_mask(rng.next_u64() & rng.next_u64() & 0x3FULL);
    if (rng.next_double() < 0.07)
      score.push_missing();
    else
      score.push(rng.normal() * 12.0 + 40.0);
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

std::string to_csv(const rcr::data::Table& t) {
  std::ostringstream out;
  rcr::data::write_csv(out, t);
  return out.str();
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

// Fused-engine fingerprint over crosstab counts, option shares, and the
// numeric summary — the downstream bits a format swap must not move.
std::uint64_t query_fingerprint(const rcr::data::Table& t) {
  rcr::query::QueryEngine engine(t);
  const auto ct = engine.add_crosstab("field", "note");
  const auto os = engine.add_option_shares("langs");
  const auto ns = engine.add_numeric_summary("score");
  engine.run(nullptr);

  std::uint64_t fp = 0;
  const auto fold = [&](double v) {
    fp = fp * 0x9E3779B97F4A7C15ULL + bits_of(v);
  };
  const auto& x = engine.crosstab(ct);
  for (std::size_t r = 0; r < x.counts.rows(); ++r)
    for (std::size_t c = 0; c < x.counts.cols(); ++c)
      fold(x.counts.at(r, c));
  for (const auto& s : engine.shares(os)) {
    fold(s.count);
    fold(s.total);
    fold(s.share.lo);
    fold(s.share.hi);
  }
  const auto& num = engine.numeric(ns);
  fold(static_cast<double>(num.count));
  fold(num.sum);
  fold(num.min);
  fold(num.max);
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 400000;
  std::uint64_t seed = 29;
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
  std::fprintf(stderr,
               "bench_micro_snapshot: seed=%llu threads=1 rows=%zu simd=%s\n",
               static_cast<unsigned long long>(seed), rows, simd.c_str());

  const rcr::data::Table t = make_table(rows, seed);
  const std::string text = to_csv(t);
  const double csv_mib = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  const std::string snap_path =
      (std::filesystem::temp_directory_path() /
       ("rcr_micro_snapshot_" + std::to_string(seed) + ".snap"))
          .string();

  rcr::data::Table serial_t, snap_verified_t;
  const double serial_s = best_of(3, [&] {
    std::istringstream in(text);
    serial_t = rcr::data::read_csv(in, t);
  });

  const double write_s =
      best_of(3, [&] { rcr::data::write_snapshot(t, snap_path); });
  const double snap_bytes_d =
      static_cast<double>(std::filesystem::file_size(snap_path));
  const double snap_mib = snap_bytes_d / (1024.0 * 1024.0);

  const double read_verified_s = best_of(3, [&] {
    snap_verified_t = rcr::data::read_snapshot(snap_path);
  });

  // Verification gate: the snapshot read reproduces the CSV bytes and the
  // query fingerprint of the parsed table.
  const bool round_trip_bitwise =
      to_csv(snap_verified_t) == text && to_csv(serial_t) == text;
  const std::uint64_t reference_fp = query_fingerprint(serial_t);
  const bool fingerprints_match =
      query_fingerprint(snap_verified_t) == reference_fp;
  const bool verified = round_trip_bitwise && fingerprints_match;

  // The headline ratio: ingest bandwidth, each format over its own bytes.
  const double serial_mibps = csv_mib / serial_s;
  const double snap_mibps = snap_mib / read_verified_s;

  char buf[512];
  std::string json = "{\n  \"benchmark\": \"micro_snapshot\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"simd\": \"%s\",\n"
                "  \"rows\": %zu,\n  \"csv_bytes\": %zu,\n"
                "  \"snapshot_bytes\": %zu,\n"
                "  \"results\": [\n",
                simd.c_str(), rows, text.size(),
                static_cast<std::size_t>(snap_bytes_d));
  json += buf;
  const struct {
    const char* name;
    double seconds;
    double mib;
  } lines[] = {
      {"serial.read_csv", serial_s, csv_mib},
      {"snapshot.write", write_s, snap_mib},
      {"snapshot.read_verified", read_verified_s, snap_mib},
  };
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ms\": %.3f, "
                  "\"mib_per_sec\": %.1f}%s\n",
                  lines[i].name, lines[i].seconds * 1e3,
                  lines[i].mib / lines[i].seconds,
                  i + 1 < std::size(lines) ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"speedups\": {\n"
                "    \"snapshot_read_vs_serial_csv_mibps\": %.1f,\n"
                "    \"snapshot_read_vs_serial_csv_time\": %.1f,\n"
                "    \"snapshot_write_vs_serial_csv_time\": %.1f\n  },\n",
                snap_mibps / serial_mibps, serial_s / read_verified_s,
                serial_s / write_s);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"round_trip_bitwise\": %s,\n"
                "  \"query_fingerprints_match\": %s,\n"
                "  \"verified\": %s\n}\n",
                round_trip_bitwise ? "true" : "false",
                fingerprints_match ? "true" : "false",
                verified ? "true" : "false");
  json += buf;

  std::error_code ec;
  std::filesystem::remove(snap_path, ec);

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_snapshot: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return verified ? 0 : 2;
}
