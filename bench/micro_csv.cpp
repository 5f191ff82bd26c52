// Microbenchmark of the RFC-4180 CSV ingest rewrite. Two readers on the
// same survey-shaped input:
//   * legacy.line_reader — a faithful reimplementation of the pre-rewrite
//     parser (std::getline records, per-line field vector, every cell
//     trimmed, each cell's column resolved by name), kept here as the
//     baseline the same way tests/query_reference.cpp keeps the pre-engine
//     builders;
//   * serial.read_csv — the incremental state machine.
// Emits a JSON report (stdout, or --out FILE); BENCH_csv.json keeps the
// checked-in baseline.
//
// Verification is part of the run, not a separate test: write -> read ->
// write must be the byte identity for both readers on the legacy-safe
// input, and on input with quoted embedded newlines the state machine must
// round-trip where the line reader structurally cannot (that failure is
// the bug this rewrite fixes, recorded as
// "legacy_handles_quoted_newlines"). Exit status 2 when any check fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "simd/dispatch.hpp"
#include "data/table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

// --- The pre-rewrite reader, verbatim semantics ------------------------------

[[noreturn]] void legacy_fail(std::size_t line, const std::string& msg) {
  throw rcr::InvalidInputError("CSV line " + std::to_string(line) + ": " +
                               msg);
}

std::vector<std::string> legacy_split_record(const std::string& record,
                                             char delimiter,
                                             std::size_t line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const char ch = record[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += ch;
      }
    } else if (ch == '"') {
      if (!current.empty()) legacy_fail(line, "quote inside unquoted field");
      in_quotes = true;
    } else if (ch == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  if (in_quotes) legacy_fail(line, "unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

void legacy_append_cell(rcr::data::Table& out, const std::string& name,
                        const std::string& cell, std::size_t line_no) {
  using rcr::data::ColumnKind;
  switch (out.kind(name)) {
    case ColumnKind::kNumeric: {
      if (cell.empty()) {
        out.numeric(name).push_missing();
      } else {
        const auto v = rcr::parse_double(cell);
        if (!v) legacy_fail(line_no, "not a number: '" + cell + "'");
        out.numeric(name).push(*v);
      }
      break;
    }
    case ColumnKind::kCategorical: {
      auto& col = out.categorical(name);
      if (cell.empty()) {
        col.push_missing();
      } else {
        if (col.frozen() && col.find_code(cell) == rcr::data::kMissingCode)
          legacy_fail(line_no, "unknown category '" + cell + "'");
        col.push(cell);
      }
      break;
    }
    case ColumnKind::kMultiSelect: {
      auto& col = out.multiselect(name);
      if (cell.empty()) {
        col.push_missing();
        break;
      }
      if (cell == "-") {
        col.push_mask(0);
        break;
      }
      std::vector<std::string> labels;
      for (auto& part : rcr::split(cell, '|')) {
        const std::string label{rcr::trim(part)};
        if (label.empty()) continue;
        if (col.find_option(label) < 0)
          legacy_fail(line_no, "unknown option '" + label + "'");
        labels.push_back(label);
      }
      col.push_labels(labels);
      break;
    }
  }
}

rcr::data::Table legacy_read_csv(const std::string& text,
                                 const rcr::data::Table& schema) {
  std::istringstream in(text);
  std::size_t line_no = 0;
  std::string line;
  if (!std::getline(in, line))
    throw rcr::InvalidInputError("CSV input is empty (no header row)");
  ++line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  auto header = legacy_split_record(line, ',', line_no);
  for (auto& name : header) name = std::string(rcr::trim(name));

  rcr::data::Table out = schema.clone_empty();
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (rcr::trim(line).empty()) continue;
    const auto fields = legacy_split_record(line, ',', line_no);
    if (fields.size() != header.size())
      legacy_fail(line_no, "expected " + std::to_string(header.size()) +
                               " fields, got " +
                               std::to_string(fields.size()));
    for (std::size_t f = 0; f < fields.size(); ++f)
      legacy_append_cell(out, header[f], std::string(rcr::trim(fields[f])),
                         line_no);
  }
  out.validate_rectangular();
  return out;
}

// --- Bench input -------------------------------------------------------------

// Survey-shaped rows with quote-heavy labels the legacy reader still
// handles (commas and embedded quotes — no newlines or padding, which are
// exactly what it cannot parse back; those go in the bug-demo check).
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

// The write->read round-trip bug class: quoted embedded newlines (and
// padded labels) that write_csv legitimately emits. The state machine must
// reproduce the bytes; the legacy line reader must fail or mutate them.
bool state_machine_round_trips_gnarly(bool& legacy_survives) {
  rcr::data::Table t;
  auto& note =
      t.add_categorical("note", {"line one\nline two", " padded ", "plain"});
  auto& v = t.add_numeric("v");
  for (int i = 0; i < 64; ++i) {
    note.push_code(i % 3);
    v.push(0.5 * i);
  }
  const std::string text = to_csv(t);
  std::istringstream in(text);
  const bool ok = to_csv(rcr::data::read_csv(in, t)) == text;
  try {
    legacy_survives = to_csv(legacy_read_csv(text, t)) == text;
  } catch (const rcr::Error&) {
    legacy_survives = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 400000;
  std::uint64_t seed = 23;
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
               "bench_micro_csv: seed=%llu threads=1 rows=%zu simd=%s\n",
               static_cast<unsigned long long>(seed), rows, simd.c_str());

  const rcr::data::Table t = make_table(rows, seed);
  const std::string text = to_csv(t);
  const double mib = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  rcr::data::Table legacy_t, serial_t;
  const double legacy_s =
      best_of(3, [&] { legacy_t = legacy_read_csv(text, t); });
  const double serial_s = best_of(3, [&] {
    std::istringstream in(text);
    serial_t = rcr::data::read_csv(in, t);
  });

  const std::string serial_bytes = to_csv(serial_t);
  const bool round_trip_verified = serial_bytes == text;
  const bool legacy_agrees = to_csv(legacy_t) == serial_bytes;
  bool legacy_survives_gnarly = true;
  const bool gnarly_round_trip =
      state_machine_round_trips_gnarly(legacy_survives_gnarly);

  const bool verified = round_trip_verified && legacy_agrees &&
                        gnarly_round_trip && !legacy_survives_gnarly;

  char buf[512];
  std::string json = "{\n  \"benchmark\": \"micro_csv\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"simd\": \"%s\",\n"
                "  \"rows\": %zu,\n  \"bytes\": %zu,\n"
                "  \"results\": [\n",
                simd.c_str(), rows, text.size());
  json += buf;
  const struct {
    const char* name;
    double seconds;
  } lines[] = {
      {"legacy.line_reader", legacy_s},
      {"serial.read_csv", serial_s},
  };
  for (std::size_t i = 0; i < std::size(lines); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ms\": %.2f, "
                  "\"mib_per_sec\": %.1f}%s\n",
                  lines[i].name, lines[i].seconds * 1e3,
                  mib / lines[i].seconds,
                  i + 1 < std::size(lines) ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"speedups\": {\n"
                "    \"statemachine_vs_legacy\": %.2f\n  },\n",
                legacy_s / serial_s);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"round_trip_verified\": %s,\n"
                "  \"gnarly_round_trip\": %s,\n"
                "  \"legacy_handles_quoted_newlines\": %s\n}\n",
                round_trip_verified ? "true" : "false",
                gnarly_round_trip ? "true" : "false",
                legacy_survives_gnarly ? "true" : "false");
  json += buf;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_csv: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return verified ? 0 : 2;
}
