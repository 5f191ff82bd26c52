#include "data/csv.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/strings.hpp"

namespace rcr::data {

namespace {

struct IngestMetrics {
  obs::Counter& rows = obs::registry().counter("ingest.rows");
  obs::Counter& bytes = obs::registry().counter("ingest.bytes");
  obs::Histogram& parse_ms = obs::registry().histogram("ingest.parse.ms");
};

IngestMetrics& metrics() {
  static IngestMetrics m;
  return m;
}

// The one dialect: comma-separated fields, '|' between multi-select labels.
constexpr char kDelimiter = ',';
constexpr char kMultiselectSeparator = '|';

[[noreturn]] void parse_fail(std::size_t line, const std::string& msg) {
  throw rcr::InvalidInputError("CSV line " + std::to_string(line) + ": " +
                               msg);
}

// --- Incremental RFC-4180 record scanner -------------------------------------
//
// Consumes raw bytes in arbitrary chunk sizes and emits one sink callback
// per record. Quote state is scanner state, not per-line loop state, so a
// quoted field may contain newlines, CRLF, delimiters, and escaped quotes
// ("" -> ") — the full write_csv output grammar — and record boundaries are
// still found correctly. An unquoted CR immediately before LF is part of
// the CRLF terminator; any other CR is field content (a lone CR at EOF is
// dropped, matching the old line reader).
//
// Field buffers are reused across records: parsing allocates only while a
// field outgrows every field seen before it.
class RecordScanner {
 public:
  // Fields of the record being delivered; valid only inside a sink call.
  std::size_t field_count() const { return field_count_; }
  const std::string& field(std::size_t i) const { return fields_[i]; }
  bool quoted(std::size_t i) const { return quoted_[i] != 0; }
  // 1-based physical line the current record starts on (error reporting).
  std::size_t record_line() const { return record_line_; }

  // Consumes [data, data+n), invoking sink(*this) per completed record.
  //
  // Ordinary content bytes (no delimiter/quote/newline/CR) dominate real
  // files, so mid-field states take a bulk path: scan to the next byte the
  // state machine actually cares about and append the run in one go.
  template <typename Sink>
  void feed(const char* data, std::size_t n, Sink&& sink) {
    std::size_t i = 0;
    while (i < n) {
      if (in_record_ && !pending_cr_) {
        std::size_t j = i;
        if (state_ == State::kUnquoted) {
          while (j < n && !is_special(data[j])) ++j;
        } else if (state_ == State::kQuoted) {
          while (j < n && data[j] != '"' && data[j] != '\n') ++j;
        }
        if (j > i) {
          fields_[field_count_].append(data + i, j - i);
          i = j;
          continue;
        }
      }
      consume(data[i], sink);
      ++i;
    }
  }

  // Flushes the final record when the input does not end in a newline.
  template <typename Sink>
  void finish(Sink&& sink) {
    pending_cr_ = false;  // a lone trailing CR is dropped
    if (state_ == State::kQuoted)
      parse_fail(record_line_, "unterminated quoted field");
    if (in_record_) end_record(sink);
  }

 private:
  // kQuoteQuote: saw one '"' inside a quoted field — either the first half
  // of an escaped quote or the closing quote.
  enum class State : std::uint8_t {
    kFieldStart,
    kUnquoted,
    kQuoted,
    kQuoteQuote
  };

  bool is_special(char c) const {
    return c == kDelimiter || c == '"' || c == '\n' || c == '\r';
  }

  void open_field() {
    if (field_count_ == fields_.size()) {
      fields_.emplace_back();
      quoted_.push_back(0);
    } else {
      fields_[field_count_].clear();
      quoted_[field_count_] = 0;
    }
  }

  void next_field() {
    ++field_count_;
    open_field();
    state_ = State::kFieldStart;
  }

  template <typename Sink>
  void end_record(Sink& sink) {
    ++field_count_;  // close the open field
    in_record_ = false;
    state_ = State::kFieldStart;
    sink(static_cast<const RecordScanner&>(*this));
    field_count_ = 0;
    record_line_ = line_;
  }

  template <typename Sink>
  void consume(char c, Sink& sink) {
    if (!in_record_) {
      in_record_ = true;
      record_line_ = line_;
      open_field();
    }
    if (pending_cr_) {
      pending_cr_ = false;
      if (c == '\n') {  // CRLF record terminator
        ++line_;
        end_record(sink);
        return;
      }
      // The CR was field content after all (the old reader kept it too).
      fields_[field_count_] += '\r';
      state_ = State::kUnquoted;
    }
    switch (state_) {
      case State::kFieldStart:
        if (c == '"') {
          quoted_[field_count_] = 1;
          state_ = State::kQuoted;
        } else if (c == kDelimiter) {
          next_field();
        } else if (c == '\n') {
          ++line_;
          end_record(sink);
        } else if (c == '\r') {
          pending_cr_ = true;
        } else {
          fields_[field_count_] += c;
          state_ = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == '"') {
          parse_fail(record_line_, "quote inside unquoted field");
        } else if (c == kDelimiter) {
          next_field();
        } else if (c == '\n') {
          ++line_;
          end_record(sink);
        } else if (c == '\r') {
          pending_cr_ = true;
        } else {
          fields_[field_count_] += c;
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state_ = State::kQuoteQuote;
        } else {
          if (c == '\n') ++line_;  // embedded newline: content, but a line
          fields_[field_count_] += c;
        }
        break;
      case State::kQuoteQuote:
        if (c == '"') {  // escaped quote
          fields_[field_count_] += '"';
          state_ = State::kQuoted;
        } else if (c == kDelimiter) {
          next_field();
        } else if (c == '\n') {
          ++line_;
          end_record(sink);
        } else if (c == '\r') {
          pending_cr_ = true;
          state_ = State::kUnquoted;
        } else {
          // Text after the closing quote; the pre-state-machine reader
          // accepted it as field content, so keep accepting it.
          fields_[field_count_] += c;
          state_ = State::kUnquoted;
        }
        break;
    }
  }

  State state_ = State::kFieldStart;
  bool pending_cr_ = false;
  bool in_record_ = false;
  std::size_t line_ = 1;
  std::size_t record_line_ = 1;
  std::size_t field_count_ = 0;
  std::vector<std::string> fields_;
  std::vector<std::uint8_t> quoted_;
};

// Validates the header record against the schema and returns the column
// names in file order (unquoted names are trimmed, quoted names verbatim).
std::vector<std::string> header_from(const RecordScanner& rec,
                                     const Table& schema) {
  std::vector<std::string> header(rec.field_count());
  for (std::size_t i = 0; i < rec.field_count(); ++i)
    header[i] = rec.quoted(i) ? rec.field(i)
                              : std::string(trim(rec.field(i)));
  if (header.size() != schema.column_count())
    parse_fail(rec.record_line(),
               "header has " + std::to_string(header.size()) +
                   " columns, schema expects " +
                   std::to_string(schema.column_count()));
  for (const auto& name : header)
    if (!schema.has_column(name))
      parse_fail(rec.record_line(), "unknown column '" + name + "'");
  return header;
}

// A record that is one unquoted whitespace-only field: a blank line. In a
// multi-column file that can never be a valid row; in a single-column file
// it is a legitimate missing-cell row and must not be skipped.
bool blank_record(const RecordScanner& rec) {
  return rec.field_count() == 1 && !rec.quoted(0) &&
         trim(rec.field(0)).empty();
}

// A header column resolved to its typed destination once per parse. The
// old reader looked every cell's column up by name twice per cell; at
// ingest scale those linear scans were a measurable share of the parse, so
// the hot path works through these handles instead.
struct BoundColumn {
  ColumnKind kind = ColumnKind::kNumeric;
  NumericColumn* num = nullptr;
  CategoricalColumn* cat = nullptr;
  MultiSelectColumn* multi = nullptr;
  const std::string* name = nullptr;  // error messages only
};

std::vector<BoundColumn> bind_columns(Table& out,
                                      const std::vector<std::string>& header) {
  std::vector<BoundColumn> bound(header.size());
  for (std::size_t i = 0; i < header.size(); ++i) {
    BoundColumn& b = bound[i];
    b.name = &header[i];
    b.kind = out.kind(header[i]);
    switch (b.kind) {
      case ColumnKind::kNumeric: b.num = &out.numeric(header[i]); break;
      case ColumnKind::kCategorical: b.cat = &out.categorical(header[i]); break;
      case ColumnKind::kMultiSelect: b.multi = &out.multiselect(header[i]);
        break;
    }
  }
  return bound;
}

// Parses one cell into its typed column.
void append_cell(const BoundColumn& col, std::string_view cell,
                 std::size_t line_no) {
  switch (col.kind) {
    case ColumnKind::kNumeric: {
      if (cell.empty()) {
        col.num->push_missing();
      } else {
        const auto v = parse_double(cell);
        if (!v)
          parse_fail(line_no, "column '" + *col.name + "': not a number: '" +
                                  std::string(cell) + "'");
        // NaN is the missing sentinel and infinities cannot round-trip
        // through analysis; a cell that parses but is non-finite is an
        // error, never a silent missing value.
        if (!std::isfinite(*v))
          parse_fail(line_no, "column '" + *col.name + "': non-finite value '" +
                                  std::string(cell) +
                                  "' (reserved for missing cells)");
        col.num->push(*v);
      }
      break;
    }
    case ColumnKind::kCategorical: {
      if (cell.empty()) {
        col.cat->push_missing();
      } else {
        const std::string label(cell);
        if (col.cat->frozen() && col.cat->find_code(label) == kMissingCode)
          parse_fail(line_no, "column '" + *col.name +
                                  "': unknown category '" + label + "'");
        col.cat->push(label);
      }
      break;
    }
    case ColumnKind::kMultiSelect: {
      if (cell.empty()) {
        col.multi->push_missing();
        break;
      }
      if (cell == "-") {  // answered, nothing selected
        col.multi->push_mask(0);
        break;
      }
      std::uint64_t mask = 0;
      for (const auto& part : split(cell, kMultiselectSeparator)) {
        // Quoted cells arrive verbatim, so an option label that itself
        // carries padding (" b ") matches verbatim first; otherwise the
        // part is trimmed, which keeps human-typed "a | b" working.
        std::int32_t o = col.multi->find_option(part);
        if (o < 0) {
          const std::string label{trim(part)};
          if (label.empty()) continue;
          o = col.multi->find_option(label);
          if (o < 0)
            parse_fail(line_no, "column '" + *col.name +
                                    "': unknown option '" + label + "'");
        }
        mask |= std::uint64_t{1} << o;
      }
      col.multi->push_mask(mask);
      break;
    }
  }
}

// Appends one data record: field count check, unquoted-cell trim, typed
// push. Quoted cells keep their bytes verbatim — that is the round-trip
// contract for whitespace-padded labels.
void append_record(const RecordScanner& rec,
                   const std::vector<BoundColumn>& bound) {
  if (rec.field_count() != bound.size())
    parse_fail(rec.record_line(),
               "expected " + std::to_string(bound.size()) + " fields, got " +
                   std::to_string(rec.field_count()));
  for (std::size_t f = 0; f < rec.field_count(); ++f) {
    const std::string_view cell = rec.quoted(f)
                                      ? std::string_view(rec.field(f))
                                      : trim(rec.field(f));
    append_cell(bound[f], cell, rec.record_line());
  }
}

inline constexpr std::size_t kIoChunkBytes = 64 * 1024;

// Streams `in` through a scanner in fixed-size chunks; returns total bytes.
template <typename Sink>
std::uint64_t scan_istream(std::istream& in, Sink&& sink) {
  RecordScanner scanner;
  std::vector<char> buf(kIoChunkBytes);
  std::uint64_t bytes = 0;
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got > 0) {
      bytes += got;
      scanner.feed(buf.data(), got, sink);
    }
    if (got < buf.size()) break;  // read() only comes up short at EOF
  }
  scanner.finish(sink);
  return bytes;
}

// --- Writing -----------------------------------------------------------------

std::string escape_field(const std::string& field) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  // Leading/trailing whitespace must be quoted: the reader trims unquoted
  // cells, so an unquoted padded label would silently mutate on ingest.
  const bool needs_quotes =
      field.find(kDelimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos ||
      (!field.empty() && (is_space(field.front()) || is_space(field.back())));
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

// The header record first, then every data record pushed into the table.
Table read_csv(std::istream& in, const Table& schema) {
  obs::ScopedTimer timer(metrics().parse_ms);
  Table out = schema.clone_empty();
  bool have_header = false;
  std::vector<std::string> header;
  std::vector<BoundColumn> bound;
  std::uint64_t rows = 0;
  const auto on_record = [&](const RecordScanner& rec) {
    if (!have_header) {
      header = header_from(rec, schema);
      bound = bind_columns(out, header);
      have_header = true;
      return;
    }
    if (blank_record(rec) && header.size() > 1) return;
    append_record(rec, bound);
    ++rows;
  };
  const std::uint64_t bytes = scan_istream(in, on_record);
  if (!have_header)
    throw rcr::InvalidInputError("CSV input is empty (no header row)");
  metrics().rows.add(rows);
  metrics().bytes.add(bytes);
  out.validate_rectangular();
  return out;
}

Table read_csv_file(const std::string& path, const Table& schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw rcr::InvalidInputError("cannot open CSV file: " + path);
  return read_csv(in, schema);
}

void write_csv(std::ostream& out, const Table& table) {
  table.validate_rectangular();
  const auto& names = table.column_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) out << kDelimiter;
    out << escape_field(names[i]);
  }
  out << '\n';
  const std::size_t n = table.row_count();
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) out << kDelimiter;
      const auto& name = names[i];
      switch (table.kind(name)) {
        case ColumnKind::kNumeric: {
          const double v = table.numeric(name).at(row);
          if (!NumericColumn::is_missing(v)) {
            // Shortest representation that round-trips exactly.
            char buf[32];
            const auto res = std::to_chars(buf, buf + sizeof(buf), v);
            out.write(buf, res.ptr - buf);
          }
          break;
        }
        case ColumnKind::kCategorical: {
          const auto& col = table.categorical(name);
          if (!col.is_missing(row))
            out << escape_field(col.label_at(row));
          break;
        }
        case ColumnKind::kMultiSelect: {
          const auto& col = table.multiselect(name);
          if (!col.is_missing(row)) {
            std::string joined;
            for (std::size_t o = 0; o < col.option_count(); ++o) {
              if (!col.has(row, o)) continue;
              if (!joined.empty()) joined += kMultiselectSeparator;
              joined += col.option(o);
            }
            // Distinguish "answered, nothing selected" from missing.
            if (joined.empty()) joined.push_back('-');
            out << escape_field(joined);
          }
          break;
        }
      }
    }
    out << '\n';
  }
}

void write_csv_file(const std::string& path, const Table& table) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw rcr::InvalidInputError("cannot write CSV file: " + path);
  write_csv(out, table);
}

}  // namespace rcr::data
