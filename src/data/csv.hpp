// CSV ingestion and export for survey tables.
//
// Format notes:
//   * RFC-4180 quoting is supported on read and applied on write when a
//     field contains a delimiter, quote, CR/LF, or leading/trailing
//     whitespace. Quoted fields may span newlines: the reader is an
//     incremental state machine over byte buffers, not a line splitter, so
//     everything write_csv emits parses back losslessly.
//   * Unquoted cells are whitespace-trimmed; quoted cells are verbatim
//     (that is how a label like " padded " survives a round trip).
//   * Multi-select cells use '|' between selected option labels; a lone
//     '-' means "answered, nothing selected" (distinct from missing).
//     Schema construction rejects '-' as an option label so the sentinel
//     can never collide with data.
//   * Empty cells are missing values in every column kind. Non-finite
//     numeric literals ("nan", "inf") are rejected: NaN is the missing
//     sentinel, so accepting them would silently turn an answered cell
//     into a missing one.
//   * Blank lines: in a multi-column file a blank (empty or whitespace-
//     only) line can never be a valid record, so it is skipped when
//     CsvOptions::skip_blank_lines is set (the default). In a
//     single-column file an empty line IS a valid record — one missing
//     cell — and is always kept; only the no-bytes-after-the-final-newline
//     case yields no record.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "data/table.hpp"

namespace rcr::data {

struct CsvOptions {
  char delimiter = ',';
  char multiselect_separator = '|';
  // Skip blank lines in multi-column files (never applies to single-column
  // schemas, where a blank line is a legitimate missing-cell row). With the
  // skip disabled a blank line raises the usual field-count error.
  bool skip_blank_lines = true;
};

// Parses CSV text into `schema`, a table that already has its columns (and,
// for categorical/multiselect, its category/option sets) defined. The header
// row must name a subset-ordering of the schema columns; every schema column
// must appear exactly once. Throws InvalidInputError with a line number on
// malformed input.
Table read_csv(std::istream& in, const Table& schema,
               const CsvOptions& options = {});
Table read_csv_file(const std::string& path, const Table& schema,
                    const CsvOptions& options = {});

// Streaming row visitor over CSV input. Parses with exactly the same
// header/record/cell machinery as read_csv — identical acceptance,
// identical errors, identical values — but never materializes more than a
// single row, so ingest memory is O(1) in the file size. `visit` is called
// once per data row, in file order, with a one-row table (schema cloned
// from `schema`) and the 0-based data-row index. The row table is *reused*
// between calls; visitors must copy anything they keep. Returns the number
// of rows visited.
std::size_t for_each_csv_row(
    std::istream& in, const Table& schema,
    const std::function<void(const Table& row, std::size_t index)>& visit,
    const CsvOptions& options = {});
std::size_t for_each_csv_row_file(
    const std::string& path, const Table& schema,
    const std::function<void(const Table& row, std::size_t index)>& visit,
    const CsvOptions& options = {});

// Streaming block visitor: like for_each_csv_row but delivers up to
// `block_rows` rows per callback (the final block may be short), with the
// 0-based index of the block's first row. Memory is O(block_rows); the row
// sequence across blocks is identical to read_csv. The block table is
// reused between calls. Returns the total number of rows delivered.
std::size_t for_each_csv_block(
    std::istream& in, const Table& schema, std::size_t block_rows,
    const std::function<void(const Table& block, std::size_t first_row)>&
        visit,
    const CsvOptions& options = {});
std::size_t for_each_csv_block_file(
    const std::string& path, const Table& schema, std::size_t block_rows,
    const std::function<void(const Table& block, std::size_t first_row)>&
        visit,
    const CsvOptions& options = {});

// Serializes a table; header row first. Quotes any field the reader could
// not otherwise reproduce (delimiter, quote, CR/LF, or leading/trailing
// whitespace), so write_csv → read_csv is lossless.
void write_csv(std::ostream& out, const Table& table,
               const CsvOptions& options = {});
void write_csv_file(const std::string& path, const Table& table,
                    const CsvOptions& options = {});

}  // namespace rcr::data
