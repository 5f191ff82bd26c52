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
//   * Fields are separated by ','.
//   * Multi-select cells use '|' between selected option labels; a lone
//     '-' means "answered, nothing selected" (distinct from missing).
//     Schema construction rejects '-' as an option label so the sentinel
//     can never collide with data.
//   * Empty cells are missing values in every column kind. Non-finite
//     numeric literals ("nan", "inf") are rejected: NaN is the missing
//     sentinel, so accepting them would silently turn an answered cell
//     into a missing one.
//   * Blank lines: in a multi-column file a blank (empty or whitespace-
//     only) line can never be a valid record, so it is skipped. In a
//     single-column file an empty line IS a valid record — one missing
//     cell — and is always kept; only the no-bytes-after-the-final-newline
//     case yields no record.
#pragma once

#include <iosfwd>
#include <string>

#include "data/table.hpp"

namespace rcr::data {

// Parses CSV text into `schema`, a table that already has its columns (and,
// for categorical/multiselect, its category/option sets) defined. The header
// row must name a subset-ordering of the schema columns; every schema column
// must appear exactly once. Throws InvalidInputError with a line number on
// malformed input.
Table read_csv(std::istream& in, const Table& schema);
Table read_csv_file(const std::string& path, const Table& schema);

// Serializes a table; header row first. Quotes any field the reader could
// not otherwise reproduce (delimiter, quote, CR/LF, or leading/trailing
// whitespace), so write_csv → read_csv is lossless.
void write_csv(std::ostream& out, const Table& table);
void write_csv_file(const std::string& path, const Table& table);

}  // namespace rcr::data
