// rcr::data binary columnar snapshots — the native on-disk table format.
//
// CSV is the interchange format; this is the ingest format. A snapshot
// stores a Table as typed per-column pages of raw little-endian machine
// words (f64 values, i32 dictionary codes, u64 selection bitsets, u8
// missing flags) with the dictionaries and a checksummed page index in a
// footer, so reading is: mmap the file, validate checksums, and alias the
// pages straight into the columns' PageVec storage — zero parse, zero
// copy. See DESIGN.md "Columnar snapshot format" for the byte-level
// layout, alignment, checksum, and versioning rules.
//
// Contracts:
//   * Round-trip identity: write_snapshot -> read_snapshot reproduces the
//     table bitwise — column bytes, dictionary label order, frozen state —
//     so snapshot-backed analyses are byte-identical to CSV-backed ones.
//   * Loud corruption: every region (header, dictionary, page index, each
//     page) carries an XXH64 checksum; any flipped byte fails validation
//     with an error naming the region. Codes, masks, and flags are also
//     range-checked against the dictionary, so even a forged checksum
//     cannot produce out-of-bounds indexing later.
//   * A zero-copy table is a normal Table: mutation copies on write, and
//     the file mapping stays pinned for as long as any borrowing column
//     (or copy of one) lives.
#pragma once

#include <cstdint>
#include <string>

#include "data/table.hpp"

namespace rcr::data {

inline constexpr std::uint32_t kSnapshotVersion = 1;

// Writes `table` to `path`: one page per column array (a table with no rows
// has no pages), each 64-byte aligned, which is the layout read_snapshot
// aliases zero-copy.
void write_snapshot(const Table& table, const std::string& path);

// Memory-maps `path`, validates it (header magic/version/endianness,
// dictionary, page index, every page checksum, and every code/mask/flag
// range; one memory-bandwidth pass over the file), and returns a Table
// whose columns alias the mapping zero-copy. The page index must be the
// layout write_snapshot writes: each column array one page over every row,
// at an offset aligned for its element type. Throws rcr::InvalidInputError
// naming the offending region on any validation failure.
Table read_snapshot(const std::string& path);

}  // namespace rcr::data
