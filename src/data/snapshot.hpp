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

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/table.hpp"

namespace rcr::data {

inline constexpr std::uint32_t kSnapshotVersion = 1;

struct SnapshotWriteOptions {
  // Rows per page. 0 writes one page per column (the layout read_snapshot
  // can alias zero-copy); a positive value splits columns into row-range
  // pages, the shape SnapshotWriter::append produces per ingest block.
  std::size_t page_rows = 0;
};

// Streaming snapshot writer: one page set per appended block, so a larger-
// than-RAM ingest (CSV block reader, parallel-shard partials, synth block
// generator) can stream to disk without materializing the full table.
// Categorical blocks re-intern by label against the writer's dictionary
// (independent shard interning is fine); the dictionary written at
// finish() is the final one, and earlier pages stay valid because
// interning only appends. finish() (or the destructor) seals the file —
// no append may follow it.
class SnapshotWriter {
 public:
  // Creates `path` and writes the provisional header. `schema` fixes the
  // column names, kinds, and option sets; category sets may still grow
  // while appending if unfrozen.
  SnapshotWriter(const Table& schema, const std::string& path);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Appends one block of rows: one page per column array, checksummed and
  // 64-byte aligned.
  void append(const Table& block);

  // Writes dictionaries, page index, and trailer, patches the header, and
  // closes the file. Idempotent.
  void finish();

  std::size_t rows_written() const { return rows_; }

 private:
  struct PageEntry {
    std::uint32_t column = 0;
    std::uint32_t kind = 0;
    std::uint64_t first_row = 0;
    std::uint64_t rows = 0;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hash = 0;
  };

  void write_page(std::uint32_t column, std::uint32_t kind, const void* data,
                  std::size_t rows, std::size_t elem_size);

  std::string path_;
  Table staging_;  // schema + live dictionaries; rows cleared per append
  std::vector<PageEntry> pages_;
  std::uint64_t offset_ = 0;
  std::size_t rows_ = 0;
  bool finished_ = false;
  void* file_ = nullptr;  // std::FILE*, kept out of the header
};

// Writes `table` to `path` in one shot. With options.page_rows == 0 every
// column is a single page, which is the layout read_snapshot aliases
// zero-copy.
void write_snapshot(const Table& table, const std::string& path,
                    const SnapshotWriteOptions& options = {});

// Memory-maps `path`, validates it (header magic/version/endianness,
// dictionary, page index, every page checksum, and every code/mask/flag
// range; one memory-bandwidth pass over the file), and materializes the
// Table: single-page columns whose pages are aligned for their element
// type alias the mapping zero-copy; multi-page or misaligned columns
// assemble by page-wise memcpy. Throws rcr::InvalidInputError naming the
// offending region on any validation failure.
Table read_snapshot(const std::string& path);

}  // namespace rcr::data
